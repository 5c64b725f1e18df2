"""The process pool behind `verify` and `sieve --jobs`.

Every test fixes its worker count, so none depends on the host.
"""

import gc
import io
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import diocurves.cli as cli
from diocurves import _pool, sieve, verify
from diocurves._pool import ordered_map
from diocurves.cli import EXIT_SOFTWARE, EXIT_USAGE, EXIT_VERIFY_FAILED


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool started."""
    started = []
    forked_map = _pool._forked_map

    def counting(fn, items, workers):
        started.append(workers)
        return forked_map(fn, items, workers)

    monkeypatch.setattr(_pool, "_forked_map", counting)
    return started


def _cpus(monkeypatch, n):
    monkeypatch.setattr(verify, "available_cpus", lambda: n)


@pytest.mark.parametrize("scope", ["s3", "s6"])
def test_run_scope_same_results_on_one_and_two_cpus(monkeypatch, pools,
                                                     scope):
    runs = {}
    for n in (1, 2):
        _cpus(monkeypatch, n)
        sunk = []
        results = verify.run_scope(scope, sink=sunk.append)
        assert sunk == results
        runs[n] = [(r.check_id, r.passed, r.detail) for r in results]
    assert pools == [2]
    assert runs[1] == runs[2]


def test_s2_is_one_job_in_process(monkeypatch, pools):
    # the three s2 checks share one job, so two CPUs start no pool for them
    runs = {}
    for n in (1, 2):
        _cpus(monkeypatch, n)
        results = verify.run_scope("s2")
        runs[n] = [(r.check_id, r.passed, r.detail) for r in results]
    assert pools == []
    assert [c for c, _, _ in runs[2]] == [
        "sieve-summand-forms", "sieve-order-mod-4", "sieve-reproducibility"]
    assert runs[1] == runs[2]


def test_s2_checks_share_a_worker(monkeypatch, pools):
    # the pool forks, so the patched checks are the ones the workers run
    def reporting(check_id):
        def check():
            return verify.CheckResult(check_id, "s2", True,
                                      str(os.getpid()), 0.0)
        return check

    monkeypatch.setattr(verify, "check_summand_forms",
                        reporting("sieve-summand-forms"))
    monkeypatch.setattr(verify, "check_sieve_reproducibility",
                        reporting("sieve-reproducibility"))
    _cpus(monkeypatch, 2)
    pids = {r.check_id: r.detail for r in verify.run_scope("all")}
    assert pools == [2]
    assert pids["sieve-summand-forms"] == pids["sieve-reproducibility"]


def test_counted_failures_survive_the_pool(monkeypatch, pools):
    def broken(t, curves=None):
        raise ArithmeticError("the half point does not double to [1, rsu]")

    monkeypatch.setattr(verify, "canonical_points", broken)
    _cpus(monkeypatch, 2)
    stream = io.StringIO()
    assert cli.cmd_verify("s1", False, stream=stream) == EXIT_VERIFY_FAILED
    assert stream.getvalue().count("FAIL [s1]") == 2
    assert pools == [2]


def test_worker_crash_is_exit_70_without_traceback(monkeypatch, pools,
                                                   capsys):
    def crashing():
        raise RuntimeError("forced worker failure")

    monkeypatch.setattr(verify, "check_doubling_identity", crashing)
    _cpus(monkeypatch, 2)
    assert cli.main(["verify", "s1"]) == EXIT_SOFTWARE
    err = capsys.readouterr().err
    assert err.count("internal error:") == 1
    assert "RuntimeError: forced worker failure" in err
    assert "Traceback" not in err
    assert pools == [2]


@pytest.mark.parametrize("cpus", [1, 2])
def test_key_error_in_a_check_is_internal(monkeypatch, pools, capsys, cpus):
    # only an unknown scope is a usage error; a KeyError raised inside a
    # check is a bug, in process or in a worker
    def failing():
        raise KeyError("forced lookup failure")

    monkeypatch.setattr(verify, "check_doubling_identity", failing)
    _cpus(monkeypatch, cpus)
    assert cli.main(["verify", "s1"]) == EXIT_SOFTWARE
    err = capsys.readouterr().err
    assert err.count("internal error: KeyError") == 1
    assert "unknown scope" not in err


def test_unknown_scope_starts_no_pool(monkeypatch, pools, capsys):
    _cpus(monkeypatch, 2)
    assert cli.main(["verify", "bogus-scope"]) == EXIT_USAGE
    assert "unknown scope" in capsys.readouterr().err
    assert pools == []


def _mark_unless_first(job):
    directory, i = job
    if i == 0:
        raise RuntimeError("forced failure of the first job")
    time.sleep(0.05)
    open(os.path.join(directory, str(i)), "w").close()
    return i


def test_ordered_map_cancels_pending_jobs(tmp_path):
    # running the 39 other jobs would take about 1 s on two workers; only
    # the few already handed to a worker may still run after the failure
    jobs = [(str(tmp_path), i) for i in range(40)]
    with pytest.raises(RuntimeError, match="first job"):
        list(ordered_map(_mark_unless_first, jobs, 2))
    time.sleep(1.5)
    assert len(os.listdir(tmp_path)) < 10


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_unless_three(i):
    if i == 3:
        raise ValueError("forced failure of item 3")
    return i * i


@pytest.mark.parametrize("ending", ["returns", "raises", "closed-early",
                                    "interrupted", "fork-fails"])
def test_ordered_map_leaves_no_child(monkeypatch, pools, ending):
    if ending == "returns":
        assert list(ordered_map(_square_unless_three, [0, 1, 2], 2)) == \
            [0, 1, 4]
    elif ending == "raises":
        got = []
        with pytest.raises(ValueError, match="item 3"):
            got.extend(ordered_map(_square_unless_three, range(8), 2))
        # the items before the failure still come out, in order
        assert got == [0, 1, 4]
    elif ending == "fork-fails":
        # the first worker is running when the second fork fails
        fork = os.fork
        forks = []

        def fork_once():
            if forks:
                raise BlockingIOError("forced failure of the second fork")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(BlockingIOError, match="second fork"):
            list(ordered_map(_square_unless_three, range(8), 2))
    else:
        results = ordered_map(_square_unless_three, range(8), 2)
        assert next(results) == 0
        if ending == "closed-early":
            results.close()
        else:
            with pytest.raises(KeyboardInterrupt):
                results.throw(KeyboardInterrupt)
    assert pools == [2]
    _assert_no_child_left()


def test_ordered_map_runs_items_in_forked_workers(pools):
    # the workers inherit fn and items, so neither has to pickle
    parent = os.getpid()
    pids = list(ordered_map(lambda i: os.getpid(), range(6), 3))
    assert pools == [3]
    assert parent not in pids and len(set(pids)) > 1
    _assert_no_child_left()


def test_ordered_map_gives_each_worker_a_fixed_share(pools):
    # worker k of n runs items k, k + n, k + 2n, ...
    pids = list(ordered_map(lambda i: os.getpid(), range(6), 3))
    assert pools == [3]
    assert len(set(pids)) == 3
    assert all(pids[i] == pids[i % 3] for i in range(6))
    _assert_no_child_left()


def test_ordered_map_left_open_at_exit_is_quiet():
    # the generator is closed at interpreter exit, after the import system
    # is torn down, so its cleanup may import nothing
    src = pathlib.Path(_pool.__file__).resolve().parents[1]
    code = ("import gc\n"
            "from diocurves._pool import ordered_map\n"
            "gc.disable()\n"
            "results = ordered_map(abs, range(8), 2)\n"
            "assert next(results) == 0\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.returncode == 0


def _killed_in_a_worker(parent):
    def check():
        if os.getpid() == parent:
            raise AssertionError("the check ran in the test process")
        os.kill(os.getpid(), signal.SIGKILL)
    return check


class _NoRebuild(Exception):
    # pickles, but unpickling calls __init__ with one argument and fails
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _unpicklable_local():
    class Local(Exception):
        pass
    raise Local("forced failure with a local class")


def _no_rebuild():
    raise _NoRebuild("forced failure", "two arguments")


@pytest.mark.parametrize("failure", ["sigkill", "local-class",
                                     "no-rebuild"])
def test_lost_worker_outcome_is_exit_70_without_traceback(
        monkeypatch, pools, capsys, failure):
    check = {"sigkill": _killed_in_a_worker(os.getpid()),
             "local-class": _unpicklable_local,
             "no-rebuild": _no_rebuild}[failure]
    monkeypatch.setattr(verify, "check_doubling_identity", check)
    _cpus(monkeypatch, 2)
    assert cli.main(["verify", "s1"]) == EXIT_SOFTWARE
    err = capsys.readouterr().err
    assert err.startswith("internal error: WorkerFailed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if failure == "sigkill":
        assert f"(exit status {-signal.SIGKILL})" in err
    else:
        assert "cannot be sent back" in err
    assert pools == [2]
    _assert_no_child_left()


@pytest.mark.parametrize("ending", ["exhausted", "raises", "closed-early"])
def test_ordered_map_thaws_the_heap_it_froze(pools, ending):
    before = gc.get_freeze_count()
    items = range(3) if ending == "exhausted" else range(8)
    results = ordered_map(_square_unless_three, items, 2)
    assert next(results) == 0
    # frozen while the workers run
    assert gc.get_freeze_count() > before
    if ending == "exhausted":
        assert list(results) == [1, 4]
    elif ending == "raises":
        with pytest.raises(ValueError, match="item 3"):
            list(results)
    else:
        results.close()
    assert gc.get_freeze_count() == before
    assert pools == [2]
    _assert_no_child_left()


def test_ordered_map_keeps_a_heap_frozen_elsewhere(pools):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert list(ordered_map(_square_unless_three, range(3), 2)) == \
            [0, 1, 4]
        assert gc.get_freeze_count() >= frozen
    finally:
        gc.unfreeze()
    assert pools == [2]


@pytest.mark.parametrize("N", [150, 1200])
def test_sieve_workers_start_with_warm_tables(monkeypatch, capsys, N):
    # the int loop's tables for every odd prime below min(N, 1000) exist
    # before the first worker forks, so no worker builds its own
    sieve._nonresidues.cache_clear()
    cached = []
    start = _pool._start_worker

    def spying(fn, items, k, workers):
        cached.append(sieve._nonresidues.cache_info().currsize)
        return start(fn, items, k, workers)

    monkeypatch.setattr(_pool, "_start_worker", spying)
    cfg = cli.Config(N=N, keep=0.05, jobs=2)
    assert cli.cmd_sieve("K_PLUSMINUS", (1, 12), (1, 3), cfg) == cli.EXIT_OK
    assert '"kind":"search"' in capsys.readouterr().out
    odd = sieve.primes_upto(min(N, sieve._INT_BELOW - 1))[1:]
    assert cached and cached == [len(odd)] * len(cached)
