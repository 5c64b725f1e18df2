"""The process pool behind `verify` and `sieve --jobs`.

Every test fixes its worker count, so none depends on the host.
"""

import concurrent.futures
import io
import os
import time

import pytest

import diocurves.cli as cli
from diocurves import verify
from diocurves._pool import ordered_map
from diocurves.cli import EXIT_SOFTWARE, EXIT_USAGE, EXIT_VERIFY_FAILED


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool started."""
    started = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
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
