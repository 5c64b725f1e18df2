import argparse
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import diocurves
import diocurves.cli as cli
from diocurves import torsion, verify
from diocurves.cli import (
    EXIT_INVALID_INPUT,
    EXIT_IOERR,
    EXIT_OK,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    Config,
    _read_config_file,
    main,
)
from diocurves.families import paper_dataset
from diocurves.triples import make_triple
from diocurves.verify import RANK_DISCLAIMER


def run(argv):
    return main(list(argv))


def test_induce_happy_path(capsys):
    assert run(["induce", "{1,3,8}", "--N", "200"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["version"] == 1
    assert payload["kind"] == "search"
    assert payload["triple"] == ["1", "3", "8"]
    assert payload["torsion"]["exact"] is True
    assert payload["score"]["N"] == 200
    assert payload["rank"]["lower_bound"] >= 1
    assert payload["quadruple_extension"]["values"] == ["0", "120"]


# the two triples whose rank bound came from heights before descent
# saturated; only the method word of their output changed then
HEIGHTS_PINS = {
    "{3/4,7,315/4}":
        "e35c5d1815a4fa1a81a8debc96e4ed39370f2839c6d9c75b0ffdfb72a09788c1",
    "{12/5,-5/12,116/375}":
        "e15f7b1b1cc2b883aa02c0e833a56516956fb6d0017e74696e2539d9d28c91c6",
}


# sha256 of `induce "{1,3,8}"` stdout at the defaults
INDUCE_SHA256 = (
    "ab9f0acbb47818bc24b0938fed32c45530bcfd0b2e2b442b9b603fb22143790e")


@pytest.mark.parametrize("argv, digest", [
    (["{1,3,8}"], INDUCE_SHA256),
    (["{1,3,8}", "--height-bound", "8"],
     "7cfb7c39969deecfc82daf382e1befa2d2b30e74897c36c2bacf01d42c73c78c"),
    *(([t], d) for t, d in HEIGHTS_PINS.items()),
], ids=["default", "height-bound-8", "heights-3_4", "heights-12_5"])
def test_induce_output_bytes_pinned(capsys, argv, digest):
    # the exact bytes are part of the output contract; the height bound 8
    # is MAX_HEIGHT_BOUND, where the point search runs e up to 54
    assert run(["induce", *argv]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


README_SIEVE = ["sieve", "K_PLUSMINUS", "--numerators", "1:50",
                "--denominators", "1:10", "--keep", "0.05"]
README_SIEVE_SHA256 = (
    "f562215033a2cd53c3c8c85542ef3d75ad89f3e0fd74d993c4bd092c93eabcb1")


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]],
                         ids=["serial", "jobs2"])
def test_readme_sieve_output_bytes_pinned(capsys, jobs):
    # one bit moved in any of the 310 scores reorders or reprints the grid
    assert run([*README_SIEVE, *jobs]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == README_SIEVE_SHA256


# a grid scored past the int kernel's cut at p = 1000, so each curve is
# counted by both root kernels; measured before the int kernel existed
CUT_SIEVE = ["sieve", "K_4K", "--numerators", "1:12", "--denominators",
             "1:3", "--N", "1500", "--keep", "0.2"]
CUT_SIEVE_SHA256 = (
    "42ec6ad6ea8c55d240f5706014d82e8523b3bb85bcb22322245454cb041c0bfb")


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]],
                         ids=["serial", "jobs2"])
def test_sieve_across_the_kernel_cut_output_bytes_pinned(capsys, jobs):
    assert run([*CUT_SIEVE, *jobs]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CUT_SIEVE_SHA256


def test_readme_sieve_output_bytes_pinned_under_optimize():
    # python -O strips asserts; the sieve's internal checks are raises, so
    # the optimized run does and prints the same
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-m", "diocurves.cli",
                           *README_SIEVE], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == README_SIEVE_SHA256


def test_induce_rejects_non_diophantine(capsys):
    assert run(["induce", "{1,2,3}"]) == EXIT_INVALID_INPUT
    assert run(["induce", "{1,2"]) == EXIT_INVALID_INPUT
    assert run(["induce", "{1,3,0}"]) == EXIT_INVALID_INPUT


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_verify_unknown_scope(capsys):
    assert run(["verify", "bogus-scope"]) == EXIT_USAGE


def test_dataset_unknown_id(capsys):
    assert run(["dataset", "no-such-record"]) == EXIT_USAGE


def test_dataset_dump_shape(capsys):
    assert run(["dataset"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 59
    rows = [json.loads(line) for line in lines]
    assert all(row["version"] == 1 for row in rows)
    ids = {row["id"] for row in rows}
    assert "s3-rank9" in ids and "s6-big" in ids


def test_dataset_single_record_full(capsys):
    assert run(["dataset", "s4-rank7"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out.strip())
    assert row["claimed_rank"] == 7
    assert row["torsion_shape"] == [2, 4]
    assert len(row["points"]) == 7
    assert row["triple"] == ["22552/5129", "-5129/22552", "52463190/14458651"]


def test_verify_record_scope_passes(capsys):
    assert run(["verify", "s6-connell"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert RANK_DISCLAIMER.splitlines()[0] in out


def test_verify_section_symbol_alias(capsys):
    assert run(["verify", "§5-rank4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "record-s5-rank4" in out


def test_sieve_small_grid_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["sieve", "K_PLUSMINUS", "--numerators", "1:6",
            "--denominators", "1:2", "--keep", "1.0", "--N", "150"]
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2), "--jobs", "2"]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    # the exact bytes are part of the output contract
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == (
        "36b8181de5e92918e36d51e63404b135b4db4da9f1a9483e8909ab96c5ff1ac0")

    rows = [json.loads(line) for line in out1.read_text().splitlines()]
    skips = [r for r in rows if r["kind"] == "skip"]
    searches = [r for r in rows if r["kind"] == "search"]
    assert skips and searches
    # skips precede results; results sorted by descending score
    assert rows[:len(skips)] == skips
    scores = [r["score"]["value"] for r in searches]
    assert scores == sorted(scores, reverse=True)
    assert ["1", "3", "120"] in [r["triple"] for r in searches]


def test_sieve_in_chunks_prints_the_one_chunk_output(monkeypatch, capsys):
    # the README grid is one chunk; scored 7 parameters at a time, its 45
    # chunks print the same bytes, the 3 skip lines included
    assert len(cli._grid((1, 50), (1, 10))) <= cli.SIEVE_CHUNK
    assert run(README_SIEVE) == EXIT_OK
    one = capsys.readouterr()
    batches = []
    real = cli._sums_from_data

    def counting(data, limit):
        batches.append(len(data))
        return real(data, limit)

    monkeypatch.setattr(cli, "_sums_from_data", counting)
    monkeypatch.setattr(cli, "SIEVE_CHUNK", 7)
    assert run(README_SIEVE) == EXIT_OK
    chunked = capsys.readouterr()
    assert len(batches) == 45 and sum(batches) == 310
    assert max(batches) <= 7
    assert one.out.count('"kind":"skip"') == 3
    assert chunked.out == one.out
    assert chunked.err == one.err


# ONE_THREE_C skips 198 of its 200 grid values, so with --jobs 2 the skip
# lines come from every piece
STRADDLING_SIEVE = ["sieve", "ONE_THREE_C", "--numerators", "1:200",
                    "--denominators", "1:1", "--N", "150"]


def test_sieve_jobs_scores_the_grid_in_workers(tmp_path, monkeypatch,
                                               capsys):
    log = tmp_path / "pieces"
    real = cli._score_piece

    def logging(family_id, piece, N):
        lines, scored = real(family_id, piece, N)
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(lines)}\n")
        return lines, scored

    monkeypatch.setattr(cli, "_score_piece", logging)
    runs = {}
    for jobs in ("1", "2"):
        log.unlink(missing_ok=True)
        assert run([*STRADDLING_SIEVE, "--jobs", jobs]) == EXIT_OK
        runs[jobs] = capsys.readouterr()
        pieces = [tuple(map(int, line.split()))
                  for line in log.read_text().splitlines()]
        if jobs == "1":
            assert pieces == [(os.getpid(), 198)]
            continue
        pids = {pid for pid, _ in pieces}
        assert len(pids) == 2 and os.getpid() not in pids
        assert sum(skips > 0 for _, skips in pieces) > 1
    assert runs["2"].out == runs["1"].out
    assert runs["2"].err == runs["1"].err


@pytest.mark.parametrize("jobs, refused", [
    ("256", False), ("257", True), (str(10 ** 9), True)],
    ids=["at-limit", "one-over", "huge"])
def test_jobs_above_the_cap_are_refused_up_front(tmp_path, monkeypatch,
                                                 capsys, jobs, refused):
    # --jobs forks that many workers, so a larger value is a usage error
    # before --out is opened; no test run may start a process here
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    sieved = []
    monkeypatch.setattr(cli, "cmd_sieve",
                        lambda *args: sieved.append(args) or EXIT_OK)
    out = tmp_path / "f.jsonl"
    code = run([*README_SIEVE, "--jobs", jobs, "--out", str(out)])
    assert cli.MAX_JOBS == 256
    if not refused:
        assert code == EXIT_OK and sieved[0][3].jobs == 256
        return
    assert code == EXIT_USAGE and sieved == [] and not out.exists()
    assert "jobs in [1, 256]" in capsys.readouterr().err


def test_sieve_bad_range():
    assert main(["sieve", "K_4K", "--numerators", "5",
                 "--denominators", "1:2"]) == EXIT_USAGE


def test_sieve_summary_counts_invalid_parameters(capsys):
    # of the 198 skipped values of c, 196 fail as NotDiophantine and only
    # c = 1 and c = 3 are degenerate
    assert run(["sieve", "ONE_THREE_C", "--numerators", "1:200",
                "--denominators", "1:1", "--N", "150"]) == EXIT_OK
    captured = capsys.readouterr()
    errors = [json.loads(line).get("error")
              for line in captured.out.splitlines()]
    assert (errors.count("NotDiophantine"), errors.count("DegenerateTriple"),
            errors.count(None)) == (196, 2, 1)
    assert captured.err.endswith(
        "ONE_THREE_C: scored 2 parameters, kept 1, skipped 198 invalid "
        "(degenerate or not Diophantine)\n")


@pytest.mark.parametrize("numerators, refused", [
    ("1:1000", False), ("1:1001", True), ("1:100000000", True),
    (f"-{10 ** 9}:{10 ** 9}", True)], ids=["at-limit", "one-row-over",
                                           "huge", "negative-to-positive"])
def test_sieve_oversized_grid_is_refused_up_front(tmp_path, monkeypatch,
                                                  capsys, numerators,
                                                  refused):
    # the grid builds every cell of its box, so a box over MAX_GRID_CELLS
    # is a usage error before --out is opened or any cell is built
    sieved = []
    monkeypatch.setattr(cli, "cmd_sieve",
                        lambda *args: sieved.append(args) or EXIT_OK)
    out = tmp_path / "f.jsonl"
    code = run(["sieve", "K_PLUSMINUS", f"--numerators={numerators}",
                "--denominators", "1:1000", "--out", str(out)])
    assert cli.MAX_GRID_CELLS == 10 ** 6
    if not refused:
        assert code == EXIT_OK and len(sieved) == 1
        return
    assert code == EXIT_USAGE and sieved == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("bad range: the grid has ") and \
        err.endswith(f"cells, more than {10 ** 6}\n")


def test_sieve_refuses_two_parameter_family(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sieve", "Z2Z6_UV", "--numerators", "1:3",
             "--denominators", "1:2"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 150\n# comment line\nheight-bound = 3.0\n")
    assert run(["induce", "1,3,8", "--config", str(cfg)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["score"]["N"] == 150

    assert run(["induce", "1,3,8", "--config", str(cfg),
                "--N", "220"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["score"]["N"] == 220


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("waffles = 7\n")
    assert run(["induce", "1,3,8", "--config", str(cfg)]) == EXIT_USAGE


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# leading comment\nN=400\nkeep = 0.25\njobs=3\n\n")
    values = _read_config_file(str(cfg))
    # raw strings here; coercion happens when the Config is assembled
    assert values == {"N": "400", "keep": "0.25", "jobs": "3"}


def test_config_validation():
    with pytest.raises(ValueError):
        Config(N=0).validated()
    with pytest.raises(ValueError):
        Config(keep=0.0).validated()
    with pytest.raises(ValueError):
        Config(jobs=-1).validated()
    assert Config().validated().N == 1000


@pytest.mark.parametrize("flags, config_text", [
    (["--height-bound", "1000"], None),
    (["--height-bound", "inf"], None),
    ([], "height_bound = 9\n"),
    (["--N", "3000000000"], None),
], ids=["height-bound-1000", "height-bound-inf", "config-file",
        "N-3e9"])
def test_bad_configuration_is_usage_error(tmp_path, capsys, flags,
                                          config_text):
    if config_text is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_text)
        flags = ["--config", str(cfg)]
    assert run(["induce", "{1,3,8}", *flags]) == EXIT_USAGE
    assert "bad configuration" in capsys.readouterr().err


def test_verify_all_under_optimize_flag():
    # python -O strips asserts; every certification must still hold
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-m", "diocurves.cli",
                           "verify", "all", "--long"], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "70/70 checks passed" in proc.stdout


def test_commands_reach_every_package_module():
    # the package ships no module that only the tests use: run in this one
    # process, `dataset`, `induce`, a small sieve and `verify s1` load every
    # module under src/diocurves.  The commands, not the bare import, are
    # what must reach them, so a module imported lazily still counts
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    sieve = ["sieve", "K_PLUSMINUS", "--numerators", "1:6",
             "--denominators", "1:2"]
    commands = [[*argv, "--out", os.devnull]
                for argv in (["dataset"], ["induce", "{1,3,8}"], sieve)]
    commands.append(["verify", "s1"])
    code = ("import pathlib, sys, diocurves.cli as c, diocurves.verify as v\n"
            "v.available_cpus = lambda: 1\n"
            f"for argv in {commands!r}:\n"
            "    assert c.main(argv) == 0\n"
            "pkg = pathlib.Path(c.__file__).parent\n"
            "names = {'diocurves.' + p.stem for p in pkg.glob('*.py')}\n"
            "names.discard('diocurves.__init__')\n"
            "missing = sorted(names - set(sys.modules))\n"
            "sys.exit(' '.join(missing) or None)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["sympy", "numpy", "mpmath",
                                    "multiprocessing",
                                    "concurrent.futures.process",
                                    "concurrent.futures",
                                    "dataclasses", "inspect", "selectors"])
def test_cli_import_leaves_module_unloaded(module):
    # numpy, sympy and mpmath are test-only oracles (the next test runs
    # the commands that count past p = 1000 with numpy blocked).  The
    # process pool forks with os alone, and its workers do the pooled work,
    # so a pooled `sieve --jobs 2` or `verify` loads nothing more in the
    # parent.  The records and value types write their methods in the
    # source, so no class is generated by dataclasses (which loads inspect)
    # on a cold start.  The exit code is the number of the first command
    # after which the module is loaded
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    sieve = ["sieve", "K_PLUSMINUS", "--numerators", "1:6",
             "--denominators", "1:2"]
    commands = [[*argv, "--out", os.devnull] for argv in (
        ["dataset"], ["induce", "{1,3,8}"], sieve, [*sieve, "--jobs", "2"])]
    commands.append(["verify", "s1"])
    code = ("import sys, diocurves.cli as c, diocurves.verify as v\n"
            "v.available_cpus = lambda: 2\n"
            f"for i, argv in enumerate({commands!r}, 1):\n"
            "    assert c.main(argv) == 0\n"
            f"    if {module!r} in sys.modules:\n"
            "        sys.exit(i)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_curve_counts_above_the_cut_leave_numpy_unloaded():
    # `verify s2` and `induce --N` count one curve at a time at primes past
    # 1000, by baby-step giant-step, a grid sieved past 1000 counts its
    # batch on one row per prime, and a curve without rational two-torsion
    # is counted by a character sum and by baby-step giant-step.  numpy is
    # blocked before any of them runs, so any import of it raises.  The
    # exit code is the number of the first command that fails, or 1 with a
    # traceback from E11's sum
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    commands = [["verify", "s2"],
                ["induce", "{1,3,8}", "--N", "20000", "--out", os.devnull],
                [*CUT_SIEVE, "--jobs", "2", "--out", os.devnull]]
    code = ("import contextlib, os, sys\n"
            "sys.modules['numpy'] = None\n"
            "import diocurves.cli as c, diocurves.verify as v\n"
            "from diocurves.sieve import mestre_nagao_sum\n"
            "from diocurves.weierstrass import CurveQ\n"
            "v.available_cpus = lambda: 1\n"
            f"for i, argv in enumerate({commands!r}, 1):\n"
            "    with contextlib.redirect_stdout(open(os.devnull, 'w')):\n"
            "        if c.main(argv) != 0:\n"
            "            sys.exit(i)\n"
            "mestre_nagao_sum(CurveQ(0, -1, 1, -10, -20), 2000)  # E11\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_internal_error_is_exit_70_without_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ArithmeticError("forced certification failure")

    monkeypatch.setattr(cli, "torsion_subgroup", broken)
    assert run(["induce", "{1,3,8}"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ArithmeticError: "
                            "forced certification failure\n")


def _cli_process(argv, stdout):
    """Run the CLI in a fresh interpreter on this checkout, stdout to the
    given file descriptor; stderr is captured."""
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "diocurves.cli", *argv],
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)


@pytest.mark.parametrize("argv", [["dataset"], ["verify", "s1"], ["--help"]],
                         ids=["dataset", "verify", "help"])
def test_closed_stdout_is_exit_74_without_a_word(argv):
    # the reader of stdout is gone before the first write, as after
    # `| head -1`: the write fails with EPIPE, which is nobody's error to
    # read, and the flush at exit stays quiet too
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(argv, write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_IOERR, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv, name", [
    (["dataset", "--out", "/dev/full"], "--out /dev/full"),
    (["dataset"], "stdout"),
    (["verify", "s1"], "stdout"),
    (["--help"], "stdout"),
    (["induce", "--help"], "stdout"),
], ids=["dataset-out", "dataset-stdout", "verify-stdout", "help-stdout",
        "induce-help-stdout"])
def test_full_device_is_exit_74_on_one_line(argv, name):
    with open("/dev/full", "wb") as full:
        proc = _cli_process(argv, full)
    assert proc.returncode == EXIT_IOERR
    assert proc.stderr.decode() == \
        f"cannot write {name}: No space left on device\n"


def test_help_writes_argparse_text_and_exits_0(capsys):
    # help goes through the output's failure handling, and writes the
    # same bytes argparse would
    with pytest.raises(SystemExit) as exit_info:
        run(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (cli.build_parser().format_help(), "")


def test_failed_fork_is_still_an_internal_error(monkeypatch, capsys):
    # only a failed write of the output is exit 74; any other OSError is
    # a defect or a resource shortage, reported as before
    def no_fork():
        raise BlockingIOError("forced failure of the fork")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(["sieve", "K_PLUSMINUS", "--numerators", "1:6",
                "--denominators", "1:2", "--jobs", "2"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: BlockingIOError: "
                            "forced failure of the fork\n")


def test_search_record_computes_torsion_once(monkeypatch):
    # the record and the rank bound both ask for the torsion group; the
    # curve keeps it, so its reduction bound is counted once, not per call
    calls = []
    real = torsion.reduction_torsion_bound

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(torsion, "reduction_torsion_bound", counted)
    record = cli._search_record(make_triple(1, 3, 8), Config(N=200))
    assert record["rank"]["lower_bound"] >= 1
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "s1", "--out", "{out}"],
    ["dataset", "--N", "5"],
    ["induce", "{{1,3,8}}", "--jobs", "2"],
    ["induce", "{{1,3,8}}", "--primes", "20"],
    ["induce", "{{1,3,8}}", "--factor-budget", "5"],
    ["induce", "{{1,3,8}}", "--eps", "1e-3"],
], ids=["verify-out", "dataset-N", "induce-jobs", "induce-primes",
        "induce-factor-budget", "induce-eps"])
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv):
    # a subcommand offers only the flags it reads, so an ignored flag is
    # refused instead of silently doing nothing
    out = tmp_path / "never.jsonl"
    with pytest.raises(SystemExit) as exc:
        run([arg.format(out=out) for arg in argv])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["primes", "factor_budget", "eps"])
def test_removed_config_key_is_usage_error(tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 20\n")
    assert run(["induce", "{1,3,8}", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad configuration" in err and f"unknown key {key!r}" in err


def test_induce_hard_discriminant_finishes():
    # N = pq with 10-digit primes makes the discriminant of the triple
    # {1, N^2 - 1, N^2 + 2N} a hard composite; factoring work is bounded,
    # so the pipeline still ends (the timeout fails a hang, not a slow run)
    N = 1000000007 * 3000000019
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "diocurves.cli", "induce",
         f"{{1,{N * N - 1},{N * N + 2 * N}}}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["rank"]["lower_bound"] >= 1


def test_every_config_field_has_a_reader():
    # every Config field is a flag of some subcommand, and no subcommand
    # offers a flag that is neither a Config field nor its own argument
    own = {"induce": set(), "sieve": {"numerators", "denominators"},
           "verify": {"long"}, "dataset": set()}
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(own)
    offered = set()
    for name, sub in subs.choices.items():
        flags = {a.dest for a in sub._actions
                 if a.option_strings and a.dest != "help"}
        assert flags <= set(cli._CONFIG_KEYS) | {"config"} | own[name], name
        offered |= flags
    assert set(cli._CONFIG_KEYS) <= offered


def test_verify_check_propagates_internal_errors(monkeypatch):
    # only BadReduction means "skip this prime"; anything else is a bug and
    # must not be retried away
    real = verify.summand_forms
    calls = []

    def flaky(E, p):
        calls.append(p)
        if len(calls) == 1:
            raise ArithmeticError("forced internal failure")
        return real(E, p)

    monkeypatch.setattr(verify, "summand_forms", flaky)
    with pytest.raises(ArithmeticError, match="forced internal failure"):
        verify.check_summand_forms(count=5)


def test_check_seconds_ignore_wall_clock_jumps(monkeypatch):
    # the wall clock may be set back or forward while a check runs; the
    # durations and the 60 s budget of sieve-reproducibility must not see it
    back = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(time, "time", lambda: next(back))
    res = verify.check_quadruple_extension_fermat()
    assert res.passed and res.seconds >= 0
    ahead = iter(range(0, 10**9, 3600))
    monkeypatch.setattr(time, "time", lambda: next(ahead))
    assert verify.check_sieve_reproducibility(limit=500).passed


def test_broken_doubling_identity_is_a_counted_failure(monkeypatch):
    # canonical_points raises ArithmeticError when its half does not double
    # to [1, rst]; both s1 checks count that as a failure, so verify prints
    # FAIL and exits 1 instead of aborting
    def broken(t, curves=None):
        raise ArithmeticError("the half point does not double to [1, rsu]")

    monkeypatch.setattr(verify, "canonical_points", broken)
    for check, count in ((verify.check_doubling_identity, 210),
                         (verify.check_euler_doubling, 10)):
        res = check(count=count)
        assert res.passed is False
        assert res.detail.endswith(f"{count} failures")
    stream = io.StringIO()
    assert cli.cmd_verify("s1", False, stream=stream) == EXIT_VERIFY_FAILED
    assert stream.getvalue().count("FAIL [s1]") == 2


@pytest.mark.parametrize("seed, count", [(101, 800), (202, 500)])
def test_random_triples_are_the_validated_euler_triples(seed, count):
    # the check inputs built in integers are, in order, the triples that
    # Fraction operators and make_triple give for the same draws
    rng = random.Random(seed)
    want = []
    while len(want) < count:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        r = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        if a == 0:
            continue
        b = (r * r - 1) / a
        vals = (a, b, a + b + 2 * r)
        if 0 in vals or len(set(vals)) != 3:
            continue
        want.append(make_triple(*vals))
    assert verify._random_triples(count, seed) == want


def test_light_record_check_requires_equal_torsion(monkeypatch):
    # a computed group larger than the stored shape is a defect, not a pass
    real = verify.check_record("s4-rank5-a")
    assert real.passed and "equals (2, 4)" in real.detail
    big = torsion.TorsionSubgroup((), 16, (2, 8), 16, True)
    monkeypatch.setattr(verify, "torsion_subgroup", lambda E: big)
    assert not verify.check_record("s4-rank5-a").passed


def test_record_check_certifies_the_claimed_rank(monkeypatch):
    # the rank a stored-curve record must certify is read from the record:
    # every one passes at its claimed_rank and fails one above it
    records = [rec for rec in paper_dataset() if rec.curve is not None]
    assert records
    for rec in records:
        res = verify.check_record(rec.record_id, long=True)
        assert res.passed, res.detail
        assert f"rank >= {rec.claimed_rank} " in res.detail
        patched = rec._replace(claimed_rank=rec.claimed_rank + 1)
        monkeypatch.setattr(verify, "dataset_record",
                            lambda rid, patched=patched: patched)
        res = verify.check_record(rec.record_id, long=True)
        assert not res.passed
        assert f"expected == {rec.claimed_rank + 1}" in res.detail
        monkeypatch.undo()


def test_cli_import_leaves_dataset_unread():
    # verify resolves its record checks from the dataset when a scope runs,
    # never at import, so a cold start does not parse the record list
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", "import diocurves.cli, diocurves.families as f;"
         " print(f._DATASET is None)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("argv", [
    ["induce", "{1,3,8}"],
    ["sieve", "K_PLUSMINUS", "--numerators", "1:6", "--denominators", "1:2",
     "--keep", "1.0"],
], ids=["induce", "sieve"])
def test_unwritable_out_is_usage_error_before_any_work(tmp_path, monkeypatch,
                                                       capsys, argv):
    # the --out file is opened before the pipeline or the grid runs, and a
    # path that cannot be opened is the caller's mistake, not a bug
    work = []
    monkeypatch.setattr(cli, "_search_record",
                        lambda *a, **k: work.append("record"))
    monkeypatch.setattr(cli, "_triple_data",
                        lambda *a, **k: work.append("data"))
    monkeypatch.setattr(cli, "_int_rows",
                        lambda *a, **k: work.append("tables") or [])
    monkeypatch.setattr(cli, "_sums_from_data",
                        lambda *a, **k: work.append("grid") or [])
    out = tmp_path / "missing" / "f.jsonl"
    assert run([*argv, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write --out {out}: ")
    assert work == []


def test_dataset_unwritable_out_is_usage_error(tmp_path, capsys):
    assert run(["dataset", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "cannot write --out" in capsys.readouterr().err


@pytest.mark.parametrize("numerators, denominators", [
    ("5:1", "1:3"),
    ("1:5", "3:1"),
    ("1:5", "-3:-1"),
    ("1:5", "0:0"),
], ids=["numerators-reversed", "denominators-reversed",
        "denominators-negative", "denominators-zero"])
def test_sieve_range_without_a_value_is_usage_error(capsys, numerators,
                                                    denominators):
    assert run(["sieve", "K_PLUSMINUS", f"--numerators={numerators}",
                f"--denominators={denominators}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("bad range: ")


@pytest.mark.parametrize("denominators", ["0:2", "-2:2"])
def test_sieve_range_reaching_past_zero_keeps_its_output(tmp_path,
                                                         denominators):
    # a denominator range holding 0 or negatives still scores its positive
    # denominators only, byte for byte as before
    args = ["sieve", "K_PLUSMINUS", "--numerators", "0:6", "--keep", "1.0",
            "--N", "150"]
    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    assert run([*args, "--denominators", "1:2", "--out", str(want)]) \
        == EXIT_OK
    assert run([*args, f"--denominators={denominators}",
                "--out", str(got)]) == EXIT_OK
    assert got.read_bytes() == want.read_bytes()


def test_minimal_model_defect_is_an_internal_error(monkeypatch, capsys):
    # minimal_model raises only on an internal defect; the record must not
    # fall back to the cleared model and print curve_minimal: false
    from diocurves.errors import SingularCurve

    def broken(E):
        raise SingularCurve("minimal model construction lost the isomorphism")

    monkeypatch.setattr(cli, "minimal_model", broken)
    assert run(["induce", "{1,3,8}"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == "" and "curve_minimal" not in captured.err
    assert captured.err == ("internal error: SingularCurve: minimal model "
                            "construction lost the isomorphism\n")


@pytest.mark.parametrize("triple", ["{2/9,-72/25,-328/225}",
                                    "{-6/5,40/49,-24/245}"])
def test_induce_reduces_at_2_within_the_discriminant(capsys, triple):
    # at 2 the integral model's c4 and c6 allow the scale 2^3, but its
    # discriminant only 2^2; dividing by 2^3 anyway gave a pair whose
    # discriminant is not an integer, which no integral model has, and
    # so an internal error
    assert run(["induce", triple]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["kind"] == "search" and record["curve_minimal"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv, code, digest", [
    (["induce", "{1,3,8}"], EXIT_OK, INDUCE_SHA256),
    (README_SIEVE, EXIT_OK, README_SIEVE_SHA256),
    (["induce", "{1,3}"], EXIT_INVALID_INPUT, None),
    (["induce", "{1,3,8}", "--N", "0"], EXIT_USAGE, None),
    (["dataset", "nope"], EXIT_USAGE, None),
    (["induce", "{1,3,8}", "--bogus"], EXIT_USAGE, None),
], ids=["induce", "sieve", "invalid-triple", "bad-config", "unknown-record",
        "unknown-flag"])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, digest):
    # a message stderr cannot take is dropped: the exit code is still the
    # outcome's, never 1, which means a failed verification, and stdout
    # is untouched
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "diocurves.cli", *argv],
                              env=env, stdout=subprocess.PIPE, stderr=full,
                              timeout=120)
    assert proc.returncode == code
    if digest is None:
        assert proc.stdout == b""
    else:
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


# sha256 of `verify all --long` stdout with the ` (0.12s)` timing fields
# stripped, measured once `sieve-summand-forms` drew from every record
# that stores a curve
VERIFY_LONG_SHA256 = (
    "4e0422cd75e60ed7461b91757f06a82e3ed9ad94c0ae4f85897f07ceaa3ec253")


def test_verify_long_output_bytes_pinned():
    # every check's detail line, the 70/70 summary and the disclaimer are
    # part of the output contract; only the per-check seconds may move
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "diocurves.cli", "verify",
                           "all", "--long"], env=env, capture_output=True,
                          timeout=600)
    assert proc.returncode == EXIT_OK, proc.stderr
    stripped = re.sub(rb" \(\d+\.\d+s\)$", b"", proc.stdout, flags=re.M)
    assert stripped.count(b"\n") == 72
    assert hashlib.sha256(stripped).hexdigest() == VERIFY_LONG_SHA256
