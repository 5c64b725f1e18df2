import argparse
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import diocurves
import diocurves.cli as cli
from diocurves import torsion, verify
from diocurves.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    Config,
    _read_config_file,
    main,
)
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


@pytest.mark.parametrize("argv, digest", [
    (["{1,3,8}"],
     "ab9f0acbb47818bc24b0938fed32c45530bcfd0b2e2b442b9b603fb22143790e"),
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


def test_heights_run_without_mpmath():
    # the rank path computes no height: on the triples that used to need
    # heights, induce runs with mpmath, a test-only oracle, unimportable,
    # and never loads the height module
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    triple, digest = next(iter(HEIGHTS_PINS.items()))
    code = ("import sys; sys.modules['mpmath'] = None; "
            "import diocurves.cli as c; "
            f"code = c.main(['induce', {triple!r}]); "
            "sys.exit(code or 3 * ('diocurves.heights' in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


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


def test_sieve_bad_range():
    assert main(["sieve", "K_4K", "--numerators", "5",
                 "--denominators", "1:2"]) == EXIT_USAGE


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


@pytest.mark.parametrize("module", ["sympy", "numpy", "mpmath",
                                    "diocurves.heights", "multiprocessing",
                                    "concurrent.futures.process"])
def test_cli_import_leaves_module_unloaded(module):
    # numpy is loaded by the point-counting kernel alone, so the import and
    # `dataset` never pay for it; sympy and mpmath are test-only oracles,
    # the heights serve only a script and the tests, and the process pool
    # is loaded only where a command starts one
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    code = ("import sys, diocurves.cli as c; "
            f"c.main(['dataset', '--out', {os.devnull!r}]); "
            f"sys.exit({module!r} in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def test_internal_error_is_exit_70_without_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ArithmeticError("forced certification failure")

    monkeypatch.setattr(cli, "torsion_subgroup", broken)
    assert run(["induce", "{1,3,8}"]) == EXIT_SOFTWARE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ArithmeticError: "
                            "forced certification failure\n")


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


def test_light_record_check_requires_equal_torsion(monkeypatch):
    # a computed group larger than the stored shape is a defect, not a pass
    real = verify.check_record_light("s4-rank5-a")
    assert real.passed and "equals (2, 4)" in real.detail
    big = torsion.TorsionSubgroup((), 16, (2, 8), 16, True)
    monkeypatch.setattr(verify, "torsion_subgroup", lambda E: big)
    assert not verify.check_record_light("s4-rank5-a").passed
