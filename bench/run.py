#!/usr/bin/env python3
"""The diocurves benchmark: the CLI as a user runs it, end to end and by layer.

    python3 bench/run.py --workload cli-cold --seed 0 --seconds 30 --trace 0

One closed-loop client runs the workload's commands, each in a fresh
interpreter on this checkout's ``src``, and checks every output.  With
``--trace 0`` it reports the end-to-end metrics, measured untraced; with
``--trace 1`` it runs each traced request in a fresh process under
``tracer.py`` and reports the per-layer metrics.  Metric lines go to stdout,
problems to stderr, and the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
from statistics import median
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

# A whole run must end within 180 s; children still running then are killed.
RUN_BUDGET_S = 170.0
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3

# What the installed `diocurves` console script runs.
CLI_ENTRY = "import sys; from diocurves.cli import main; sys.exit(main())"
INFO = """
import json, sys
import diocurves.cli, diocurves, numpy, sympy, mpmath
print(json.dumps({"diocurves": diocurves.__file__,
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "sympy": sympy.__version__,
                  "mpmath": mpmath.__version__}))
"""


class SetupError(Exception):
    pass


@dataclass
class Outcome:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float


class Client:
    """Runs child interpreters one at a time against the checkout's code."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(self, args: list[str]) -> Outcome:
        out_path, err_path = RUNS / "stdout", RUNS / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(
                max(0.0, self.deadline - time.monotonic()),
                os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(seconds, proc.returncode, out.read(), err.read(),
                           usage.ru_maxrss / 1024)

    def cli(self, argv) -> Outcome:
        return self.run(["-c", CLI_ENTRY, *argv])


class Tally:
    """Operations attempted and failed; every failure is also reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def judge(self, cmd: workloads.Command, got: Outcome,
              problems: list[str] | None = None) -> None:
        problems = list(problems or [])
        if got.returncode != 0:
            problems.append(f"exit code {got.returncode}")
        if b"Traceback (most recent call last)" in got.stderr:
            problems.append("traceback on stderr")
        problems += cmd.validate(got.stdout)
        if cmd.sha256 and workloads.sha256(got.stdout) != cmd.sha256:
            problems.append("stdout sha256 differs from the pinned reference")
        self.attempted += cmd.ops
        if problems:
            self.failed += cmd.ops
            print(f"FAILED {cmd.label}: {'; '.join(problems)}",
                  file=sys.stderr)


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported instead and labelled as such.
    """
    if len(values) >= 11:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in range(99, 49, -1):
            if sum(v > cuts[q - 1] for v in values) >= 10:
                return cuts[q - 1], f"p{q}"
    return max(values), "max"


def checkout_info(client: Client) -> dict:
    """Compile the checkout's bytecode and import it once, untimed.

    `__pycache__` is not committed, and a user compiles it only once.
    """
    client.run(["-m", "compileall", "-q", str(SRC)])
    got = client.run(["-c", INFO])
    if got.returncode != 0:
        raise SetupError("cannot import diocurves.cli:\n"
                         + got.stderr.decode(errors="replace"))
    info = json.loads(got.stdout)
    resolved = Path(info["diocurves"]).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SetupError(f"diocurves resolves to {resolved}, outside the "
                         f"checkout {ROOT}")
    info["git_sha"] = git_sha()
    info["nproc"] = os.cpu_count()
    return info


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def setup_seconds(client: Client) -> list[float]:
    samples = []
    for _ in range(SETUP_IMPORTS):
        got = client.run(["-c", "import diocurves.cli"])
        if got.returncode != 0:
            raise SetupError("import diocurves.cli failed")
        samples.append(got.seconds)
    return samples


def run_pass(client: Client, commands, tally: Tally) -> list[Outcome]:
    outcomes = []
    for cmd in commands:
        got = client.cli(cmd.argv)
        problems = []
        if cmd.same_as is not None and \
                got.stdout != outcomes[cmd.same_as].stdout:
            problems.append(f"stdout differs from "
                            f"{commands[cmd.same_as].label}")
        tally.judge(cmd, got, problems)
        outcomes.append(got)
    return outcomes


def end_to_end(client: Client, workload: str, commands, size: dict,
               seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over whole passes until the next would overrun --seconds."""
    setup = setup_seconds(client)
    passes: list[list[Outcome]] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(client, commands, tally))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + median(walls) > seconds:
            break
    latencies = [o.seconds for p in passes for o in p]
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": (median(setup), "s",
                    f"median of {len(setup)} fresh imports"),
        "peak_rss_mb": (max(o.maxrss_mb for p in passes for o in p), "MB",
                        "largest child peak RSS, workers included"),
        "latency_p50_s": (median(latencies), "s",
                          f"p50 of {len(latencies)} requests"),
        "latency_tail_s": (tail_value, "s",
                           f"{tail_label} of {len(latencies)} requests"),
        "wall_s": (median(walls), "s", f"median of {len(walls)} passes"),
    }
    details = {"error_rate": (tally.failed / tally.attempted, "ratio",
                              f"{tally.failed} of {tally.attempted} "
                              "operations")}
    if workload == "sieve-grid":
        for i, name in enumerate(("params_per_s", "params_per_s_jobs2")):
            rates = [size["grid_parameters"] / p[i].seconds for p in passes]
            details[name] = (median(rates), "1/s",
                             f"{size['grid_parameters']} grid parameters, "
                             f"median of {len(rates)}")
    return metrics, details


_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$")
IMPORTS = {"import.diocurves_cli_s": "diocurves.cli",
           "import.sympy_s": "sympy", "import.numpy_s": "numpy",
           "import.mpmath_s": "mpmath"}


def import_breakdown(client: Client) -> dict[str, float]:
    """Cumulative import seconds from -X importtime, median of a few runs.

    Each module is listed once, when first imported, with the time of its
    own nested imports included; `diocurves.cli` is the whole statement.
    """
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        got = client.run(["-X", "importtime", "-c", "import diocurves.cli"])
        cumulative = {m[2]: int(m[1]) / 1e6
                      for m in map(_IMPORTTIME.match,
                                   got.stderr.decode().splitlines()) if m}
        runs.append({k: cumulative.get(mod, 0.0)
                     for k, mod in IMPORTS.items()})
    return {k: median([r[k] for r in runs]) for k in IMPORTS}


def traced(client: Client, workload: str, commands, tally: Tally) -> dict:
    """Each request untraced, then traced in a fresh process; stdouts match.

    On sieve-grid only the serial command is traced: the tracer sees one
    process, and `--jobs 2` would put the work in workers.
    """
    if workload == "sieve-grid":
        commands = [c for c in commands if c.same_as is None]
    trace = spans.Trace()
    untraced_s = traced_s = 0.0
    path = RUNS / "request.spans.jsonl"
    for request, cmd in enumerate(commands):
        path.unlink(missing_ok=True)
        plain = client.cli(cmd.argv)
        tally.judge(cmd, plain)
        got = client.run([str(BENCH / "tracer.py"), str(path), str(request),
                          "--", *cmd.argv])
        differs = workloads.normalized(got.stdout) != \
            workloads.normalized(plain.stdout)
        tally.judge(cmd, got, ["traced stdout differs from untraced"]
                    if differs else [])
        untraced_s += plain.seconds
        traced_s += got.seconds
        if path.exists():
            trace.extend(spans.read(path))
            path.unlink()
    spans.write(RUNS / f"{workload}.spans.jsonl", trace)
    metrics = {name: (value, unit, "") for name, (value, unit)
               in spans.per_layer_metrics(trace).items()}
    for name, value in import_breakdown(client).items():
        metrics[name] = (value, "s", "-X importtime, cumulative")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s",
                                   f"traced {traced_s:.2f} s - untraced "
                                   f"{untraced_s:.2f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    client = Client(deadline=time.monotonic() + RUN_BUDGET_S)
    try:
        if not (SRC / "diocurves" / "cli.py").is_file():
            raise SetupError(f"no diocurves package under {SRC}")
        RUNS.mkdir(exist_ok=True)
        info = checkout_info(client)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    commands, size = workloads.make(args.workload, args.seed)
    print("checkout " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          + json.dumps(size, sort_keys=True))

    tally = Tally()
    try:
        if args.trace:
            metrics = traced(client, args.workload, commands, tally)
            details = {}
        else:
            metrics, details = end_to_end(client, args.workload, commands,
                                          size, args.seconds, tally)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit, note) in {**metrics, **details}.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
