"""Run one diocurves CLI request in this process with every layer traced.

    python bench/tracer.py SPANS_FILE REQUEST_ID -- CLI_ARGS...

The public functions of each traced module are wrapped from outside the
program, and each wrapper is rebound under every name any ``diocurves``
module holds for the original, so calls between modules are caught too
(``torsion.count_points_fp``, ``descent.point_order``, the ``add`` inside
``scalar_mul``).  Then ``diocurves.cli.main`` runs on the arguments, with
stdout untouched.  Spans stay in memory and are written to SPANS_FILE as
JSON lines when the request ends; ``spans.py`` reads them.

Each span line holds ``name``, ``start_ns``, ``end_ns``, ``id``, ``parent``
(an id or null) and ``request``, plus ``attrs`` for the few layers whose
result says how the work went, and ``error`` when the call raised.  A
``check`` line records each verify CheckResult as ``run_scope`` hands it to
its sink.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

TRACED_MODULES = ("cli", "families", "triples", "weierstrass", "sieve",
                  "torsion", "descent", "factoring", "verify")


def _result_attrs(name, args, kwargs, result):
    """Outcome fields some layer ratios need; None for every other span."""
    if name == "descent.rank_lower_bound":
        return {"method": result.method}
    if name == "factoring.factor_best_effort":
        return {"complete": result.cofactor == 1}
    if name == "sieve.mestre_nagao_sum":
        return {"primes_used": result.primes_used,
                "primes_skipped": result.primes_skipped}
    if name == "torsion.torsion_subgroup":
        return {"curve": hash(args[0] if args else kwargs["E"])}
    return None


class Tracer:
    def __init__(self, request: int):
        self.request = request
        # [name, start, end, parent, attrs, error]
        self.spans: list[list] = []
        self.checks: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent,
                           None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, attrs=None, error=None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        span[4], span[5] = attrs, error
        self._stack.pop()

    def wrap(self, name: str, fn):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(sid, error=type(exc).__name__)
                raise
            close(sid, _result_attrs(name, args, kwargs, result))
            return result
        return traced

    def install(self, package: str = "diocurves") -> None:
        """Wrap the public functions of TRACED_MODULES where they are bound."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        self._record_checks(sys.modules[f"{package}.verify"])

    def _record_checks(self, verify) -> None:
        run_scope = verify.run_scope
        checks = self.checks

        @functools.wraps(run_scope)
        def recording(scope, long=False, sink=None):
            def record(res):
                checks.append({"id": res.check_id, "seconds": res.seconds,
                               "passed": res.passed})
                if sink is not None:
                    sink(res)
            return run_scope(scope, long=long, sink=record)
        for mod_name, mod in sys.modules.items():
            if mod_name.startswith(verify.__package__) and \
                    getattr(mod, "run_scope", None) is run_scope:
                mod.run_scope = recording

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attrs, error) in \
                    enumerate(self.spans):
                row = {"type": "span", "request": self.request, "id": sid,
                       "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end}
                if attrs is not None:
                    row["attrs"] = attrs
                if error is not None:
                    row["error"] = error
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            for check in self.checks:
                fh.write(json.dumps({"type": "check",
                                     "request": self.request, **check}) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    path, request, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(request)
    process = tracer.open("process")
    tracer.spans[process][1] = _PROCESS_START

    sid = tracer.open("import.diocurves.cli")
    import diocurves.cli
    tracer.close(sid)
    sid = tracer.open("trace.install")
    tracer.install()
    tracer.close(sid)

    code = 1
    try:
        code = diocurves.cli.main(cli_args)
    except SystemExit as exc:       # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.close(process)
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
