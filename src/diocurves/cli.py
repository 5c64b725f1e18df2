"""Command-line front end.

Four subcommands: ``induce`` runs the full pipeline on one triple,
``sieve`` scores a parameter grid of a family and fully processes the
best slice, ``verify`` re-derives the bundled record claims, and
``dataset`` dumps the bundled records.  Machine output is JSON Lines
with a version field and all rationals as strings; given the same
command and configuration the bytes are identical run to run, whatever
the worker count.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
64 usage error, 70 internal error (a bug, a failed internal check or a
worker process that died, reported on one line of stderr), 74 output
that could not be written (silent when the reader of stdout is gone).
A message that cannot be written to stderr is dropped; the exit code
stays the one of the outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from ._pool import ordered_map
from .descent import naive_point_search, rank_lower_bound
from .errors import (DatasetCorrupt, DegenerateParameter, DegenerateTriple,
                     NotDiophantine, OutputUnwritable, ParseError,
                     UnknownScope)
from .families import FAMILY_CONSTRUCTORS, dataset_record, paper_dataset
from .rationals import QQ, format_rational, parse_rational
from .sieve import (_int_rows, _sums_from_data, _triple_data,
                    mestre_nagao_sum)
from .torsion import torsion_subgroup
from .triples import (Triple, canonical_points, extend_to_quadruple,
                      induced_curves, make_triple)
from .verify import RANK_DISCLAIMER, run_scope
from .weierstrass import CurveQ, map_point, minimal_model

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IOERR = 74

JSONL_VERSION = 1

# naive point search tries about e^(1.5 * height_bound) x-coordinates
MAX_HEIGHT_BOUND = 8.0
# the sieve sum lists every prime up to N in memory; below 1000 it counts in
# one cached p-bit int per prime, and from 1000 on a lone curve (induce, a
# kept candidate) by baby-step giant-step, O(p^(1/4)) steps, and a grid batch
# in one p-bit int built per prime; the package itself never goes beyond
# 10**4
MAX_N = 10**6
# the sieve lists every reduced fraction of its numerators x denominators
# box in the parent and keeps a score for each valid one, whatever --jobs,
# so a larger box is refused
MAX_GRID_CELLS = 10**6
# the sieve scores its grid in pieces of at most this many parameters, so a
# process holds the integral data (ints, no curve) of one piece only.  With
# --jobs n the grid is cut into n equal pieces, or more where a piece would
# pass this size, so each worker builds each row past N = 1000 once
SIEVE_CHUNK = 4096
# --jobs forks up to this many worker processes
MAX_JOBS = 256


class Config(NamedTuple):
    """Pipeline knobs; every default is part of the output contract."""

    N: int = 1000                 # sieve sum depth
    keep: float = 0.01            # fraction of scored candidates kept
    height_bound: float = 5.0     # naive point search cutoff
    jobs: int = 1
    out: Optional[str] = None

    def validated(self) -> "Config":
        # chained comparisons are False on nan, so nan is rejected too
        if (not 0 < self.N <= MAX_N or not 0 < self.keep <= 1
                or not 0 <= self.height_bound <= MAX_HEIGHT_BOUND
                or not 0 < self.jobs <= MAX_JOBS):
            raise ValueError(
                "configuration values out of range: N must lie in "
                f"[1, {MAX_N}], keep in (0, 1], height_bound in "
                f"[0, {MAX_HEIGHT_BOUND}], and jobs in [1, {MAX_JOBS}]")
        return self


# config-file key -> parser of its value text, one per Config field; the
# flags and the key=value file use the same names
_CONFIG_KEYS = {name: str if default is None else type(default)
                for name, default in Config._field_defaults.items()}


def _say(message) -> None:
    """Print one message to stderr, best effort: a failed write is
    dropped, so the exit code stays the one the outcome has."""
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # argparse default exits with 2
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; help and usage on stdout fail as
        # the command's own output does, and stderr stays best effort
        if not message or file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            _emit([message.removesuffix("\n")], file)
        except _OutputLost as exc:
            if exc.args:
                _say(exc)
            raise SystemExit(EXIT_IOERR) from exc


def _read_config_file(path: str) -> dict:
    """Flat key=value file, # comments; the keys are the Config fields."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"line {lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    return values


def _build_config(args) -> Config:
    cfg = Config()
    path = getattr(args, "config", None)
    if path:
        raw = _read_config_file(path)
        cfg = cfg._replace(**{k: _CONFIG_KEYS[k](v) for k, v in raw.items()})
    overrides = {k: getattr(args, k) for k in _CONFIG_KEYS
                 if getattr(args, k, None) is not None}
    return cfg._replace(**overrides).validated()


# --------------------------------------------------------------------------
# Record construction
# --------------------------------------------------------------------------

def _parse_triple_text(text: str) -> Triple:
    inner = text.strip()
    if inner.startswith("{") and inner.endswith("}"):
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated rationals, "
                         f"got {len(parts)}")
    return make_triple(*(parse_rational(p) for p in parts))


def _point_json(P) -> list[str]:
    return [format_rational(P.x), format_rational(P.y)]


def _curve_json(E: CurveQ) -> list[str]:
    return [format_rational(a) for a in (E.a1, E.a2, E.a3, E.a4, E.a6)]


def _search_record(triple: Triple, cfg: Config,
                   family_id: Optional[str] = None,
                   parameters: Sequence[QQ] = ()) -> dict:
    """Run the whole pipeline on one triple and collect the outcome.

    The working model is the one `minimal_model` returns; `curve_minimal`
    is false exactly when gcd(c4, c6) of the curve's integral model did not
    factor, so a prime of it may still be removable.  `minimal_model`
    raises only on an internal defect, which is not caught here.  All
    emitted points live on the emitted curve.
    """
    ic = induced_curves(triple)
    cp = canonical_points(triple, ic)
    mm = minimal_model(ic.curve)
    E, to_E, minimal = mm.curve, mm.map, mm.complete

    stock = [map_point(ic.curve, to_E, P)
             for P in (cp.x_zero, cp.x_one, cp.half_x_one)]
    found = naive_point_search(E, cfg.height_bound)
    candidates = sorted(set(found) | set(stock), key=lambda P: (P.x, P.y))

    score = mestre_nagao_sum(E, cfg.N)
    tors = torsion_subgroup(E)
    rank = rank_lower_bound(E, candidates)

    return {
        "version": JSONL_VERSION,
        "kind": "search",
        "family": family_id,
        "parameters": [format_rational(p) for p in parameters],
        "triple": [format_rational(v) for v in triple.elements],
        "curve": _curve_json(E),
        "curve_minimal": minimal,
        "score": {"N": cfg.N, "value": score.value,
                  "primes_used": score.primes_used,
                  "primes_skipped": score.primes_skipped},
        "torsion": {"shape": list(tors.invariants), "order": tors.order,
                    "exact": tors.exact},
        "rank": {"lower_bound": rank.bound, "method": rank.method,
                 "certificate": list(rank.certificate_indices)},
        "points": [_point_json(P) for P in candidates],
    }


def _open_out(path: Optional[str]) -> contextlib.AbstractContextManager:
    """Where the JSON lines go: stdout, or the --out file.

    Callers open it before any work, so an unwritable path is refused
    (OutputUnwritable) before a record is computed."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OutputUnwritable(
            f"cannot write --out {path}: {exc.strerror or exc}") from exc


class _OutputLost(Exception):
    """A write of the output failed; its message, if any, is for stderr."""


def _emit(lines: Iterable[str], out: TextIO) -> None:
    """Write the lines to out and flush it; a failed write raises
    _OutputLost.  On stdout, fd 1 is first pointed at os.devnull, so the
    flush at exit cannot fail again, and a closed stdout is not reported.
    A --out file is closed, so its `with` block retries no flush."""
    try:
        for line in lines:
            out.write(line + "\n")
        out.flush()
    except OSError as exc:
        if out is not sys.stdout:
            with contextlib.suppress(OSError):
                out.close()
            raise _OutputLost(f"cannot write --out {out.name}: "
                              f"{exc.strerror or exc}") from exc
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise _OutputLost() from exc
        raise _OutputLost(f"cannot write stdout: {exc.strerror or exc}") \
            from exc


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_induce(triple_text: str, cfg: Config) -> int:
    try:
        triple = _parse_triple_text(triple_text)
    except (ParseError, NotDiophantine, DegenerateTriple) as exc:
        _say(f"invalid triple: {exc}")
        return EXIT_INVALID_INPUT
    with _open_out(cfg.out) as out:
        record = _search_record(triple, cfg)
        ext = extend_to_quadruple(triple)
        record["quadruple_extension"] = {
            "values": sorted(format_rational(v)
                             for v in (ext.plus_branch, ext.minus_branch)),
            "usable": [format_rational(v) for v in ext.usable()],
        }
        _emit([_dumps(record)], out)
    tors = record["torsion"]
    _say(f"triple {{{', '.join(record['triple'])}}}: "
         f"torsion {tuple(tors['shape'])}"
         f"{' exact' if tors['exact'] else ''}, "
         f"rank >= {record['rank']['lower_bound']} "
         f"({record['rank']['method']}), "
         f"score S({cfg.N}) = {record['score']['value']:.4f}")
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    """LO:HI as (lo, hi), with lo <= hi, so the range holds a value."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text!r}: LO exceeds HI")
    return lo, hi


def _grid(numerators: tuple[int, int],
          denominators: tuple[int, int]) -> list[QQ]:
    """Reduced fractions in the box, smallest max(|num|, den) first."""
    items = []
    for num in range(numerators[0], numerators[1] + 1):
        for den in range(denominators[0], denominators[1] + 1):
            if den == 0:
                continue
            # only the reduced (num, den) of a fraction is kept, so none
            # occurs twice
            q = QQ(num, den)
            if (q.numerator, q.denominator) == (num, den):
                items.append(q)
    items.sort(key=lambda q: (max(abs(q.numerator), q.denominator),
                              q.numerator, q.denominator))
    return items


def _score_piece(family_id: str, piece: Sequence[QQ], N: int) \
        -> tuple[list[str], list[tuple[float, QQ]]]:
    """The skip lines of a piece of the grid, and (score, q) for each valid
    parameter q, both in grid order.  A valid parameter is scored from its
    triple's integral data; no curve is built for it here."""
    ctor = FAMILY_CONSTRUCTORS[family_id]
    lines: list[str] = []
    params: list[QQ] = []
    data: list[tuple] = []
    for q in piece:
        try:
            triple = ctor(q)
        except (DegenerateParameter, NotDiophantine, DegenerateTriple) as exc:
            lines.append(_dumps({
                "version": JSONL_VERSION, "kind": "skip",
                "family": family_id, "parameters": [format_rational(q)],
                "error": type(exc).__name__, "message": str(exc)}))
            continue
        params.append(q)
        data.append(_triple_data(triple))
    return lines, [(score.value, q) for score, q
                   in zip(_sums_from_data(data, N), params)]


def cmd_sieve(family_id: str, numerators: tuple[int, int],
              denominators: tuple[int, int], cfg: Config) -> int:
    with _open_out(cfg.out) as out:
        grid = _grid(numerators, denominators)
        size = max(1, min(SIEVE_CHUNK, math.ceil(len(grid) / cfg.jobs)))
        pieces = [grid[lo:lo + size] for lo in range(0, len(grid), size)]
        # the scoring loop's per-prime tables, built before any fork, so
        # every worker inherits them warm
        _int_rows(cfg.N)
        lines: list[str] = []
        scored: list[tuple[float, QQ]] = []
        for piece_lines, piece_scored in ordered_map(
                lambda piece: _score_piece(family_id, piece, cfg.N),
                pieces, cfg.jobs):
            lines.extend(piece_lines)
            scored.extend(piece_scored)

        kept_n = min(len(scored),
                     max(1, math.ceil(cfg.keep * len(scored)))) \
            if scored else 0
        # scored is in grid order and the sort is stable, so equal scores
        # keep the grid's smallest-parameter-first order
        scored.sort(key=lambda sq: -sq[0])
        kept = [q for _, q in scored[:kept_n]]

        ctor = FAMILY_CONSTRUCTORS[family_id]
        lines.extend(ordered_map(
            lambda q: _dumps(_search_record(ctor(q), cfg, family_id=family_id,
                                            parameters=(q,))),
            kept, cfg.jobs))

        _emit(lines, out)
        _say(f"{family_id}: scored {len(scored)} parameters, "
             f"kept {kept_n}, skipped {len(lines) - kept_n} invalid "
             "(degenerate or not Diophantine)")
        return EXIT_OK


def cmd_verify(scope: str, long: bool,
               stream: Optional[TextIO] = None) -> int:
    stream = sys.stdout if stream is None else stream
    scope = scope.replace("§", "s")
    results = run_scope(scope, long=long,
                        sink=lambda r: _emit([r.line()], stream))
    passed = sum(r.passed for r in results)
    _emit([f"{passed}/{len(results)} checks passed, scope {scope}"
           f"{' (long)' if long else ''}", RANK_DISCLAIMER], stream)
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


def _record_json(rec, full: bool) -> dict:
    obj = {
        "version": JSONL_VERSION,
        "kind": "record",
        "id": rec.record_id,
        "section": rec.section,
        "torsion_shape": list(rec.torsion_shape),
        "claimed_rank": rec.claimed_rank,
        "family": None if rec.family is None else {
            "id": rec.family.family_id,
            "parameters": [format_rational(p)
                           for p in rec.family.parameters]},
        "triple": [format_rational(v) for v in rec.triple.elements],
        "has_curve": rec.curve is not None,
        "torsion_point_count": len(rec.torsion_points),
        "point_count": len(rec.points),
        "notes": rec.notes,
    }
    if full:
        if rec.curve is not None:
            obj["curve"] = _curve_json(rec.curve)
            obj["torsion_points"] = [_point_json(P)
                                     for P in rec.torsion_points]
            obj["points"] = [_point_json(P) for P in rec.points]
        if rec.printed_triple is not None:
            obj["printed_triple"] = [format_rational(v)
                                     for v in rec.printed_triple]
            obj["printed_triple_valid"] = rec.printed_triple_valid
    return obj


def cmd_dataset(record_id: Optional[str], cfg: Config) -> int:
    if record_id is None:
        with _open_out(cfg.out) as out:
            _emit([_dumps(_record_json(rec, full=False))
                   for rec in paper_dataset()], out)
        return EXIT_OK
    try:
        rec = dataset_record(record_id.replace("§", "s"))
    except KeyError:
        _say(f"unknown record id: {record_id}")
        return EXIT_USAGE
    with _open_out(cfg.out) as out:
        _emit([_dumps(_record_json(rec, full=True))], out)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_FLAG_HELP = {
    "N": "sieve sum depth (default 1000)",
    "keep": "kept fraction of scored candidates (default 0.01)",
    "height_bound": "naive point search cutoff",
    "jobs": f"worker processes (default 1, at most {MAX_JOBS})",
    "out": "write JSON lines here instead of stdout",
}
# the Config fields each subcommand reads; it offers exactly these flags
_INDUCE_FLAGS = ("N", "height_bound", "out")
_SIEVE_FLAGS = _INDUCE_FLAGS + ("keep", "jobs")
_DATASET_FLAGS = ("out",)


def _add_flags(sub: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), dest=name,
                         type=_CONFIG_KEYS[name], default=None,
                         help=_FLAG_HELP[name])
    sub.add_argument("--config", default=None,
                     help="key=value file keyed by the flag names of any "
                          "subcommand; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diocurves",
                     description="Elliptic curves induced by rational "
                                 "Diophantine triples: construction, "
                                 "sieving and record verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_induce = subs.add_parser("induce", help="full pipeline on one triple")
    p_induce.add_argument("triple", help='e.g. "{1,3,8}" or "1,3,8"')
    _add_flags(p_induce, _INDUCE_FLAGS)

    p_sieve = subs.add_parser("sieve", help="score a family parameter grid")
    # the grid is one-dimensional, so only one-parameter families sieve
    p_sieve.add_argument("family", choices=sorted(
        family for family, ctor in FAMILY_CONSTRUCTORS.items()
        if ctor.__code__.co_argcount == 1))
    p_sieve.add_argument("--numerators", required=True,
                         help="numerator range LO:HI")
    p_sieve.add_argument("--denominators", required=True,
                         help="denominator range LO:HI")
    _add_flags(p_sieve, _SIEVE_FLAGS)

    p_verify = subs.add_parser("verify", help="re-derive record claims")
    p_verify.add_argument("scope", nargs="?", default="all",
                          help="all, a section tag s1..s6, or a record id")
    p_verify.add_argument("--long", action="store_true",
                          help="include the slowest certifications")

    p_dataset = subs.add_parser("dataset", help="dump the bundled records")
    p_dataset.add_argument("record_id", nargs="?", default=None)
    _add_flags(p_dataset, _DATASET_FLAGS)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # verify takes no configuration
        cfg = None if args.command == "verify" else _build_config(args)
    except (ValueError, TypeError) as exc:
        _say(f"bad configuration: {exc}")
        return EXIT_USAGE

    try:
        if args.command == "induce":
            return cmd_induce(args.triple, cfg)
        if args.command == "sieve":
            try:
                nums = _parse_range(args.numerators)
                dens = _parse_range(args.denominators)
                if dens[1] < 1:
                    raise ValueError(f"denominator range "
                                     f"{args.denominators!r} holds no "
                                     "positive integer")
                cells = (nums[1] - nums[0] + 1) * (dens[1] - dens[0] + 1)
                if cells > MAX_GRID_CELLS:
                    raise ValueError(f"the grid has {cells} cells, more "
                                     f"than {MAX_GRID_CELLS}")
            except ValueError as exc:
                _say(f"bad range: {exc}")
                return EXIT_USAGE
            return cmd_sieve(args.family, nums, dens, cfg)
        if args.command == "verify":
            try:
                return cmd_verify(args.scope, args.long)
            except UnknownScope:
                _say(f"unknown scope: {args.scope}")
                return EXIT_USAGE
        if args.command == "dataset":
            return cmd_dataset(args.record_id, cfg)
    except OutputUnwritable as exc:
        _say(exc)
        return EXIT_USAGE
    except _OutputLost as exc:
        if exc.args:
            _say(exc)
        return EXIT_IOERR
    except DatasetCorrupt as exc:
        _say(f"dataset corrupt: {exc}")
        return EXIT_VERIFY_FAILED
    except Exception as exc:
        # every invalid input is refused where it is parsed, so a library
        # error that gets this far is a defect too
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_SOFTWARE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
