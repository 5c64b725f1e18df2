"""Command-line front end.

Four subcommands: ``induce`` runs the full pipeline on one triple,
``sieve`` scores a parameter grid of a family and fully processes the
best slice, ``verify`` re-derives the bundled record claims, and
``dataset`` dumps the bundled records.  Machine output is JSON Lines
with a version field and all rationals as strings; given the same
command and configuration the bytes are identical run to run, whatever
the worker count.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
64 usage error, 70 internal error (a bug or a failed internal check,
reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence, TextIO

from ._pool import ordered_map
from .descent import naive_point_search, rank_lower_bound
from .errors import (DatasetCorrupt, DegenerateParameter, DegenerateTriple,
                     DiocurvesError, NotDiophantine, ParseError, UnknownScope)
from .families import (FAMILY_CONSTRUCTORS, dataset_record, paper_dataset,
                       make_family_member)
from .rationals import QQ, format_rational, parse_rational
from .sieve import mestre_nagao_sum, mestre_nagao_sums
from .torsion import torsion_subgroup
from .triples import (Triple, canonical_points, extend_to_quadruple,
                      induced_curves, make_triple)
from .verify import RANK_DISCLAIMER, run_scope
from .weierstrass import CurveQ, clear_denominators, map_point, minimal_model

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

JSONL_VERSION = 1

# naive point search tries about e^(1.5 * height_bound) x-coordinates
MAX_HEIGHT_BOUND = 8.0
# the sieve sum lists every prime up to N in memory, and counts each with
# arrays of p entries; the package itself never goes beyond 10**4
MAX_N = 10**6


@dataclass(frozen=True)
class Config:
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
                or self.jobs <= 0):
            raise ValueError(
                "configuration values out of range: N must lie in "
                f"[1, {MAX_N}], keep in (0, 1], height_bound in "
                f"[0, {MAX_HEIGHT_BOUND}], and the integers be positive")
        return self


# config-file key -> parser of its value text, one per Config field; the
# flags and the key=value file use the same names
_CONFIG_KEYS = {f.name: str if f.default is None else type(f.default)
                for f in fields(Config)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # argparse default exits with 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
        cfg = replace(cfg, **{k: _CONFIG_KEYS[k](v) for k, v in raw.items()})
    overrides = {k: getattr(args, k) for k in _CONFIG_KEYS
                 if getattr(args, k, None) is not None}
    return replace(cfg, **overrides).validated()


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
                   parameters: Sequence[QQ] = (),
                   with_extension: bool = False) -> dict:
    """Run the whole pipeline on one triple and collect the outcome.

    The working model is the minimal model, or the cleared-denominator
    companion curve when `minimal_model` fails; all emitted points live on
    the emitted curve.
    """
    ic = induced_curves(triple)
    cp = canonical_points(triple, ic)
    try:
        mm = minimal_model(ic.curve)
        E, to_E, minimal = mm.curve, mm.map, mm.complete
    except DiocurvesError:
        E, to_E = clear_denominators(ic.curve)
        minimal = False

    stock = [map_point(ic.curve, to_E, P)
             for P in (cp.x_zero, cp.x_one, cp.half_x_one)]
    found = naive_point_search(E, cfg.height_bound)
    candidates = sorted(set(found) | set(stock), key=lambda P: (P.x, P.y))

    score = mestre_nagao_sum(E, cfg.N)
    tors = torsion_subgroup(E)
    rank = rank_lower_bound(E, candidates)

    record = {
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
    if with_extension:
        ext = extend_to_quadruple(triple)
        record["quadruple_extension"] = {
            "values": sorted(format_rational(v)
                             for v in (ext.plus_branch, ext.minus_branch)),
            "usable": [format_rational(v) for v in ext.usable()],
        }
    return record


def _emit(lines: Iterable[str], out_path: Optional[str]) -> None:
    if out_path is None:
        for line in lines:
            print(line)
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_induce(triple_text: str, cfg: Config) -> int:
    try:
        triple = _parse_triple_text(triple_text)
    except (ParseError, NotDiophantine, DegenerateTriple) as exc:
        print(f"invalid triple: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    record = _search_record(triple, cfg, with_extension=True)
    _emit([_dumps(record)], cfg.out)
    tors = record["torsion"]
    print(f"triple {{{', '.join(record['triple'])}}}: "
          f"torsion {tuple(tors['shape'])}"
          f"{' exact' if tors['exact'] else ''}, "
          f"rank >= {record['rank']['lower_bound']} "
          f"({record['rank']['method']}), "
          f"score S({cfg.N}) = {record['score']['value']:.4f}",
          file=sys.stderr)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return int(lo), int(hi)


def _grid(numerators: tuple[int, int],
          denominators: tuple[int, int]) -> list[QQ]:
    """Reduced fractions in the box, smallest max(|num|, den) first."""
    seen = set()
    items = []
    for num in range(numerators[0], numerators[1] + 1):
        for den in range(denominators[0], denominators[1] + 1):
            if den == 0:
                continue
            q = QQ(num, den)
            if (q.numerator, q.denominator) != (num, den) or q in seen:
                continue
            seen.add(q)
            items.append(q)
    items.sort(key=lambda q: (max(abs(q.numerator), q.denominator),
                              q.numerator, q.denominator))
    return items


def _sieve_worker(payload) -> str:
    family_id, params, cfg = payload
    member = make_family_member(family_id, *params)
    record = _search_record(member.triple, cfg, family_id=family_id,
                            parameters=member.parameters)
    return _dumps(record)


def cmd_sieve(family_id: str, numerators: tuple[int, int],
              denominators: tuple[int, int], cfg: Config) -> int:
    ctor = FAMILY_CONSTRUCTORS[family_id]
    lines: list[str] = []
    grid: list[QQ] = []
    curves: list[CurveQ] = []
    for q in _grid(numerators, denominators):
        try:
            triple = ctor(q)
        except (DegenerateParameter, NotDiophantine, DegenerateTriple) as exc:
            lines.append(_dumps({
                "version": JSONL_VERSION, "kind": "skip",
                "family": family_id,
                "parameters": [format_rational(q)],
                "error": type(exc).__name__, "message": str(exc)}))
            continue
        grid.append(q)
        curves.append(clear_denominators(induced_curves(triple).curve)[0])
    scored = [(score.value, q) for score, q
              in zip(mestre_nagao_sums(curves, cfg.N), grid)]

    kept_n = min(len(scored), max(1, math.ceil(cfg.keep * len(scored)))) \
        if scored else 0
    scored.sort(key=lambda sq: (-sq[0], max(abs(sq[1].numerator),
                                            sq[1].denominator),
                                sq[1].numerator, sq[1].denominator))
    kept = [q for _, q in scored[:kept_n]]

    payloads = [(family_id, (format_rational(q),), cfg) for q in kept]
    lines.extend(ordered_map(_sieve_worker, payloads, cfg.jobs))

    _emit(lines, cfg.out)
    print(f"{family_id}: scored {len(scored)} parameters, kept {kept_n}, "
          f"skipped {len(lines) - kept_n} degenerate", file=sys.stderr)
    return EXIT_OK


def cmd_verify(scope: str, long: bool,
               stream: Optional[TextIO] = None) -> int:
    stream = sys.stdout if stream is None else stream
    scope = scope.replace("§", "s")
    results = run_scope(scope, long=long,
                        sink=lambda r: print(r.line(),
                                             file=stream, flush=True))
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed, scope {scope}"
          f"{' (long)' if long else ''}", file=stream)
    print(RANK_DISCLAIMER, file=stream)
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
        _emit([_dumps(_record_json(rec, full=False))
               for rec in paper_dataset()], cfg.out)
        return EXIT_OK
    try:
        rec = dataset_record(record_id.replace("§", "s"))
    except KeyError:
        print(f"unknown record id: {record_id}", file=sys.stderr)
        return EXIT_USAGE
    _emit([_dumps(_record_json(rec, full=True))], cfg.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_FLAG_HELP = {
    "N": "sieve sum depth (default 1000)",
    "keep": "kept fraction of scored candidates (default 0.01)",
    "height_bound": "naive point search cutoff",
    "jobs": "worker processes",
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
        if len(inspect.signature(ctor).parameters) == 1))
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
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "induce":
            return cmd_induce(args.triple, cfg)
        if args.command == "sieve":
            try:
                nums = _parse_range(args.numerators)
                dens = _parse_range(args.denominators)
            except ValueError as exc:
                print(f"bad range: {exc}", file=sys.stderr)
                return EXIT_USAGE
            return cmd_sieve(args.family, nums, dens, cfg)
        if args.command == "verify":
            try:
                return cmd_verify(args.scope, args.long)
            except UnknownScope:
                print(f"unknown scope: {args.scope}", file=sys.stderr)
                return EXIT_USAGE
        if args.command == "dataset":
            return cmd_dataset(args.record_id, cfg)
    except DatasetCorrupt as exc:
        print(f"dataset corrupt: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except DiocurvesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
