"""Read span JSON lines and reduce them to per-layer metrics.

The schema is the one ``tracer.py`` writes: one ``span`` line per call
(``name``, ``start_ns``, ``end_ns``, ``id``, ``parent``, ``request``,
optional ``attrs`` and ``error``) and one ``check`` line per verify check.
Ids are unique within a request.  A span's self time is its duration minus
the time its child spans cover; calls within one request never overlap, so
that is the sum of the children's durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

# The slowest `verify all --long` checks at the commit that defined this
# benchmark, reported by id so a change can show which check it moved.
SLOW_CHECKS = ("z2z8-random-torsion", "record-s6-big-full",
               "doubling-identity", "sieve-reproducibility", "euler-doubling")


@dataclass
class Layer:
    calls: int = 0
    total_ns: int = 0       # outermost calls only, so recursion counts once
    self_ns: int = 0


@dataclass
class Trace:
    spans: list[dict] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)

    def extend(self, rows: Iterable[dict]) -> None:
        for row in rows:
            (self.spans if row["type"] == "span" else self.checks).append(row)


def read(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write(path, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in trace.spans + trace.checks:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def _ancestors(span: dict, by_id: dict) -> Iterable[dict]:
    parent = span["parent"]
    while parent is not None:
        span = by_id[span["request"], parent]
        yield span
        parent = span["parent"]


def layers(trace: Trace, by_id: dict) -> dict[str, Layer]:
    child_ns: dict[tuple, int] = defaultdict(int)
    for s in trace.spans:
        if s["parent"] is not None:
            child_ns[s["request"], s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict[str, Layer] = defaultdict(Layer)
    for s in trace.spans:
        layer = out[s["name"]]
        dur = s["end_ns"] - s["start_ns"]
        layer.calls += 1
        layer.self_ns += dur - child_ns[s["request"], s["id"]]
        if all(a["name"] != s["name"] for a in _ancestors(s, by_id)):
            layer.total_ns += dur
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    A layer the workload never reaches reads 0, and so does a ratio whose
    base is 0.
    """
    by_id = {(s["request"], s["id"]): s for s in trace.spans}
    lay = layers(trace, by_id)

    def calls(name):
        return float(lay[name].calls) if name in lay else 0.0

    def self_s(name):
        return lay[name].self_ns / 1e9 if name in lay else 0.0

    def total_s(name):
        return lay[name].total_ns / 1e9 if name in lay else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("families.paper_dataset", "sieve.count_points_fp",
                 "weierstrass.add", "weierstrass.minimal_model",
                 "torsion.halve_point", "descent.canonical_height",
                 "descent.naive_point_search", "factoring.factor_best_effort",
                 "triples.induced_curves", "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("sieve.mestre_nagao_sum", "torsion.torsion_subgroup",
                 "torsion.point_order", "descent.rank_lower_bound",
                 "descent.gram_certificate", "descent.independent_mod_two"):
        m[f"{name}.total_s"] = (total_s(name), "s")
    for name in ("sieve.count_points_fp", "weierstrass.add",
                 "torsion.torsion_subgroup", "descent.gram_certificate",
                 "descent.canonical_height", "factoring.factor_best_effort",
                 "triples.induced_curves"):
        m[f"{name}.calls"] = (calls(name), "count")

    sums = [s["attrs"] for s in trace.spans
            if s["name"] == "sieve.mestre_nagao_sum" and "attrs" in s]
    skipped = sum(a["primes_skipped"] for a in sums)
    m["sieve.primes_skipped_ratio"] = (
        _ratio(skipped, skipped + sum(a["primes_used"] for a in sums)),
        "ratio")

    tors = [s for s in trace.spans if s["name"] == "torsion.torsion_subgroup"
            and "attrs" in s]
    curves = {(s["request"], s["attrs"]["curve"]) for s in tors}
    m["torsion.calls_per_curve"] = (_ratio(len(tors), len(curves)), "ratio")

    grams = [s for s in trace.spans if s["name"] == "descent.gram_certificate"]
    wasted = 0
    for g in grams:
        owner = next((a for a in _ancestors(g, by_id)
                      if a["name"] == "descent.rank_lower_bound"), None)
        if owner is not None and owner.get("attrs", {}).get("method") \
                == "descent":
            wasted += 1
    m["descent.gram_wasted_ratio"] = (_ratio(wasted, len(grams)), "ratio")

    factors = [s for s in trace.spans
               if s["name"] == "factoring.factor_best_effort" and "attrs" in s]
    m["factoring.incomplete_ratio"] = (
        _ratio(sum(not s["attrs"]["complete"] for s in factors), len(factors)),
        "ratio")

    seconds = defaultdict(float)
    for c in trace.checks:
        seconds[c["id"]] += c["seconds"]
    for check in SLOW_CHECKS:
        m[f"verify.check.{check}_s"] = (seconds[check], "s")

    # time inside the traced processes, from the tracer's first line to the
    # end of the request, that neither the import, the wrapping nor a layer
    # covers
    m["trace.unattributed_s"] = (self_s("process"), "s")
    return m
