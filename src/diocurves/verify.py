"""Reproduction checks for the bundled record dataset.

Each check re-derives one published claim from scratch: algebraic
identities are tested on randomized inputs, record curves are rebuilt
from their triples and matched against the stored minimal models, stored
points are re-verified, torsion subgroups are recomputed exactly, and
rank lower bounds are re-certified from the stored generator points.

Checks are grouped by dataset section (s1..s6 plus individual record
ids) so the command-line ``verify`` subcommand can run any slice; the
test suite runs them all.  Every check returns a CheckResult and never
raises on a mere claim failure, only on internal errors.

The checks share no state, so ``run_scope`` runs them on a pool of one
process per available CPU, and hands the results on in the fixed check
order.  A check's seconds are its own wall time in the process that ran
it, timed with the monotonic ``time.perf_counter``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ._pool import available_cpus, ordered_map
from .descent import rank_lower_bound
from .errors import (BadReduction, DegenerateParameter, DegenerateTriple,
                     NotDiophantine, UnknownScope)
from .families import (F_uv, dataset_record, family_k, paper_dataset,
                       z2z6_triple, z2z8_family, K_PLUSMINUS, K_4K)
from .rationals import QQ, is_perfect_square
from .sieve import count_points_fp, mestre_nagao_sum, primes_upto, summand_forms
from .torsion import torsion_subgroup
from .triples import (Triple, canonical_points, extend_to_quadruple,
                      induced_curves, make_triple)
from .weierstrass import (PointQ, dbl, find_isomorphism, is_on_curve, neg,
                          scalar_mul)

# what a family constructor or make_triple raises on a bad parameter
_INVALID_TRIPLE = (DegenerateParameter, DegenerateTriple, NotDiophantine)

RANK_DISCLAIMER = (
    "Rank values above are certified lower bounds only.  The published "
    "exact ranks relied on external descent software; equality beyond "
    "the certified bound is not re-established here.  Torsion subgroups "
    "are computed exactly.")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    section: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} [{self.section}] {self.check_id}: "
                f"{self.detail} ({self.seconds:.2f}s)")


def _result(check_id: str, section: str, t0: float, passed: bool,
            detail: str) -> CheckResult:
    return CheckResult(check_id, section, passed, detail,
                       time.perf_counter() - t0)


def _random_triples(count: int, seed: int) -> list[Triple]:
    """Random valid triples with small parameters, Euler-style.

    Pick a and a root r at random; b = (r^2 - 1)/a makes ab + 1 = r^2,
    and c = a + b + 2r completes a valid triple in closed form.
    """
    rng = random.Random(seed)
    out: list[Triple] = []
    while len(out) < count:
        a = QQ(rng.randint(-9, 9), rng.randint(1, 9))
        r = QQ(rng.randint(0, 9), rng.randint(1, 9))
        if a == 0:
            continue
        b = (r * r - 1) / a
        c = a + b + 2 * r
        vals = (a, b, c)
        if 0 in vals or len(set(vals)) != 3:
            continue
        try:
            out.append(make_triple(*vals))
        except _INVALID_TRIPLE:
            continue
    return out


def check_doubling_identity(count: int = 1000, seed: int = 101) -> CheckResult:
    """dbl(half_x_one) == x_one on the companion curve, randomized."""
    t0 = time.perf_counter()
    triples = _random_triples(count - 200, seed)
    rng = random.Random(seed + 1)
    while len(triples) < count:
        k = QQ(rng.randint(2, 60), rng.randint(1, 9))
        try:
            triples.append(family_k(rng.choice([K_PLUSMINUS, K_4K]), k))
        except _INVALID_TRIPLE:
            continue
    bad = 0
    for t in triples:
        try:
            canonical_points(t)     # checks dbl(half_x_one) == x_one
        except ArithmeticError:
            bad += 1
    return _result("doubling-identity", "s1", t0, bad == 0,
                   f"dbl(half) == [1, rst] on {len(triples)} random "
                   f"triples, {bad} failures")


def check_euler_doubling(count: int = 500, seed: int = 202) -> CheckResult:
    """2 * [0, abc] == -2R on sum-extended triples {a, b, a+b+2r}.

    R is the half point built from the sign-coherent roots (r, a+r, b+r);
    flipping one root's sign would translate R by a two-torsion point and
    negate the relation, so the canonical all-nonnegative convention is
    deliberately not used here.
    """
    t0 = time.perf_counter()
    bad = 0
    triples = _random_triples(count, seed)
    for t in triples:
        ic = induced_curves(t)
        try:
            cp = canonical_points(t, ic)
        except ArithmeticError:
            bad += 1
            continue
        a, b = t.a, t.b
        r = t.root_ab
        s, u = a + r, b + r
        R = PointQ(r * s + r * u + s * u + 1,
                   (r + s) * (r + u) * (s + u))
        if scalar_mul(ic.curve, 2, cp.x_zero) != neg(ic.curve,
                                                     dbl(ic.curve, R)):
            bad += 1
    return _result("euler-doubling", "s1", t0, bad == 0,
                   f"2[0,abc] == -2R on {len(triples)} sum-extended "
                   f"triples, {bad} failures")


def check_quadruple_extension_fermat() -> CheckResult:
    t0 = time.perf_counter()
    ext = extend_to_quadruple(make_triple(QQ(1), QQ(3), QQ(8)))
    got = {ext.plus_branch, ext.minus_branch}
    ok = got == {QQ(0), QQ(120)} and ext.usable() == [QQ(120)]
    return _result("quadruple-extension-fermat", "s3", t0, ok,
                   f"{{1,3,8}} extends by {sorted(got)}")


def check_quadruple_extension_family(kmax: int = 50) -> CheckResult:
    t0 = time.perf_counter()
    bad = []
    for k in range(2, kmax + 1):
        t = make_triple(QQ(k - 1), QQ(k + 1), QQ(4 * k))
        ext = extend_to_quadruple(t)
        vals = ext.usable()
        if vals != [QQ(16 * k ** 3 - 4 * k)]:
            bad.append(k)
    return _result("quadruple-extension-family", "s3", t0, not bad,
                   f"{{k-1, k+1, 4k}} extends by 16k^3-4k for k=2..{kmax}"
                   + (f"; failures at {bad}" if bad else ""))


def check_square_identity_uv(count: int = 500, seed: int = 303) -> CheckResult:
    """F(u, v) at u = (v^3+v)/(v^2-1) is a rational square, exactly."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    bad = 0
    done = 0
    while done < count:
        v = QQ(rng.randint(-99, 99), rng.randint(1, 99))
        if v in (0, 1, -1):
            continue
        u = (v ** 3 + v) / (v * v - 1)
        val = F_uv(u, v)
        expected = ((v ** 6 - v ** 4 + 3 * v * v + 1) / (v * v - 1)) ** 2
        if val != expected or is_perfect_square(val) is None:
            bad += 1
        done += 1
    return _result("square-identity-uv", "s5", t0, bad == 0,
                   f"F(u,v) square on the parametric section at {count} "
                   f"random v, {bad} failures")


def check_t7_reconstruction() -> CheckResult:
    t0 = time.perf_counter()
    rec = dataset_record("s5-rank3")
    got = z2z6_triple(QQ(7))
    ok = got.elements == rec.triple.elements
    return _result("reconstruction-t7", "s5", t0, ok,
                   f"T=7 rebuild gives {[str(v) for v in got.elements]}")


def check_z2z8_random(count: int = 200, seed: int = 404) -> CheckResult:
    """Random family members validate and carry (2, 8) torsion."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    done = 0
    bad = 0
    while done < count:
        T = QQ(rng.randint(-60, 60), rng.randint(1, 60))
        if T in (0, 1, -1):
            continue
        try:
            t = z2z8_family(T)
        except _INVALID_TRIPLE:
            continue
        ts = torsion_subgroup(induced_curves(t).curve)
        if ts.invariants[0] % 2 or ts.invariants[1] % 8:
            bad += 1
        done += 1
    return _result("z2z8-random-torsion", "s6", t0, bad == 0,
                   f"torsion contains (2,8) for {count} random family "
                   f"members, {bad} failures")


def check_summand_forms(count: int = 100, seed: int = 505) -> CheckResult:
    """The two closed forms of the sieve summand agree to 1e-9."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    curves = []
    for rid in ("s3-rank9", "s4-rank7", "s5-rank4", "s6-connell"):
        curves.append(dataset_record(rid).curve)
    for _ in range(6):
        k = QQ(rng.randint(2, 40), rng.randint(1, 7))
        curves.append(induced_curves(family_k(K_PLUSMINUS, k)).curve)
    primes = primes_upto(2000)
    worst = 0.0
    done = 0
    while done < count:
        E = rng.choice(curves)
        p = rng.choice(primes)
        try:
            f1, f2 = summand_forms(E, p)
        except BadReduction:
            continue
        worst = max(worst, abs(f1 - f2))
        done += 1
    return _result("sieve-summand-forms", "s2", t0, worst < 1e-9,
                   f"max |form1 - form2| = {worst:.2e} over {count} "
                   f"(curve, prime) pairs")


def check_order_mod_four(count: int = 100) -> CheckResult:
    """#E(F_p) is divisible by 4 at good primes (full two-torsion)."""
    t0 = time.perf_counter()
    t = make_triple(QQ(1), QQ(3), QQ(8))
    E = induced_curves(t).curve
    bad = []
    done = 0
    for p in primes_upto(10000):
        if done >= count:
            break
        try:
            n = count_points_fp(E, p)
        except BadReduction:
            continue
        if n % 4:
            bad.append(p)
        done += 1
    return _result("sieve-order-mod-4", "s2", t0, done >= count and not bad,
                   f"4 | #E(F_p) at {done} good primes"
                   + (f"; failures at {bad[:5]}" if bad else ""))


def check_sieve_reproducibility(limit: int = 10000) -> CheckResult:
    """S(limit, rank-9 record curve) is fast and bit-reproducible."""
    t0 = time.perf_counter()
    E = dataset_record("s3-rank9").curve
    r1 = mestre_nagao_sum(E, limit)
    r2 = mestre_nagao_sum(E, limit)
    dt = time.perf_counter() - t0
    ok = r1 == r2 and repr(r1.value) == repr(r2.value) and dt < 60.0
    return _result("sieve-reproducibility", "s2", t0, ok,
                   f"S({limit}) = {r1.value!r} twice, {r1.primes_used} "
                   f"primes used, {r1.primes_skipped} bad skipped")


def _heavy_record_check(rid: str, expect_rank: int, *,
                        points_slice: Optional[int] = None,
                        expect_at_least: bool = False,
                        check_id: Optional[str] = None) -> CheckResult:
    """Full reproduction of one record with stored curve and points.

    Rebuilds the companion curve from the triple and matches it to the
    stored model, re-verifies every stored point, recomputes the torsion
    subgroup exactly, and re-certifies the rank lower bound from the
    stored generator points.
    """
    t0 = time.perf_counter()
    rec = dataset_record(rid)
    E = rec.curve
    problems = []

    iso = find_isomorphism(induced_curves(rec.triple).curve, E)
    if iso is None:
        problems.append("triple does not induce the stored model")

    for P in rec.torsion_points + rec.points:
        if not is_on_curve(E, P):
            problems.append(f"stored point x={P.x} off curve")

    ts = torsion_subgroup(E)
    if ts.invariants != rec.torsion_shape or not ts.exact:
        problems.append(f"torsion {ts.invariants} exact={ts.exact}, "
                        f"expected {rec.torsion_shape} exact")
    if ts.order != len(rec.torsion_points) + 1:
        problems.append(f"torsion order {ts.order} != stored "
                        f"{len(rec.torsion_points)} affine points + O")

    pts = list(rec.points if points_slice is None
               else rec.points[:points_slice])
    rb = rank_lower_bound(E, pts)
    rank_ok = (rb.bound >= expect_rank if expect_at_least
               else rb.bound == expect_rank)
    if not rank_ok:
        problems.append(f"rank lower bound {rb.bound} via {rb.method}, "
                        f"expected {'>=' if expect_at_least else '=='} "
                        f"{expect_rank}")

    detail = (f"model match, {len(rec.torsion_points) + 1} torsion points, "
              f"torsion {ts.invariants} exact, rank >= {rb.bound} "
              f"via {rb.method} from {len(pts)} stored points")
    if problems:
        detail = "; ".join(problems)
    return _result(check_id or f"record-{rid}", rec.section, t0,
                   not problems, detail)


def check_record_s3_rank9() -> CheckResult:
    return _heavy_record_check("s3-rank9", 9)


def check_record_s4_rank7() -> CheckResult:
    return _heavy_record_check("s4-rank7", 7)


def check_record_s5_rank4() -> CheckResult:
    return _heavy_record_check("s5-rank4", 4)


def check_record_s6_connell() -> CheckResult:
    return _heavy_record_check("s6-connell", 3)


def check_record_s6_big_default() -> CheckResult:
    """Default slice of the largest record: first two generators only."""
    return _heavy_record_check("s6-big", 2, points_slice=2,
                               expect_at_least=True,
                               check_id="record-s6-big-default")


def check_record_s6_big_full() -> CheckResult:
    """Full certification including the third stored generator.

    Its x has a 96-digit numerator and a 74-digit denominator.
    """
    return _heavy_record_check("s6-big", 3,
                               check_id="record-s6-big-full")


HEAVY_RECORDS = {"s3-rank9", "s4-rank7", "s5-rank4", "s6-connell", "s6-big"}


def check_record_light(rid: str) -> CheckResult:
    """Triple-only record: validity, family rebuild, exact torsion shape."""
    t0 = time.perf_counter()
    rec = dataset_record(rid)
    problems = []
    ts = torsion_subgroup(induced_curves(rec.triple).curve)
    if ts.invariants != rec.torsion_shape or not ts.exact:
        problems.append(f"torsion {ts.invariants} exact={ts.exact}, "
                        f"expected {rec.torsion_shape} exact")
    if rec.family is not None and \
            rec.family.triple.elements != rec.triple.elements:
        problems.append("family parameters do not rebuild the triple")
    detail = (f"triple valid, torsion {ts.invariants} equals "
              f"{rec.torsion_shape}, published rank {rec.claimed_rank} "
              "not re-certified (no stored points)")
    if problems:
        detail = "; ".join(problems)
    return _result(f"record-{rid}", rec.section, t0, not problems, detail)


def _light_checks(section: str) -> list[Callable[[], CheckResult]]:
    out = []
    for rec in paper_dataset():
        if rec.section == section and rec.record_id not in HEAVY_RECORDS:
            out.append(lambda rid=rec.record_id: check_record_light(rid))
    return out


def section_checks(section: str, long: bool = False) \
        -> list[Callable[[], CheckResult]]:
    checks: dict[str, list] = {
        "s1": [check_doubling_identity, check_euler_doubling],
        "s2": [check_summand_forms, check_order_mod_four,
               check_sieve_reproducibility],
        "s3": [check_quadruple_extension_fermat,
               check_quadruple_extension_family,
               check_record_s3_rank9],
        "s4": [check_record_s4_rank7],
        "s5": [check_square_identity_uv, check_t7_reconstruction,
               check_record_s5_rank4],
        "s6": [check_z2z8_random, check_record_s6_connell,
               check_record_s6_big_default],
    }
    if section not in checks:
        raise UnknownScope(section)
    out = list(checks[section])
    if section == "s6" and long:
        out.append(check_record_s6_big_full)
    out.extend(_light_checks(section))
    return out


ALL_SECTIONS = ("s1", "s2", "s3", "s4", "s5", "s6")


def scope_checks(scope: str, long: bool = False) \
        -> list[Callable[[], CheckResult]]:
    """Resolve a scope name to its check list.

    Accepts "all", a section tag (s1..s6), or a record id.  Raises
    UnknownScope on anything else.
    """
    if scope == "all":
        out = []
        for s in ALL_SECTIONS:
            out.extend(section_checks(s, long))
        return out
    if scope in ALL_SECTIONS:
        return section_checks(scope, long)
    known = {r.record_id for r in paper_dataset()}
    if scope not in known:
        raise UnknownScope(scope)
    heavy = {
        "s3-rank9": [check_record_s3_rank9],
        "s4-rank7": [check_record_s4_rank7],
        "s5-rank4": [check_record_s5_rank4],
        "s6-connell": [check_record_s6_connell],
        "s6-big": [check_record_s6_big_full] if long
        else [check_record_s6_big_default],
    }
    if scope in heavy:
        return heavy[scope]
    return [lambda rid=scope: check_record_light(rid)]


def run_scope(scope: str, long: bool = False,
              sink: Optional[Callable[[CheckResult], None]] = None) \
        -> list[CheckResult]:
    """Run the checks of a scope on the available CPUs, in check order.

    The scope is resolved here first, so an unknown one raises
    UnknownScope before any process starts.  Each result reaches `sink` in
    check order as soon as it and every earlier one are done.
    """
    jobs = [(scope, long, i) for i in range(len(scope_checks(scope, long)))]
    results = []
    for res in ordered_map(_run_check, jobs, available_cpus()):
        results.append(res)
        if sink is not None:
            sink(res)
    return results


def _run_check(job: tuple[str, bool, int]) -> CheckResult:
    """Check number i of a scope.  The process running it resolves the
    scope itself, so only names and an index cross to a worker."""
    scope, long, i = job
    return scope_checks(scope, long)[i]()
