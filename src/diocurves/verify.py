"""Reproduction checks for the bundled record dataset.

Each check re-derives one published claim from scratch.  A section's
fixed checks test the paper's algebraic identities and constructions on
randomized inputs.  ``check_record`` checks one record and reads what to
certify from the record itself: every record's triple is rebuilt from its
family parameters and its torsion subgroup recomputed exactly, and a
record that stores a curve is also matched against that minimal model,
its stored points are re-verified, and its stored generators re-certify
its claimed rank as a lower bound.

Checks are grouped by dataset section (s1..s6 plus individual record
ids) so the command-line ``verify`` subcommand can run any slice; the
test suite runs them all.  Every check returns a CheckResult and never
raises on a mere claim failure, only on internal errors.

The checks are grouped into jobs, and ``run_scope`` runs the jobs on a
pool of one forked process per available CPU and hands the results on in
the fixed check order.  The workers inherit the jobs, and each runs a
fixed share of them.  A job is one check, except that the three s2 checks
are one job (see ``section_checks``).  Each check counts one curve at a
time, by baby-step giant-step from p = 1000 on.  A check's
seconds are its own wall time in the process that ran it, timed with the
monotonic ``time.perf_counter``.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import Callable, NamedTuple, Optional

from ._pool import available_cpus, ordered_map
from .descent import rank_lower_bound
from .errors import (BadReduction, DegenerateParameter, DegenerateTriple,
                     NotDiophantine, UnknownScope)
from .families import (F_uv, dataset_record, family_k, paper_dataset,
                       z2z6_triple, z2z8_family, K_PLUSMINUS, K_4K)
from .rationals import QQ, is_perfect_square
from .sieve import (_count_points_at, _good_primes, mestre_nagao_sum,
                    primes_upto, summand_forms)
from .torsion import torsion_subgroup
from .triples import (Triple, _half_point, canonical_points,
                      extend_to_quadruple, induced_curves, make_triple)
from .weierstrass import dbl, find_isomorphism, is_on_curve, neg, scalar_mul

# what a family constructor or make_triple raises on a bad parameter
_INVALID_TRIPLE = (DegenerateParameter, DegenerateTriple, NotDiophantine)

RANK_DISCLAIMER = (
    "Rank values above are certified lower bounds only.  The published "
    "exact ranks relied on external descent software; equality beyond "
    "the certified bound is not re-established here.  Torsion subgroups "
    "are computed exactly.")


class CheckResult(NamedTuple):
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

    Pick a = A/p and a root r = R/q >= 0 at random; b = (r^2 - 1)/a makes
    ab + 1 = r^2, and c = a + b + 2r = ((a + r)^2 - 1)/a completes a valid
    triple in closed form, with ac + 1 = (a + r)^2 and bc + 1 = (b + r)^2.
    Each element and root is one Fraction of integers, and each root is
    checked by squaring it in integers, so the triple is the one
    `make_triple` validates.
    """
    rng = random.Random(seed)
    out: list[Triple] = []
    while len(out) < count:
        A, p = rng.randint(-9, 9), rng.randint(1, 9)
        R, q = rng.randint(0, 9), rng.randint(1, 9)
        if A == 0:
            continue
        qq = q * q
        # b = B/Bd, a + r = S/(pq), c = C/Cd and b + r = U/Bd
        B, Bd = p * (R * R - qq), A * qq
        S = A * q + R * p
        C, Cd = S * S - p * p * qq, A * p * qq
        U = B + R * A * q
        a, b, c = QQ(A, p), QQ(B, Bd), QQ(C, Cd)
        if b == 0 or c == 0 or a == b or a == c or b == c:
            continue
        if ((A * B + p * Bd) * qq != R * R * p * Bd
                or (A * C + p * Cd) * p * p * qq != S * S * p * Cd
                or (B * C + Bd * Cd) * Bd * Bd != U * U * Bd * Cd):
            raise ArithmeticError(f"{{{a}, {b}, {c}}} is not Diophantine")
        out.append(Triple(a, b, c, QQ(R, q), QQ(abs(S), p * q),
                          QQ(abs(U), abs(Bd))))
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
        # r = N/k, s = a + r = S/j and u = b + r = U/i, in integers
        (A, p), (B, q), (N, k) = (v.as_integer_ratio()
                                  for v in (t.a, t.b, t.root_ab))
        S, j = A * k + N * p, p * k
        U, i = B * k + N * q, q * k
        R = _half_point(N, k, S, j, U, i)
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
    curves = [r.curve for r in paper_dataset() if r.curve is not None]
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
    good = _good_primes(E, primes_upto(10000))[:count]
    bad = [p for p, n in zip(good, _count_points_at(E, good)) if n % 4]
    done = len(good)
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


# records whose default check certifies only their first n stored
# generators, rank >= n; with `long` they certify all of them
_DEFAULT_SLICE = {"s6-big": 2}

# checks that run in turn in one process
Job = tuple[Callable[[], CheckResult], ...]


def check_record(rid: str, long: bool = False) -> CheckResult:
    """Re-derive one record's claims from what the dataset stores.

    Every record: its family parameters rebuild the triple, and the
    torsion subgroup is exactly the published shape.  A record that stores
    a curve also gets: the triple induces the stored model, every stored
    point lies on it, the stored torsion points and O make up the whole
    group, and its stored generators certify rank == claimed_rank.  A
    record of _DEFAULT_SLICE certifies only its slice unless `long`.
    """
    t0 = time.perf_counter()
    rec = dataset_record(rid)
    E = induced_curves(rec.triple).curve
    problems = []
    if rec.curve is not None:
        if find_isomorphism(E, rec.curve) is None:
            problems.append("triple does not induce the stored model")
        E = rec.curve
        for P in rec.torsion_points + rec.points:
            if not is_on_curve(E, P):
                problems.append(f"stored point x={P.x} off curve")

    ts = torsion_subgroup(E)
    if ts.invariants != rec.torsion_shape or not ts.exact:
        problems.append(f"torsion {ts.invariants} exact={ts.exact}, "
                        f"expected {rec.torsion_shape} exact")
    check_id = f"record-{rid}"
    if rec.curve is None:
        detail = (f"triple valid, torsion {ts.invariants} equals "
                  f"{rec.torsion_shape}, published rank {rec.claimed_rank} "
                  "not re-certified (no stored points)")
    else:
        if ts.order != len(rec.torsion_points) + 1:
            problems.append(f"torsion order {ts.order} != stored "
                            f"{len(rec.torsion_points)} affine points + O")
        if rid in _DEFAULT_SLICE:
            check_id += "-full" if long else "-default"
        n = None if long else _DEFAULT_SLICE.get(rid)
        pts = list(rec.points[:n])
        rb = rank_lower_bound(E, pts)
        if rb.bound != rec.claimed_rank if n is None else rb.bound < n:
            problems.append(f"rank lower bound {rb.bound} via {rb.method}, "
                            "expected " + (f"== {rec.claimed_rank}"
                                           if n is None else f">= {n}"))
        detail = (f"model match, {len(rec.torsion_points) + 1} torsion "
                  f"points, torsion {ts.invariants} exact, rank >= "
                  f"{rb.bound} via {rb.method} from {len(pts)} stored points")
    if rec.family is not None and \
            rec.family.triple.elements != rec.triple.elements:
        problems.append("family parameters do not rebuild the triple")
    if problems:
        detail = "; ".join(problems)
    return _result(check_id, rec.section, t0, not problems, detail)


def section_checks(section: str, long: bool = False) -> list[Job]:
    """The jobs of one section, each a tuple of checks run in turn.

    The section's fixed checks come first, then one job per record: those
    that store a curve, in dataset order, then with `long` the full check
    of each record of _DEFAULT_SLICE, then the other records in dataset
    order.  The three s2 checks are one job: they share the int loop's
    residue tables and the rank-9 record's integral model, so one process
    pays for them once (split into three jobs, `verify all --long` measured
    no faster, BENCH_one_curve_bsgs.json).  Every other check is a job of
    its own.
    """
    fixed: dict[str, list[Job]] = {
        "s1": [(check_doubling_identity,), (check_euler_doubling,)],
        "s2": [(check_summand_forms, check_order_mod_four,
                check_sieve_reproducibility)],
        "s3": [(check_quadruple_extension_fermat,),
               (check_quadruple_extension_family,)],
        "s4": [],
        "s5": [(check_square_identity_uv,), (check_t7_reconstruction,)],
        "s6": [(check_z2z8_random,)],
    }
    if section not in fixed:
        raise UnknownScope(section)
    records = [r for r in paper_dataset() if r.section == section]
    rids = [r.record_id for r in records if r.curve is not None]
    out = list(fixed[section])
    out += [(partial(check_record, rid),) for rid in rids]
    if long:
        out += [(partial(check_record, rid, True),) for rid in rids
                if rid in _DEFAULT_SLICE]
    out += [(partial(check_record, r.record_id),) for r in records
            if r.curve is None]
    return out


ALL_SECTIONS = ("s1", "s2", "s3", "s4", "s5", "s6")


def scope_checks(scope: str, long: bool = False) -> list[Job]:
    """Resolve a scope name to its jobs, in check order.

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
    if scope not in {r.record_id for r in paper_dataset()}:
        raise UnknownScope(scope)
    return [(partial(check_record, scope, long),)]


def run_scope(scope: str, long: bool = False,
              sink: Optional[Callable[[CheckResult], None]] = None) \
        -> list[CheckResult]:
    """Run the jobs of a scope on the available CPUs, in check order.

    The scope is resolved here first, so an unknown one raises
    UnknownScope before any process starts.  Each result reaches `sink` in
    check order as soon as its job and every earlier one are done.
    """
    results = []
    for job_results in ordered_map(lambda job: [check() for check in job],
                                   scope_checks(scope, long),
                                   available_cpus()):
        for res in job_results:
            results.append(res)
            if sink is not None:
                sink(res)
    return results
