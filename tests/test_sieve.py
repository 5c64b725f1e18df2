import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import diocurves
import diocurves.sieve as sieve_mod
from diocurves import weierstrass
from diocurves._poly import rational_roots
from diocurves.cli import _grid
from diocurves.errors import (BadReduction, DiocurvesError, FormMismatch,
                              SingularCurve)
from diocurves.families import (FAMILY_CONSTRUCTORS, K_PLUSMINUS,
                                dataset_record, family_k, z2z8_family)
from diocurves.sieve import (
    count_points_fp,
    mestre_nagao_sum,
    mestre_nagao_sums,
    primes_upto,
    summand_forms,
    trace_of_frobenius,
)
from diocurves.torsion import reduction_torsion_bound, torsion_subgroup
from diocurves.triples import induced_curves, make_triple
from diocurves.weierstrass import (IDENTITY_MAP, CurveQ, clear_denominators,
                                   invariants, minimal_model, two_torsion_x)
from test_torsion import E15A, E32, EK, EQ4

# no rational two-torsion point
E37 = CurveQ(0, 0, 1, -1, 0)
# y^2 = (x - 1)(x^2 + x + 3): exactly one rational two-torsion point
ONE_ROOT = CurveQ(0, 0, 0, 2, -3)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**4)) == 1229


def brute_count(coeffs, p):
    a1, a2, a3, a4, a6 = [c % p for c in coeffs]
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == (
                    x ** 3 + a2 * x * x + a4 * x + a6) % p:
                n += 1
    return n


def test_count_points_matches_brute_force():
    for E in (E15A, EK, E32):
        coeffs = [int(a) for a in E.coefficients()]
        for p in (3, 5, 7, 11, 13, 17, 101):
            try:
                fast = count_points_fp(E, p)
            except BadReduction:
                continue
            assert fast == brute_count(coeffs, p), (E, p)


def test_count_points_p2_and_bad_primes():
    assert count_points_fp(E15A, 2) == brute_count([1, 1, 1, -10, -10], 2)
    with pytest.raises(BadReduction):
        count_points_fp(E15A, 5)
    with pytest.raises(BadReduction):
        count_points_fp(EK, 3)


@pytest.mark.parametrize("n", [-7, 0, 1, 4, 9, 77, 121, 561, 1001])
def test_count_points_refuses_composite_moduli(n):
    # the point count, and the trace and summand built on it, are defined
    # at primes only; a composite used to return a number (152 at 121)
    E = induced_curves(make_triple(1, 3, 8)).curve
    for f in (count_points_fp, trace_of_frobenius, summand_forms):
        with pytest.raises(BadReduction, match=f"^{n} is not a prime$"):
            f(E, n)


def reference_count(E, p):
    """#E(F_p) by a scalar loop, or None at a prime of bad reduction.

    The integral model is completed to y^2 = 4x^3 + b2 x^2 + 2b4 x + b6
    and each fibre size is read off the quadratic character; p = 2 is
    counted by brute force on the integral model.
    """
    Ei, _ = clear_denominators(E)
    inv = invariants(Ei)
    if int(inv.disc) % p == 0:
        return None
    if p == 2:
        return brute_count([int(a) for a in Ei.coefficients()], 2)
    b2, b4, b6 = int(inv.b2), int(inv.b4), int(inv.b6)
    c3, c2, c1, c0 = 4 % p, b2 % p, (2 * b4) % p, b6 % p
    sq = bytearray(p)
    for i in range(p):
        sq[i * i % p] = 1
    total = 0
    for x in range(p):
        f = ((c3 * x + c2) * x + c1) * x % p
        f = (f + c0) % p
        if f:
            total += 1 if sq[f] else -1
    return p + 1 + total


def numpy_counts(roots, p):
    """#E(F_p) for each curve with integral X-roots (r1, r2, r3) at one odd
    p, as p + 1 + sum_X chi(X - r1) chi(X - r2) chi(X - r3), by numpy: chi
    is stored twice over, so X -> chi(X + o) is the slice chi[o:o + p]."""
    import numpy as np

    half = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi = np.full(2 * p, -1, dtype=np.int8)
    chi[half * half % p] = 1
    chi[0] = 0
    chi[p:] = chi[:p]
    counts = []
    for r1, r2, r3 in roots:
        o1, o2, o3 = -r1 % p, -r2 % p, -r3 % p
        f = chi[o1:o1 + p] * chi[o2:o2 + p]
        f *= chi[o3:o3 + p]
        counts.append(int(f.sum(dtype=np.int64)) + p + 1)
    return counts


def test_count_points_matches_reference_loop():
    for E in (E15A, EK, CurveQ(0, F(35, 4), 0, 18, 9)):
        for p in primes_upto(1100):
            want = reference_count(E, p)
            if want is None:
                with pytest.raises(BadReduction):
                    count_points_fp(E, p)
            else:
                assert count_points_fp(E, p) == want, (E, p)


def reference_sum(E, limit):
    """The Mestre-Nagao sum from reference counts, ascending primes."""
    total = 0.0
    used = skipped = 0
    for p in primes_upto(limit):
        n = reference_count(E, p)
        if n is None:
            skipped += 1
            continue
        used += 1
        total += (1.0 - (p - 1) / n) * math.log(p)
    return total, used, skipped


def test_mestre_nagao_sums_bit_identical(monkeypatch):
    limit = 1000
    curves = []
    for k in range(2, 60):
        try:
            triple = FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(k, 3))
        except DiocurvesError:
            continue
        curves.append(clear_denominators(induced_curves(triple).curve)[0])
        if len(curves) == 24:
            break
    # the primes the split-curve loop and baby-step giant-step count at,
    # and those a row is built for past the cut
    reached = {"_count_split": set(), "_count_alone": set(), "_row": set()}
    real_split = sieve_mod._count_split
    real_alone, real_row = sieve_mod._count_alone, sieve_mod._row

    def split(roots, disc, rows, total=0.0):
        rows = list(rows)
        reached["_count_split"].update(r[0] for r in rows if disc % r[0])
        return real_split(roots, disc, rows, total)

    def alone(bs, p):
        reached["_count_alone"].add(p)
        return real_alone(bs, p)

    def row(p):
        reached["_row"].add(p)
        return real_row(p)

    monkeypatch.setattr(sieve_mod, "_count_split", split)
    monkeypatch.setattr(sieve_mod, "_count_alone", alone)
    monkeypatch.setattr(sieve_mod, "_row", row)
    # the largest prime of the sum is counted by the int loop, and the
    # next prime, past its cut, by baby-step giant-step, one curve at a
    # time; both match the reference
    p = primes_upto(limit)[-1]
    assert p == 997
    for q in (p, 1009):
        good = [E for E in curves if reference_count(E, q) is not None]
        assert len(good) > 1
        counts = [sieve_mod._count_points_at(E, [q])[0] for E in good]
        assert counts == [reference_count(E, q) for E in good]
    assert reached == {"_count_split": {997}, "_count_alone": {1009},
                       "_row": set()}
    batch = mestre_nagao_sums(curves, limit)
    assert 997 in reached["_count_split"]
    assert reached["_count_alone"] == {1009}
    assert reached["_row"] == set()
    assert len(batch) == len(curves)
    for E, res in zip(curves, batch):
        total, used, skipped = reference_sum(E, limit)
        assert repr(res.value) == repr(total)
        assert (res.primes_used, res.primes_skipped) == (used, skipped)
        assert mestre_nagao_sums([E], limit)[0] == res
    # the grid has bad primes beyond p = 2
    assert any(r.primes_skipped > 1 for r in batch)
    assert mestre_nagao_sums([], limit) == []


def test_trace_of_frobenius_hasse_violation_raises(monkeypatch):
    # an impossible count must fail loudly, also under python -O
    monkeypatch.setattr(sieve_mod, "count_points_fp", lambda E, p: 2 * p + 7)
    with pytest.raises(ArithmeticError):
        trace_of_frobenius(E15A, 101)


def test_count_points_rational_model():
    # a rationally scaled model has the same counts at shared good primes
    E_frac = CurveQ(0, F(35, 4), 0, 18, 9)
    E_int = CurveQ(0, 35, 0, 288, 576)
    for p in (101, 103, 107):
        assert count_points_fp(E_frac, p) == count_points_fp(E_int, p)


def test_hasse_bound_and_trace():
    for p in primes_upto(200):
        try:
            a = trace_of_frobenius(E15A, p)
        except BadReduction:
            assert p in (3, 5)
            continue
        assert a * a <= 4 * p


def test_trace_oracle_15a():
    # frozen small traces of the conductor-15 curve 15a1, p = 2 included
    want = {2: -1, 7: 0, 11: -4, 13: -2, 17: 2, 19: 4, 23: 0, 29: -2, 31: 0}
    for p, a in want.items():
        assert trace_of_frobenius(E15A, p) == a


def test_mestre_nagao_sum_identity():
    # the two standard forms of each term agree
    res = mestre_nagao_sum(E32, 500)
    total = 0.0
    for p in primes_upto(500):
        try:
            n = count_points_fp(E32, p)
        except BadReduction:
            continue
        a = p + 1 - n
        total += (2 - a) / (p + 1 - a) * math.log(p)
    assert math.isclose(res.value, total, abs_tol=1e-9)
    assert res.primes_used + res.primes_skipped == len(primes_upto(500))
    assert res.primes_skipped == 1  # p = 2


def test_mestre_nagao_reproducible():
    a = mestre_nagao_sum(EK, 1000).value
    b = mestre_nagao_sum(EK, 1000).value
    assert a == b


def test_clear_denominators_builds_each_model_once():
    # an integral curve is its own integral model; a rational one is
    # scaled by the lcm m of its denominators, x -> m^2 x
    E = CurveQ(0, F(35, 4), 0, 18, 9)
    Ei, M = clear_denominators(E)
    assert Ei.coefficients() == (0, 140, 0, 4608, 36864)
    assert M == weierstrass.ModelMap(F(1, 4), 0, 0, 0)
    assert clear_denominators(Ei)[0] is Ei
    assert clear_denominators(Ei)[1] == IDENTITY_MAP
    assert clear_denominators(E37)[0] is E37


# --------------------------------------------------------------------------
# the root kernel and the two-torsion memo it reads

def _with_models(E):
    """An induced curve with its cleared and minimal models."""
    return [E, clear_denominators(E)[0], minimal_model(E).curve]


def _root_kernel_curves():
    curves = []
    for triple in (make_triple(1, 3, 8), family_k(K_PLUSMINUS, F(7, 3)),
                   z2z8_family(F(7, 5))):
        curves += _with_models(induced_curves(triple).curve)
    return curves


def _fresh(E):
    """An equal curve that holds no memo entry yet."""
    return CurveQ(*E.coefficients())


def test_root_kernel_matches_reference_loop(monkeypatch):
    solved = []
    monkeypatch.setattr(weierstrass, "rational_roots",
                        lambda f: solved.append(f) or rational_roots(f))
    # seeded by induced_curves and carried by minimal_model; the cleared
    # models of the two induced curves that are not integral hold no x,
    # and each solves its cubic once
    curves = _root_kernel_curves()
    roots = [sieve_mod._integral_data(E)[3] for E in curves]
    assert len(solved) == 2
    solved.clear()
    # the stored record models, and an odd a1 whose x have denominator 4,
    # build the entry from the cubic
    stored = [_fresh(dataset_record(rid).curve)
              for rid in ("s3-rank9", "s6-connell")] + [_fresh(E15A)]
    roots += [sieve_mod._integral_data(E)[3] for E in stored]
    assert len(solved) == len(stored)
    curves += stored
    assert None not in roots
    assert two_torsion_x(E15A) == (-F(13, 4), -1, 3)
    data = [sieve_mod._integral_data(E) for E in curves]
    for p in primes_upto(1100)[1:]:
        want = [reference_count(E, p) for E in curves]
        good = [i for i, n in enumerate(want) if n is not None]
        # the roots count as the reference does, by numpy and by one scan
        # per prime on both sides of the cut
        assert numpy_counts([roots[i] for i in good], p) == \
            [want[i] for i in good], p
        assert [counts for counts, _ in sieve_mod._scan(
            [data[i] for i in good], [p])] == [[want[i]] for i in good], p


def _packed_kernel_curves():
    """Induced curves with their cleared and minimal models (some minimal
    models have a1 != 0), z2z8 members, an odd a1 and a3, and a curve of
    good reduction at 3."""
    curves = _root_kernel_curves()
    curves += [induced_curves(z2z8_family(T)).curve
               for T in (F(-11, 3), F(5, 9), F(23, 17), F(-2, 49))]
    return curves + [E15A, E32]


def _split_rows(monkeypatch, calls):
    """Replace sieve._count_split by one that also appends the primes of
    each call's rows at which it counts, as one list per call."""
    real = sieve_mod._count_split

    def recording(roots, disc, rows, total=0.0):
        rows = list(rows)
        calls.append([r[0] for r in rows if disc % r[0]])
        return real(roots, disc, rows, total)

    monkeypatch.setattr(sieve_mod, "_count_split", recording)


def _int_counts(E, primes):
    """The int loop's counts of E at the given good primes, whichever side
    of the cut they lie."""
    _, _, disc, roots = sieve_mod._integral_data(E)
    return sieve_mod._count_split(
        roots, disc, map(sieve_mod._nonresidues, primes))[0]


def test_int_kernel_matches_reference_and_numpy(monkeypatch):
    curves = _packed_kernel_curves()
    assert any(E.a1 != 0 for E in curves)
    odd = primes_upto(2047)[1:]
    cut = sieve_mod._INT_BELOW
    assert odd[0] == 3 and odd[0] < cut < odd[-1]
    int_calls, built, alone = [], [], []
    _split_rows(monkeypatch, int_calls)
    row, count_alone = sieve_mod._row, sieve_mod._count_alone
    monkeypatch.setattr(sieve_mod, "_row",
                        lambda p: built.append(p) or row(p))
    monkeypatch.setattr(sieve_mod, "_count_alone", lambda bs, p: (
        alone.append(p) or count_alone(bs, p)))
    at_three, zero_root = [], set()
    for E in curves:
        roots = sieve_mod._integral_data(E)[3]
        good = sieve_mod._good_primes(E, odd)
        at_three.append(good[0] == 3)
        want = [reference_count(E, p) for p in good]
        # the int loop is exact on both sides of the cut, where numpy
        # counts the same
        assert _int_counts(E, good) == want, E
        assert [numpy_counts([roots], p)[0] for p in good] == want, E
        zero_root.update(p for p in good if any(r % p == 0 for r in roots))
        # the one-curve path: one int loop over the primes below the cut,
        # one baby-step giant-step count per prime above it, and no row
        # built past the cut
        int_calls.clear()
        built.clear()
        alone.clear()
        assert sieve_mod._count_points_at(E, good) == want, E
        assert int_calls == [[p for p in good if p < cut]]
        assert alone == [p for p in good if p > cut]
        assert built == []
    # p = 3, the shortest table, and a root that reduces to 0 on both
    # sides of the cut (numpy reads its table from offset 0 there)
    assert any(at_three)
    assert any(p < cut for p in zero_root)
    assert any(p > cut for p in zero_root)
    # the grid batch: one int loop per curve over its good primes below the
    # cut, then at each prime past it one row built and shared by all the
    # curves
    members = []
    for k in range(2, 40):
        try:
            triple = family_k(K_PLUSMINUS, F(k, 3))
        except DiocurvesError:
            continue
        members.append(induced_curves(triple).curve)
    batch = curves + members
    int_calls.clear()
    built.clear()
    mestre_nagao_sums(batch, cut)
    assert int_calls == [sieve_mod._good_primes(E, odd[:odd.index(997) + 1])
                         for E in batch]
    assert built == []
    for p in (1009, 2039):
        good = [E for E in batch if reference_count(E, p) is not None]
        assert len(good) > 16
        data = [sieve_mod._integral_data(E) for E in good]
        int_calls.clear()
        built.clear()
        alone.clear()
        assert [counts for counts, _ in sieve_mod._scan(data, [p])] == \
            [[reference_count(E, p)] for E in good], p
        assert built == [p]
        assert int_calls == [[p]] * len(good)
        assert alone == []


@settings(max_examples=60, derandomize=True, deadline=None)
@given(z2z8=st.booleans(), n=st.integers(-60, 60), d=st.integers(1, 12),
       p=st.sampled_from(primes_upto(999)[1:]))
def test_int_kernel_matches_reference_on_family_members(z2z8, n, d, p):
    try:
        triple = (z2z8_family(F(n, d)) if z2z8
                  else family_k(K_PLUSMINUS, F(n, d)))
    except DiocurvesError:
        assume(False)
    E = induced_curves(triple).curve
    want = reference_count(E, p)
    assume(want is not None)
    assert _int_counts(E, [p]) == [want]
    assert count_points_fp(E, p) == want


# --------------------------------------------------------------------------
# baby-step giant-step, the one-curve count from p = _INT_BELOW on

_BSGS_PRIMES = [p for p in primes_upto(3 * 10**4)
                if p >= sieve_mod._INT_BELOW]


def _split_curve(e1, e2, e3):
    """y^2 = (x - e1)(x - e2)(x - e3)."""
    return CurveQ(0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3,
                  -e1 * e2 * e3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(z2z8=st.booleans(), n=st.integers(-60, 60), d=st.integers(1, 12),
       roots=st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=3,
                      unique=True),
       p=st.sampled_from(_BSGS_PRIMES))
# the first primes past the cut, p = 1 and p = 3 mod 4
@example(z2z8=False, n=0, d=1, roots=[0, 1, -1], p=1009)
@example(z2z8=False, n=0, d=1, roots=[3, 7, -5], p=1019)
@example(z2z8=True, n=7, d=5, roots=[], p=1013)
@example(z2z8=True, n=-11, d=3, roots=[], p=1031)
def test_bsgs_matches_reference_on_split_curves(z2z8, n, d, roots, p):
    # random roots, or a member of the (2, 8)-torsion family, whose groups
    # mod p have a small exponent relative to their order
    if z2z8:
        try:
            E = induced_curves(z2z8_family(F(n, d))).curve
        except DiocurvesError:
            assume(False)
    else:
        E = _split_curve(*roots)
    want = reference_count(E, p)
    assume(want is not None)
    assert sieve_mod._count_alone(sieve_mod._integral_data(E)[1], p) == want


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 34, 157])
def test_bsgs_on_congruent_number_curves(n):
    # y^2 = x^3 - n^2 x has CM by Z[i]: supersingular, #E = p + 1, at
    # p = 3 mod 4, and numpy's count at p = 1 mod 4
    E = _split_curve(0, n, -n)
    _, bs, _, roots = sieve_mod._integral_data(E)
    good = sieve_mod._good_primes(E, [p for p in _BSGS_PRIMES if p < 4000])
    assert {p % 4 for p in good} == {1, 3}
    for p in good:
        want = p + 1 if p % 4 == 3 else numpy_counts([roots], p)[0]
        assert sieve_mod._count_alone(bs, p) == want, p


def test_bsgs_matches_numpy_near_large_primes():
    curves = [induced_curves(make_triple(1, 3, 8)).curve,
              dataset_record("s3-rank9").curve, _split_curve(0, 34, -34)]
    for p in (100003, 100019, 999983, 1000003):
        for E in curves:
            _, bs, _, roots = sieve_mod._integral_data(E)
            assert sieve_mod._count_alone(bs, p) == \
                numpy_counts([roots], p)[0], (E, p)


def test_bsgs_never_returns_an_unproven_count(monkeypatch):
    # a kernel that finds no point leaves every candidate standing, and
    # says so rather than pick one; (0, -32, 0) is y^2 = x^3 - 16x
    monkeypatch.setattr(sieve_mod, "_multiples", lambda *args: None)
    with pytest.raises(ArithmeticError, match="left the orders"):
        sieve_mod._count_alone((0, -32, 0), 1009)


# the one-parameter families, the ones `sieve` takes
ONE_PARAMETER = sorted(family for family, ctor in FAMILY_CONSTRUCTORS.items()
                       if ctor.__code__.co_argcount == 1)


def _valid_parameters(family):
    """A few parameters of the family that build a triple."""
    ctor = FAMILY_CONSTRUCTORS[family]
    valid = []
    for q in _grid((-30, 30), (1, 7)):
        try:
            ctor(q)
        except DiocurvesError:
            continue
        valid.append(q)
    return valid[::max(1, len(valid) // 12)]


# a denominator that some small prime, odd or 2, divides
_DENOMINATORS = st.builds(lambda k, p: k * p, st.integers(1, 6),
                          st.sampled_from(primes_upto(97)))


@pytest.mark.parametrize("family", ONE_PARAMETER)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_triple_data_scores_as_the_cleared_curves(family, data):
    # the grid's integral data, read off a triple's integers, is the data
    # of its cleared curve, and scores bit for bit as those curves do, in a
    # batch and alone, on both sides of the int loop's cut
    assert len(ONE_PARAMETER) == 7
    ctor = FAMILY_CONSTRUCTORS[family]
    drawn = data.draw(st.lists(st.builds(
        F, st.integers(-60, 60), _DENOMINATORS), max_size=4))
    drawn.append(data.draw(st.sampled_from(_valid_parameters(family))))
    triples = []
    for q in drawn:
        try:
            triples.append(ctor(q))
        except DiocurvesError:
            continue
    cleared = [clear_denominators(induced_curves(t).curve)[0]
               for t in triples]
    grid = [sieve_mod._triple_data(t) for t in triples]
    assert grid == [sieve_mod._integral_data(E) for E in cleared]
    for limit in (997, 1000, 1200):
        want = mestre_nagao_sums(cleared, limit)
        got = sieve_mod._sums_from_data(grid, limit)
        # a fresh curve solves its cubic for the two-torsion x
        alone = [mestre_nagao_sum(_fresh(E), limit) for E in cleared]
        for g, w, a in zip(got, want, alone):
            assert repr(g.value) == repr(w.value) == repr(a.value)
            assert (g.primes_used, g.primes_skipped) == \
                (w.primes_used, w.primes_skipped) == \
                (a.primes_used, a.primes_skipped)


def test_triple_data_keeps_every_check(monkeypatch):
    # the triple path checks what building the cleared curve checks: the
    # invariant identities, a nonzero discriminant and Vieta's formulas
    t = make_triple(1, 3, 8)
    real = sieve_mod._companion_ints
    den, e1, e2, e3, xs = real(t)
    monkeypatch.setattr(sieve_mod, "_companion_ints",
                        lambda t: (den, e1, e2, e3, xs[:2] + ((1, 1),)))
    with pytest.raises(ArithmeticError, match="two-torsion"):
        sieve_mod._triple_data(t)
    monkeypatch.setattr(sieve_mod, "_companion_ints",
                        lambda t: (den, e1, e2, e3, xs[:2] + ((1, 8),)))
    with pytest.raises(ArithmeticError, match="not integral"):
        sieve_mod._triple_data(t)
    monkeypatch.setattr(sieve_mod, "_companion_ints", real)
    # the invariants come from the one int function that checks
    # 4 b8 = b2 b6 - b4^2 and 1728 D = c4^3 - c6^2, and D = 0 is refused
    checked = []
    monkeypatch.setattr(sieve_mod, "_invariants_of_ints", lambda *a: (
        checked.append(a) or weierstrass._invariants_of_ints(*a)))
    coefficients = sieve_mod._triple_data(t)[0]
    assert checked == [coefficients]
    with pytest.raises(SingularCurve):
        sieve_mod._model_data((0, 0, 0, 0, 0), [(0, 1)] * 3)


def test_count_points_at_keeps_the_callers_order():
    # the primes are scanned once, sorted and without repeats, and each
    # count comes back at the caller's place: p = 2 after odd primes, a
    # repeat, and primes on both sides of the cut out of order
    primes = [1009, 2, 997, 7, 1013, 7, 3]
    for E in (E15A, EQ4):
        good = [p for p in primes if reference_count(E, p) is not None]
        assert good[:4] == [1009, 2, 997, 7] and good.count(7) == 2
        assert sieve_mod._count_points_at(E, good) == \
            [reference_count(E, p) for p in good], E


def test_count_points_at_bad_primes_raise():
    E = induced_curves(make_triple(1, 3, 8)).curve
    with pytest.raises(BadReduction):
        sieve_mod._count_points_at(E, [5, 7, 2, 11])
    with pytest.raises(BadReduction):
        sieve_mod._count_points_at(E, [5, 1])  # 1 divides every discriminant
    assert sieve_mod._count_points_at(E, []) == []


@pytest.mark.parametrize("limit", [200, 1000, 10**4])
def test_one_curve_score_is_its_score_in_a_batch(limit):
    # the one-curve sum and the batch, on both sides of the int loop's
    # cut, where a split curve alone counts by baby-step giant-step and the
    # batch on one shared row per prime; the floats agree bit for bit
    curves = _packed_kernel_curves()[::2] + [
        EQ4, dataset_record("s3-rank9").curve]
    batch = mestre_nagao_sums(curves, limit)
    for E, res in zip(curves, batch):
        alone = mestre_nagao_sum(_fresh(E), limit)
        assert repr(alone.value) == repr(res.value), E
        assert alone == res


def test_mixed_batch_scores_each_curve_as_alone():
    # a batch of curves bad at 2 and good there, with a1 and a3 odd or 0,
    # scores each one bit for bit as it scores alone
    curves = [EK, E15A, _root_kernel_curves()[1], EQ4]
    batch = mestre_nagao_sums(curves, 1000)
    for E, res in zip(curves, batch):
        total, used, skipped = reference_sum(E, 1000)
        assert repr(res.value) == repr(total)
        assert (res.primes_used, res.primes_skipped) == (used, skipped)


def test_readme_grid_scoring_solves_no_cubic(monkeypatch):
    # every grid curve arrives with its two-torsion x from induced_curves,
    # so scoring solves nothing and counts every curve with the root kernel
    solved = []
    monkeypatch.setattr(weierstrass, "rational_roots",
                        lambda f: solved.append(f) or rational_roots(f))
    ctor = FAMILY_CONSTRUCTORS[K_PLUSMINUS]
    curves = []
    for q in _grid((1, 50), (1, 10)):
        try:
            triple = ctor(q)
        except DiocurvesError:
            continue
        curves.append(induced_curves(triple).curve)
    assert len(curves) == 310
    assert len(mestre_nagao_sums(curves, 1000)) == 310
    assert solved == []


@pytest.mark.parametrize("corrupt", [
    lambda xs: (xs[0], xs[1], xs[2] + 1),       # breaks all of Vieta
    lambda xs: (xs[0] - 1, xs[1] + 1, xs[2]),   # keeps only the sum
    lambda xs: (xs[0], xs[1], xs[2] + F(1, 8)),  # not integral after X = 4x
], ids=["shifted", "same-sum", "eighth"])
def test_corrupted_two_torsion_memo_raises(corrupt):
    E = induced_curves(make_triple(1, 3, 8)).curve
    E.__dict__["_two_torsion_x"] = corrupt(two_torsion_x(E))
    with pytest.raises(ArithmeticError):
        sieve_mod._integral_data(E)


def test_corrupted_memo_raises_under_optimize():
    # the check is a plain raise, so python -O keeps it
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from diocurves import sieve, triples, weierstrass\n"
        "assert False, 'not optimized'\n"
        "E = triples.induced_curves(triples.make_triple(1, 3, 8)).curve\n"
        "a, b, c = weierstrass.two_torsion_x(E)\n"
        "E.__dict__['_two_torsion_x'] = (a, b, c + 1)\n"
        "try:\n"
        "    sieve.count_points_fp(E, 101)\n"
        "except ArithmeticError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("E", [E37, ONE_ROOT], ids=["none", "one"])
def test_counts_and_torsion_refuse_a_curve_not_split(E):
    # every count, sum and torsion group works on curves with three rational
    # points of order two only, and refuses any other curve, also inside a
    # batch, rather than return a number
    assert len(two_torsion_x(E)) < 3
    for call in (lambda: torsion_subgroup(E),
                 lambda: reduction_torsion_bound(E),
                 lambda: count_points_fp(E, 101),
                 lambda: trace_of_frobenius(E, 101),
                 lambda: summand_forms(E, 101),
                 lambda: mestre_nagao_sum(E, 1000),
                 lambda: mestre_nagao_sums([E15A, E], 1000)):
        with pytest.raises(FormMismatch, match="three two-torsion"):
            call()
