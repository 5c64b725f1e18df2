"""The integer group law, membership, stock points and halving against the
plain Fraction formulas they replaced.

The reference functions below are the Fraction versions, kept here only
as the oracle.  Every rewritten function must give the same Fraction
values, so every printed byte is unchanged.
"""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from diocurves import torsion, weierstrass
from diocurves.errors import (DegenerateParameter, DegenerateTriple,
                              NotDiophantine, PointNotOnCurve)
from diocurves.families import K_PLUSMINUS, family_k, z2z8_family
from diocurves.rationals import is_perfect_square
from diocurves.triples import (canonical_points, induced_curves, make_triple,
                               mutual_root)
from diocurves.weierstrass import (INFINITY, IDENTITY_MAP, CurveQ, ModelMap,
                                   PointQ, add, apply_map, clear_denominators,
                                   is_on_curve, map_point, minimal_model,
                                   scalar_mul)

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


# ---------------------------------------------------------------------------
# the Fraction references


def reference_is_on_curve(E, P):
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    return (y * y + E.a1 * x * y + E.a3 * y
            == x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)


def reference_neg(E, P):
    if P.is_infinity:
        return INFINITY
    return PointQ(P.x, -P.y - E.a1 * P.x - E.a3)


def reference_add(E, P, Q):
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a1, a2, a3, a4, a6 = E.coefficients()
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        lam = ((3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1)
               / (2 * y1 + a1 * x1 + a3))
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return PointQ(x3, y3)


def reference_scalar_mul(E, n, P):
    if n < 0:
        n, P = -n, reference_neg(E, P)
    acc = INFINITY
    for _ in range(n):
        acc = reference_add(E, acc, P)
    return acc


def reference_clear_denominators(E):
    """apply_map with u = 1/m."""
    m = math.lcm(*(a.denominator for a in E.coefficients()))
    if m == 1:
        return E, IDENTITY_MAP
    M = ModelMap(F(1, m), 0, 0, 0)
    return apply_map(E, M), M


def reference_closed_form_halves(roots, P):
    if P.is_infinity:
        yield INFINITY
        yield from (PointQ(e, 0) for e in roots)
        return
    if P.y == 0:
        e = P.x
        e2, e3 = (r for r in roots if r != e)
        w2 = is_perfect_square(e - e2)
        w3 = is_perfect_square(e - e3) if w2 is not None else None
        if w3 is None:
            return
        for t in (w3, -w3):
            y = w2 * t * (w2 + t)
            yield PointQ(e + w2 * t, y)
            yield PointQ(e + w2 * t, -y)
        return
    ws = []
    for e in roots:
        w = is_perfect_square(P.x - e)
        if w is None:
            return
        ws.append(w)
    w1, w2, w3 = ws
    if P.y < 0:
        w1 = -w1
    for a, b, c in ((w1, w2, w3), (w1, -w2, -w3), (-w1, w2, -w3),
                    (-w1, -w2, w3)):
        yield PointQ(P.x + a * b + a * c + b * c, (a + b) * (a + c) * (b + c))


def reference_mutual_root(x, y):
    return is_perfect_square(F(x) * F(y) + 1)


def reference_induced(t):
    """(cubic, curve coefficients, scale, two-torsion x) of a triple."""
    a, b, c = t.elements
    ab, ac, bc = a * b, a * c, b * c
    e2 = ab + ac + bc
    e3 = ab * c
    e1 = a + b + c
    return ((e3, e2, e1, F(1)), (0, e2, 0, e3 * e1, e3 * e3), e3,
            tuple(sorted((-ab, -ac, -bc))))


def reference_canonical_points(t):
    a, b, c = t.elements
    r, s, u = t.root_ab, t.root_ac, t.root_bc
    return ((PointQ(-b * c, 0), PointQ(-a * c, 0), PointQ(-a * b, 0)),
            PointQ(0, a * b * c), PointQ(1, r * s * u),
            PointQ(r * s + r * u + s * u + 1, (r + s) * (r + u) * (s + u)))


def _exact(P, Q):
    """Equal points, and each coordinate a Fraction in lowest terms."""
    if P != Q:
        return False
    return P.is_infinity or all(
        type(v) is F and v == F(v.numerator, v.denominator)
        for v in (P.x, P.y))


# ---------------------------------------------------------------------------
# inputs

nonzero_q = st.fractions(min_value=F(-12), max_value=F(12),
                         max_denominator=6).filter(bool)
root_q = st.fractions(min_value=F(0), max_value=F(10), max_denominator=6)
small_q = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4)
unit_q = small_q.filter(bool)


def _triple(kind, q, r):
    try:
        if kind == "sum":
            b = (r * r - 1) / q
            return make_triple(q, b, q + b + 2 * r)
        if kind == "z2z8":
            return z2z8_family(q)
        return family_k(K_PLUSMINUS, abs(q) + 2)
    except (DegenerateParameter, DegenerateTriple, NotDiophantine):
        return None


def _models(t, u, r, s, tt):
    """(model, points on it): the induced curve, its minimal model (a1, a3
    may be nonzero), and a model under (u, r, s, t), s != 0, so a1 != 0,
    and non-integral for most u.  The points are O, the stock points, the
    two-torsion points, a few sums and multiples, and the negative of
    each."""
    ic = induced_curves(t)
    E = ic.curve
    cp = canonical_points(t, ic)
    pts = [INFINITY, *cp.all_points()]
    P, Q = cp.x_zero, cp.half_x_one
    pts += [add(E, P, Q), scalar_mul(E, 2, P), scalar_mul(E, 3, Q),
            add(E, P, cp.two_torsion[0])]
    pts += [weierstrass._neg(E, R) for R in pts]
    out = [(E, pts)]
    mm = minimal_model(E)
    out.append((mm.curve, [map_point(E, mm.map, R) for R in pts]))
    M = ModelMap(u, r, s, tt)
    out.append((apply_map(E, M), [map_point(E, M, R) for R in pts]))
    return out


KINDS = st.sampled_from(["sum", "z2z8", "k"])


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(kind=KINDS, q=nonzero_q, r=root_q, u=unit_q, mr=small_q, ms=unit_q,
       mt=small_q)
def test_group_law_and_membership_match_the_fraction_formulas(
        kind, q, r, u, mr, ms, mt):
    t = _triple(kind, q, r)
    assume(t is not None)
    models = _models(t, u, mr, ms, mt)
    assert models[0][0].a1 == 0 and models[2][0].a1 != 0
    for E, pts in models:
        for P in pts:
            assert is_on_curve(E, P) and reference_is_on_curve(E, P)
            assert _exact(weierstrass._neg(E, P), reference_neg(E, P))
            # off-curve points: y + 1 and y + 2 cannot both be the other
            # root of the quadratic in y
            for dy in ([] if P.is_infinity else [1, 2]):
                off = PointQ(P.x, P.y + dy)
                on = reference_is_on_curve(E, off)
                assert is_on_curve(E, off) == on
                if not on:
                    with pytest.raises(PointNotOnCurve):
                        add(E, P, off)
            for Q in pts:
                assert _exact(weierstrass._add(E, P, Q),
                              reference_add(E, P, Q)), (E, P, Q)
        R = pts[-5]
        for n in (-3, -1, 0, 2, 5):
            assert _exact(scalar_mul(E, n, R), reference_scalar_mul(E, n, R))


@PROPERTY
@given(kind=KINDS, q=nonzero_q, r=root_q, u=unit_q, mr=small_q, ms=unit_q,
       mt=small_q)
def test_cleared_model_matches_apply_map(kind, q, r, u, mr, ms, mt):
    t = _triple(kind, q, r)
    assume(t is not None)
    for E, _ in _models(t, u, mr, ms, mt):
        want, want_map = reference_clear_denominators(E)
        got, got_map = clear_denominators(E)
        assert got == want and got_map == want_map
        assert all(type(a) is F for a in got.coefficients())


@PROPERTY
@given(kind=KINDS, q=nonzero_q, r=root_q, u=unit_q, mr=small_q, ms=unit_q,
       mt=small_q)
def test_closed_form_halves_match_the_fraction_formulas(
        kind, q, r, u, mr, ms, mt):
    t = _triple(kind, q, r)
    assume(t is not None)
    halved = 0
    for E, pts in _models(t, u, mr, ms, mt):
        Es, M, _, roots = torsion._square_completed(E)
        doubles = [weierstrass._add(E, P, P) for P in pts]
        for P in pts + doubles:
            Ps = weierstrass._map_point(M, P)
            got = list(torsion._closed_form_halves(roots, Ps))
            want = list(reference_closed_form_halves(roots, Ps))
            assert len(got) == len(want)
            assert all(_exact(S, T) for S, T in zip(got, want)), (Es, Ps)
            halved += bool(got)
            # every half doubles to P, and no half of P doubles to -P
            # unless P = -P
            minus = weierstrass._neg(Es, Ps)
            for S in got:
                assert weierstrass._doubles_to(Es, S, Ps)
                assert weierstrass._doubles_to(Es, S, minus) == (minus == Ps)
    assert halved


@PROPERTY
@given(kind=KINDS, q=nonzero_q, r=root_q)
def test_stock_points_and_roots_match_the_fraction_formulas(kind, q, r):
    t = _triple(kind, q, r)
    assume(t is not None)
    ic = induced_curves(t)
    cubic, coeffs, scale, xs = reference_induced(t)
    assert ic.cubic == cubic and ic.scale == scale
    assert ic.curve == CurveQ(*coeffs)
    assert weierstrass.two_torsion_x(ic.curve) == xs
    cp = canonical_points(t, ic)
    two, x_zero, x_one, half = reference_canonical_points(t)
    got = (*cp.two_torsion, cp.x_zero, cp.x_one, cp.half_x_one)
    assert all(_exact(P, Q) for P, Q in zip(got, (*two, x_zero, x_one, half)))
    for x, y in ((t.a, t.b), (t.a, t.c), (t.b, t.c), (t.a, q), (q, r),
                 (r, 3), (F(-1, 4), 4)):
        want = reference_mutual_root(x, y)
        got = mutual_root(x, y)
        assert got == want and (got is None or type(got) is F)


def test_two_torsion_and_inverse_pairs_on_a_minimal_model():
    # a model with a1 = a3 = 1: the two-torsion points have y = -(x + 1)/2,
    # double to O, and P + (-P) = O; the chord between two of them is the
    # third
    E = CurveQ(1, 1, 1, -10, -10)       # 15a1, Z/2 x Z/4
    two = torsion.two_torsion_points(E)
    assert len(two) == 3
    for T in two:
        assert weierstrass._add(E, T, T) == INFINITY
        assert weierstrass._neg(E, T) == T
    T1, T2, T3 = two
    assert _exact(weierstrass._add(E, T1, T2), reference_add(E, T1, T2))
    assert weierstrass._add(E, T1, T2) == T3


# ---------------------------------------------------------------------------
# the raises hold under python -O

_RAISES_UNDER_O = """
import sys
assert False, "not optimized"
from diocurves import torsion, weierstrass
from diocurves.errors import PointNotOnCurve
from diocurves.triples import canonical_points, induced_curves, make_triple

raised = []
t = make_triple(1, 3, 8)
E = induced_curves(t).curve
P = canonical_points(t).x_one
M = weierstrass.ModelMap(2, 1, 1, 3)
Em, Pm = weierstrass.apply_map(E, M), weierstrass.map_point(E, M, P)
for curve, point in ((E, P), (Em, Pm)):
    off = weierstrass.PointQ(point.x, point.y + 1)
    for entry in (lambda: weierstrass.add(curve, off, point),
                  lambda: weierstrass.scalar_mul(curve, 2, off),
                  lambda: torsion.halve_point(curve, off)):
        try:
            entry()
        except PointNotOnCurve:
            raised.append("membership")
real = torsion._closed_form_halves
torsion._closed_form_halves = lambda roots, Q: (
    weierstrass.PointQ(S.x, -S.y) for S in real(roots, Q))
for curve, point in ((E, P), (Em, Pm)):
    try:
        torsion.halve_point(curve, point)
    except ArithmeticError:
        raised.append("halving")
sys.exit(0 if raised == ["membership"] * 6 + ["halving"] * 2 else 1)
"""


def test_membership_and_halving_raise_under_optimize():
    src = pathlib.Path(weierstrass.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", _RAISES_UNDER_O],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
