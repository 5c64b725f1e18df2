"""Property-based checks for the algebraic core.

Everything runs derandomized so the suite output is reproducible.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

from diocurves.descent import (descent_image, naive_point_search,
                               rank_lower_bound)
from diocurves.families import F_uv, K_PLUSMINUS, family_k, z2z8_family
from diocurves.errors import (DegenerateParameter, DegenerateTriple,
                              NotDiophantine)
from diocurves.heights import gram_certificate
from diocurves.rationals import is_perfect_square
from diocurves.torsion import halve_point, point_order
from diocurves.triples import (
    canonical_points,
    extend_to_quadruple,
    induced_curves,
    make_triple,
)
from diocurves._poly import rational_roots
from diocurves.weierstrass import (
    INFINITY,
    add,
    clear_denominators,
    complete_the_square,
    dbl,
    find_isomorphism,
    invariants,
    is_on_curve,
    minimal_model,
    neg,
    scalar_mul,
    sub,
)

COMMON = settings(max_examples=30, derandomize=True, deadline=None)

nonzero_q = st.fractions(
    min_value=F(-12), max_value=F(12), max_denominator=6).filter(bool)
root_q = st.fractions(min_value=F(0), max_value=F(10), max_denominator=6)


def _sum_triple(a, r):
    """Triple {a, b, a+b+2r} with ab + 1 = r^2, or None if degenerate."""
    if a == 0:
        return None
    b = (r * r - 1) / a
    c = a + b + 2 * r
    try:
        return make_triple(a, b, c)
    except DegenerateTriple:
        return None


@COMMON
@given(a=nonzero_q, r=root_q)
def test_group_axioms_on_stock_points(a, r):
    t = _sum_triple(a, r)
    assume(t is not None)
    E = induced_curves(t).curve
    pts = canonical_points(t)
    P, Q, R = pts.x_zero, pts.x_one, pts.half_x_one

    assert add(E, P, Q) == add(E, Q, P)
    assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
    assert add(E, P, INFINITY) == P
    assert add(E, P, neg(E, P)) == INFINITY
    assert dbl(E, Q) == add(E, Q, Q)
    assert sub(E, P, Q) == add(E, P, neg(E, Q))


@COMMON
@given(a=nonzero_q, r=root_q,
       m=st.integers(-3, 3), n=st.integers(-3, 3))
def test_scalar_multiplication_distributes(a, r, m, n):
    t = _sum_triple(a, r)
    assume(t is not None)
    E = induced_curves(t).curve
    P = canonical_points(t).x_zero
    assert scalar_mul(E, m + n, P) == add(
        E, scalar_mul(E, m, P), scalar_mul(E, n, P))


@COMMON
@given(a=nonzero_q, r=root_q)
def test_points_survive_integral_model_change(a, r):
    t = _sum_triple(a, r)
    assume(t is not None)
    E = induced_curves(t).curve
    cleared, _ = clear_denominators(E)
    for coeff in (cleared.a1, cleared.a2, cleared.a3, cleared.a4,
                  cleared.a6):
        assert coeff.denominator == 1
    assert find_isomorphism(E, cleared) is not None


@COMMON
@given(a=nonzero_q, r=root_q)
def test_cubic_lift_lands_on_companion_curve(a, r):
    t = _sum_triple(a, r)
    assume(t is not None)
    curves = induced_curves(t)
    # x = 0 always lies on the cubic model with y = 1
    assert curves.is_on_cubic(0, 1)
    lifted = curves.lift(0, 1)
    assert lifted == canonical_points(t, curves).x_zero
    assert is_on_curve(curves.curve, lifted)


def _family_triple(kind, q, r):
    """A triple of the given source, or None when the parameters degenerate."""
    try:
        if kind == "sum":
            return _sum_triple(q, r)
        if kind == "z2z8":
            return z2z8_family(q)
        return family_k(K_PLUSMINUS, abs(q) + 2)
    except (DegenerateParameter, DegenerateTriple, NotDiophantine):
        return None


@COMMON
@given(kind=st.sampled_from(["sum", "z2z8", "k"]), q=nonzero_q, r=root_q)
def test_seeded_and_carried_two_torsion_x_are_the_cubic_roots(kind, q, r):
    # induced_curves seeds the x-coordinates and every model map carries
    # them; each model holds them before anything is solved, and they are
    # exactly the rational roots of its own 2-division polynomial
    t = _family_triple(kind, q, r)
    assume(t is not None)
    E = induced_curves(t).curve
    models = [E, clear_denominators(E)[0], complete_the_square(E)[0],
              minimal_model(E).curve]
    for model in models:
        carried = model.__dict__["_two_torsion_x"]
        inv = invariants(model)
        assert carried == tuple(
            rational_roots([4, inv.b2, 2 * inv.b4, inv.b6]))
        assert len(carried) == 3


@COMMON
@given(kind=st.sampled_from(["sum", "z2z8", "k"]), q=nonzero_q, r=root_q,
       m=st.integers(-2, 2), n=st.integers(0, 2), k=st.integers(0, 3))
def test_halving_a_double_recovers_the_point(kind, q, r, m, n, k):
    # S = m [0, abc] + n half_x_one + T, for a two-torsion T or O: the
    # halves of 2S are S plus the four two-torsion points, each doubling
    # to 2S
    t = _family_triple(kind, q, r)
    assume(t is not None)
    E = induced_curves(t).curve
    pts = canonical_points(t)
    S = add(E, scalar_mul(E, m, pts.x_zero),
            scalar_mul(E, n, pts.half_x_one))
    S = add(E, S, (*pts.two_torsion, INFINITY)[k])
    D = dbl(E, S)
    halves = halve_point(E, D)
    assert S in halves
    assert len(halves) == 4
    for H in halves:
        assert dbl(E, H) == D


@settings(max_examples=20, derandomize=True, deadline=None)
@given(m=st.integers(0, 3), n=st.integers(0, 3))
def test_descent_image_is_multiplicative(m, n):
    t = make_triple(F(1), F(3), F(8))
    E = induced_curves(t).curve
    pts = canonical_points(t)
    P = scalar_mul(E, m, pts.x_zero)
    Q = scalar_mul(E, n, pts.x_one)
    im_p = descent_image(E, P)
    im_q = descent_image(E, Q)
    im_sum = descent_image(E, add(E, P, Q))
    for cp, cq, cs in zip(im_p, im_q, im_sum):
        prod = cp * cq * cs
        assert prod != 0 and is_perfect_square(F(prod)) is not None


@settings(max_examples=8, derandomize=True, deadline=None)
@given(a=nonzero_q, r=root_q)
def test_rank_bound_reaches_greedy_gram_bound(a, r):
    # the bound is the exact rank of the span, so no greedy height Gram
    # selection of the same points can certify more; the points are
    # doubles, which descent alone cannot tell apart, so halving must
    t = _sum_triple(a, r)
    assume(t is not None)
    E = induced_curves(t).curve
    cp = canonical_points(t)
    base = {cp.x_zero, cp.x_one, cp.half_x_one, *naive_point_search(E, 2.0)}
    pts = sorted({dbl(E, P) for P in base} - {INFINITY},
                 key=lambda P: (P.x, P.y))
    kept = []
    for P in pts:
        if point_order(E, P) is None and \
                gram_certificate(E, kept + [P]).independent:
            kept.append(P)
    assert rank_lower_bound(E, pts).bound >= len(kept)


@COMMON
@given(T=st.fractions(min_value=F(-30), max_value=F(30), max_denominator=8))
def test_z2z8_family_invariants(T):
    try:
        t = z2z8_family(T)
    except DegenerateParameter:
        assume(False)
    assert t.a * t.b == -1
    assert is_perfect_square(t.a * t.a + 1) is not None
    assert abs(t.c) == abs(t.a - 1 / t.a)


@COMMON
@given(v=st.fractions(min_value=F(-20), max_value=F(20), max_denominator=7))
def test_F_uv_square_along_parametric_section(v):
    assume(v * v != 1)
    u = (v ** 3 + v) / (v * v - 1)
    value = F_uv(u, v)
    root = is_perfect_square(value)
    assert root is not None
    assert root == abs((v ** 6 - v ** 4 + 3 * v * v + 1) / (v * v - 1))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(k=st.fractions(min_value=F(2), max_value=F(40), max_denominator=5))
def test_quadruple_extension_gives_three_squares(k):
    try:
        t = family_k(K_PLUSMINUS, k)
    except DegenerateParameter:
        assume(False)
    ext = extend_to_quadruple(t)
    assert ext.usable()
    for d in (ext.plus_branch, ext.minus_branch):
        for e in t.elements:
            assert is_perfect_square(e * d + 1) is not None


@COMMON
@given(q=st.fractions(min_value=F(-50), max_value=F(50), max_denominator=20))
def test_perfect_square_roundtrip(q):
    assert is_perfect_square(q * q) == abs(q)
    if q > 0 and is_perfect_square(q) is None:
        # non-squares stay non-squares after scaling by a square
        assert is_perfect_square(q * 4) is None
