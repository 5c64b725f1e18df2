"""Rational torsion subgroups, point halving, and reduction bounds.

The torsion group is assembled from exact rational roots of division
polynomials (and, when the curve has full rational two-torsion, from the
much cheaper halving formulas).  A gcd of good-reduction point counts
serves as an independent upper bound; together with the classification of
possible rational torsion shapes this makes the returned group provably
complete, not just a lower bound.

Halves are written in closed form on the square-completed model
y^2 = (x - e1)(x - e2)(x - e3), from the square roots of x - e_i, with no
square root taken for y.  A curve with a1 = a3 = 0, as every induced curve
is, is its own square-completed model, so its points are halved where they
are, with no copy of the curve and no change of variables.  Each half
returned is checked once to double to the point halved, by the
division-free tangent equations of `weierstrass._doubles_to`, and a failure
raises ArithmeticError.

The reduction bound counts all of its primes in one
`sieve._count_points_at` call.  Its first 20 odd good primes lie far below
p = 1000, so a curve with full two-torsion is counted there in one loop over
the cached rows of non-residues.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from ._poly import mul, rational_roots, sub
from .errors import FormMismatch
from .rationals import QQ, is_perfect_square, sqrt_int
from .sieve import _count_points_at, _good_primes, primes_upto
from .weierstrass import (
    IDENTITY_MAP,
    INFINITY,
    CurveQ,
    ModelMap,
    PointQ,
    _add,
    _coefficient_scale,
    _doubles_to,
    _map_point,
    _memo,
    _require_on_curve,
    complete_the_square,
    invariants,
    two_torsion_x,
)

# every possible shape of the rational torsion group, as invariant factors
ALLOWED_SHAPES = frozenset(
    [()] + [(n,) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + [(2, 2), (2, 4), (2, 6), (2, 8)]
)
# element orders are therefore among {1,...,10,12}
_MAX_ELEMENT_ORDER = 12


def points_with_x(E: CurveQ, x0: Fraction) -> list[PointQ]:
    """The rational points of E with the given x, solved from the quadratic in y."""
    x0 = QQ(x0)
    B = E.a1 * x0 + E.a3
    C = x0 ** 3 + E.a2 * x0 * x0 + E.a4 * x0 + E.a6
    root = is_perfect_square(B * B + 4 * C)
    if root is None:
        return []
    ys = {(-B + root) / 2, (-B - root) / 2}
    return [PointQ(x0, y) for y in sorted(ys)]


def two_torsion_points(E: CurveQ) -> list[PointQ]:
    """The rational points of order exactly two, sorted by x.

    Their x are the curve's memoized `two_torsion_x`: seeded for an
    induced curve, carried along model maps, and solved from the cubic
    only for a curve that arrived with neither."""
    return [PointQ(x0, -(E.a1 * x0 + E.a3) / 2) for x0 in two_torsion_x(E)]


def point_order(E: CurveQ, P: PointQ) -> int | None:
    """The exact order of P, or None when P is of infinite order.

    Rational torsion orders never exceed 12 (`_MAX_ELEMENT_ORDER`), so a
    scan of the first 12 multiples settles the question; integrality
    usually settles it sooner.
    """
    _require_on_curve(E, P)
    return _point_order(E, P)


def _point_order(E: CurveQ, P: PointQ) -> int | None:
    """point_order for a P already known to lie on E.

    On the integral model x -> m^2 x of clear_denominators, a torsion point
    has an integral x, except a point of order two, whose x may have
    denominator 2 or 4 (Silverman, AEC VII.3.4 and Cor. VIII.7.2).  So a
    multiple of P whose scaled x has a denominator not dividing 4 proves
    that P has infinite order.
    """
    scale = _coefficient_scale(E) ** 2
    acc = P
    for n in range(1, _MAX_ELEMENT_ORDER + 1):
        if acc.x is None:
            return n
        d = acc.x.denominator       # x m^2 has denominator d / gcd(d, m^2)
        if 4 % (d // math.gcd(d, scale)):
            return None
        acc = _add(E, acc, P)
    return None


def reduction_torsion_bound(E: CurveQ, prime_count: int = 20) -> int:
    """gcd of #E(F_p) over the first prime_count odd good primes.

    The torsion group injects into every such reduction, so its order
    divides the returned value.  The primes are counted in one
    ``_count_points_at`` call.
    """
    hi = 256
    while len(primes := _good_primes(E, primes_upto(hi)[1:])) < prime_count:
        hi *= 2
    return math.gcd(*_count_points_at(E, primes[:prime_count]))


# ---------------------------------------------------------------------------
# halving


def _square_completed(E: CurveQ) -> tuple[CurveQ, ModelMap, ModelMap, tuple]:
    """complete_the_square(E), the inverse of its map, and the rational
    roots of its cubic, which are E's two-torsion x-coordinates.

    A curve with a1 = a3 = 0, as every induced curve is, is its own
    square-completed model: it comes back with IDENTITY_MAP both ways, and
    `_map_point` hands points through IDENTITY_MAP unchanged."""
    Es, M, Minv, roots = _memo(E, "_square_completed", _build_square_completed)
    if len(roots) != 3:
        raise FormMismatch(
            "operation needs all three two-torsion x-coordinates rational "
            f"(found {len(roots)})")
    return Es, M, Minv, roots


def _build_square_completed(E: CurveQ) -> tuple:
    if E.a1 == 0 and E.a3 == 0:
        return E, IDENTITY_MAP, IDENTITY_MAP, two_torsion_x(E)
    Es, M = complete_the_square(E)
    return Es, M, M.inverse(), two_torsion_x(E)


def halve_point(E: CurveQ, P: PointQ) -> list[PointQ]:
    """All rational points S with 2S = P, sorted; empty when none exist.

    Requires full rational two-torsion (FormMismatch otherwise).
    """
    _square_completed(E)        # FormMismatch before PointNotOnCurve
    _require_on_curve(E, P)
    return _sorted_points(_all_halves(E, P))


def _all_halves(E: CurveQ, P: PointQ) -> list[PointQ]:
    """halve_point without the membership check (P must lie on E) and
    without the sort: the halves in the order they are written."""
    Es, M, Minv, roots = _square_completed(E)
    return [_map_point(Minv, S) for S in _halves(Es, roots, _map_point(M, P))]


def _a_half(E: CurveQ, P: PointQ) -> PointQ | None:
    """One rational half of a point P of E, or None when P has none.

    P must lie on E, which must have full rational two-torsion.  Only the
    first closed-form half is built and doubling-checked; the others differ
    from it by two-torsion points.
    """
    Es, M, Minv, roots = _square_completed(E)
    S = next(_halves(Es, roots, _map_point(M, P)), None)
    return None if S is None else _map_point(Minv, S)


def _halves(Es: CurveQ, roots: tuple, P: PointQ) -> Iterator[PointQ]:
    """The rational halves of a point P of the square-completed model Es,
    one at a time, each checked to double to P."""
    for S in _closed_form_halves(roots, P):
        if not _doubles_to(Es, S, P):
            raise ArithmeticError(f"the half {S} does not double to {P}")
        yield S


def _closed_form_halves(roots: tuple, P: PointQ) -> Iterator[PointQ]:
    """The halves of P on y^2 = (x - e1)(x - e2)(x - e3), written directly.

    P = (x, y) with y != 0 has a rational half exactly when every
    w_i = sqrt(x - e_i) is rational.  With the signs chosen so that
    w1 w2 w3 = y, the halves are x' = x + ab + ac + bc and
    y' = (a + b)(a + c)(b + c) over the sign patterns (a, b, c) of
    (w1, w2, w3) that keep the product (Washington, Elliptic Curves,
    Thm 8.14).  A two-torsion point (e, 0), with w2 = sqrt(e - e2),
    w3 = sqrt(e - e3) and t = +-w3, has the halves
    (e + w2 t, +-w2 t (w2 + t)).  The halves of O are O and the
    two-torsion points.

    The roots are taken in integers over one common denominator V,
    w_i = W_i / V, so each half is x' = (X V^2 + d (ab + ac + bc)) / (d V^2)
    and y' = (a + b)(a + c)(b + c) / V^3 for x = X/d, built as two
    Fractions.
    """
    if P.x is None:
        yield INFINITY
        yield from (PointQ(e, 0) for e in roots)
        return
    X, d = P.x.as_integer_ratio()
    if P.y == 0:
        e2, e3 = (r for r in roots if r != P.x)
        ws = _common_roots(X, d, (e2, e3))
        if ws is None:
            return
        (w2, w3), V = ws
        for t in (w3, -w3):
            xn = Fraction(X * V * V + d * w2 * t, d * V * V)
            yn = w2 * t * (w2 + t)
            yield PointQ(xn, Fraction(yn, V ** 3))
            yield PointQ(xn, Fraction(-yn, V ** 3))
        return
    ws = _common_roots(X, d, roots)
    if ws is None:
        return
    (w1, w2, w3), V = ws
    if P.y < 0:
        w1 = -w1
    xden, yden = d * V * V, V ** 3
    for a, b, c in ((w1, w2, w3), (w1, -w2, -w3), (-w1, w2, -w3),
                    (-w1, -w2, w3)):
        yield PointQ(Fraction(X * V * V + d * (a * b + a * c + b * c), xden),
                     Fraction((a + b) * (a + c) * (b + c), yden))


def _common_roots(X: int, d: int, es) -> tuple[list[int], int] | None:
    """([W_i], V) with W_i / V = sqrt(X/d - e_i) >= 0 for each e_i of es,
    or None when one of them is irrational.

    X/d - e_i = n_i / d_i with d_i = d times e_i's denominator, and n_i/d_i
    is a square exactly when n_i d_i is, with root sqrt(n_i d_i) / d_i.
    """
    Ws, dens = [], []
    for e in es:
        E, f = e.as_integer_ratio()
        den = d * f
        W = sqrt_int((X * f - E * d) * den)
        if W is None:
            return None
        Ws.append(W)
        dens.append(den)
    V = math.lcm(*dens)
    return [W * (V // den) for W, den in zip(Ws, dens)], V


def _sorted_points(pts) -> list[PointQ]:
    """pts with O first, then ascending by x, then by y.

    Every coordinate is scaled to integers by one common denominator D,
    which keeps their order, so the sort compares ints, not Fractions.
    """
    affine = [P for P in pts if P.x is not None]
    D = math.lcm(*(v.denominator for P in affine for v in (P.x, P.y)))

    def scaled(P: PointQ) -> tuple[int, int]:
        (X, d), (Y, e) = P.x.as_integer_ratio(), P.y.as_integer_ratio()
        return X * (D // d), Y * (D // e)

    return [INFINITY] * (len(pts) - len(affine)) + sorted(affine, key=scaled)


# ---------------------------------------------------------------------------
# division polynomials (x-only parts)


def _division_poly(E: CurveQ, q: int) -> list[Fraction]:
    """x-only part of the q-division polynomial (odd part for even q),
    leading coefficient first."""
    inv = invariants(E)
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    F2 = [4, b2, 2 * b4, b6]
    f3 = [3, b2, 3 * b4, 3 * b6, b8]
    f4 = [2, b2, 5 * b4, 10 * b6, 10 * b8,
          b2 * b8 - b4 * b6, b4 * b8 - b6 * b6]
    polys = {3: f3, 4: f4}
    if q in (5, 7, 8, 9):
        polys[5] = sub(mul(F2, F2, f4), mul(f3, f3, f3))
    if q in (7, 8, 9):
        polys[6] = mul(f3, sub(polys[5], mul(f4, f4)))
    if q == 7:
        polys[7] = sub(mul(polys[5], f3, f3, f3), mul(F2, F2, f4, f4, f4))
    if q == 8:
        polys[8] = mul(f4, sub(mul(polys[6], f3, f3),
                               mul(polys[5], polys[5])))
    if q == 9:
        polys[9] = sub(mul(F2, F2, polys[6], f4, f4, f4),
                       mul(f3, polys[5], polys[5], polys[5]))
    return polys[q]


def _torsion_candidates_from_poly(E: CurveQ, q: int) -> list[PointQ]:
    pts = []
    for x0 in rational_roots(_division_poly(E, q)):
        pts.extend(points_with_x(E, x0))
    return pts


# ---------------------------------------------------------------------------
# assembly


class TorsionSubgroup(NamedTuple):
    points: tuple[PointQ, ...]
    order: int
    invariants: tuple[int, ...]     # invariant factors, e.g. (2, 8)
    reduction_bound: int
    exact: bool

    def __repr__(self):
        if not self.invariants:
            return "TorsionSubgroup(trivial)"
        return "TorsionSubgroup(%s)" % " x ".join(
            "Z/%d" % d for d in self.invariants)


def torsion_subgroup(E: CurveQ) -> TorsionSubgroup:
    """The full rational torsion subgroup of E, built once per curve object.

    Every prime-power element order that divides the reduction bound and
    can occur at all is searched, and the group order always divides the
    bound, so the returned group is complete; `exact` records that.  The
    bound (over the default 20 reduction primes) only prunes the search,
    never the result, so the group is an invariant of the curve and is kept
    on it by `_memo`.  The bound stays available for cross-checks.
    """
    return _memo(E, "_torsion_subgroup", _build_torsion_subgroup)


def _build_torsion_subgroup(E: CurveQ) -> TorsionSubgroup:
    bound = reduction_torsion_bound(E)
    two = two_torsion_points(E)

    # the 2-primary part: halving is exact, so a half of an order-2 point
    # has order 4 and a half of an order-4 point has order 8
    two_part = [INFINITY, *two]
    if len(two) == 3:
        if bound % 4 == 0:
            order4 = [S for T in two for S in _all_halves(E, T)]
            two_part += order4
            if bound % 8 == 0:
                two_part += [R for S in order4 for R in _all_halves(E, S)]
    else:
        for q in (4, 8):
            if bound % q == 0:
                two_part += [P for P in _torsion_candidates_from_poly(E, q)
                             if _point_order(E, P) is not None]

    # the odd part is cyclic of order at most 9; close it under addition
    odd = {INFINITY}
    for q in (3, 5, 7, 9):
        if bound % q == 0:
            odd.update(P for P in _torsion_candidates_from_poly(E, q)
                       if _point_order(E, P) is not None)
    grown = True
    while grown:
        members = list(odd)
        odd.update(_add(E, P, Q) for i, P in enumerate(members)
                   for Q in members[i:])
        grown = len(odd) > len(members)

    # the group is the direct sum of its 2-primary and odd parts
    pts = {_add(E, A, B) for A in two_part for B in odd}
    if len(pts) > 16:
        raise ArithmeticError("torsion closure exceeded the rational maximum")
    order = len(pts)
    n_two = len(two)
    if order == 1:
        shape: tuple[int, ...] = ()
    elif n_two == 3:
        shape = (2, order // 2)
    else:
        shape = (order,)
    if shape not in ALLOWED_SHAPES:  # pragma: no cover - would be a defect
        raise ArithmeticError(f"impossible torsion shape {shape}")
    if bound % order:
        raise ArithmeticError(
            f"torsion order {order} does not divide the reduction bound {bound}")
    return TorsionSubgroup(tuple(_sorted_points(pts)),
                           order, shape, bound, True)
