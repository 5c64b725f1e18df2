import itertools
import math
import random
from fractions import Fraction as F

import pytest

from diocurves import torsion, weierstrass
from diocurves.descent import descent_image, naive_point_search
from diocurves.errors import BadReduction, FormMismatch
from diocurves.factoring import is_probable_prime
from diocurves.families import dataset_record, paper_dataset, z2z8_family
from diocurves.torsion import (
    ALLOWED_SHAPES,
    _division_poly,
    _torsion_candidates_from_poly,
    halve_point,
    point_order,
    points_with_x,
    rational_roots,
    reduction_torsion_bound,
    torsion_subgroup,
    two_torsion_points,
)
from diocurves.rationals import is_perfect_square
from diocurves.sieve import count_points_fp
from diocurves.triples import canonical_points, induced_curves, make_triple
from diocurves.verify import HEAVY_RECORDS
from diocurves.weierstrass import (INFINITY, CurveQ, ModelMap, PointQ, add,
                                   complete_the_square, dbl, is_on_curve,
                                   map_point, scalar_mul)

E37 = CurveQ(0, 0, 1, -1, 0)          # trivial torsion
E11 = CurveQ(0, -1, 1, -10, -20)      # Z/5
E14 = CurveQ(1, 0, 1, 4, -6)          # Z/6
E15 = CurveQ(1, 1, 1, 0, 0)           # Z/4
E27 = CurveQ(0, 0, 1, 0, 0)           # Z/3
EK = CurveQ(0, 2, 0, -3, 0)           # y^2 = x(x-1)(x+3), Z/2 x Z/4
# integral, with the order-2 point (-1/4, 1/8): x may have denominator 4
EQ4 = CurveQ(1, 4, 0, 1, 0)


def tate_normal_form(n, d):
    """Kubert's curve y^2 + (1-c)xy - by = x^3 - bx^2 with (0, 0) of order n."""
    d = F(d)
    if n == 7:
        b, c = d ** 3 - d ** 2, d ** 2 - d
    elif n == 8:
        b = (2 * d - 1) * (d - 1)
        c = b / d
    elif n == 9:
        c = d ** 2 * (d - 1)
        b = c * (d ** 2 - d + 1)
    elif n == 10:
        c = d * (d - 1) * (2 * d - 1) / (d - (d - 1) ** 2)
        b = c * d ** 2 / (d - (d - 1) ** 2)
    else:
        m = (3 * d - 3 * d ** 2 - 1) / (d - 1)
        f = m / (1 - d)
        c = f * (m + d - 1)
        b = c * (m + d)
    return CurveQ(1 - c, -b, -b, 0, 0)


# integral (d = 2) and non-integral (d = 5/3) models
KUBERT = [(n, tate_normal_form(n, d)) for n in (7, 8, 9, 10, 12)
          for d in (2, F(5, 3))]


def test_rational_roots():
    assert rational_roots([F(1), F(0), F(-4)]) == [-2, 2]
    assert rational_roots([F(6), F(-5), F(1)]) == [F(1, 3), F(1, 2)]
    assert rational_roots([F(1), F(0), F(2)]) == []
    assert rational_roots([F(0), F(1), F(3)]) == [-3]
    assert rational_roots([F(5)]) == []
    # repeated roots: (x - 1)^2 (x + 2), (2x - 1)^3 and x^3
    assert rational_roots([F(1), F(0), F(-3), F(2)]) == [-2, 1]
    assert rational_roots([F(8), F(-12), F(6), F(-1)]) == [F(1, 2)]
    assert rational_roots([F(1), F(0), F(0), F(0)]) == [0]
    # rational coefficients: (3x + 1)(x - 1) / 6
    assert rational_roots([F(1, 2), F(-1, 3), F(-1, 6)]) == [F(-1, 3), 1]


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def oracle(coeffs):
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in map(F, coeffs)], x, domain="QQ")
        return sorted(F(int(r.p), int(r.q)) for r in poly.ground_roots())

    rng = random.Random(2007)
    polys = []
    for _ in range(200):
        poly = [F(rng.randint(1, 9), rng.randint(1, 5))] + [
            F(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(rng.randint(0, 4))]
        planted = [F(rng.randint(-40, 40), rng.randint(1, 20))
                   for _ in range(rng.randint(0, 4))]
        if planted and rng.random() < 0.2:
            planted.append(planted[0])
        for r in planted:                       # multiply by (x - r)
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
        polys.append(poly)
    curves = [induced_curves(make_triple(1, 3, 8)).curve,
              induced_curves(z2z8_family(3)).curve,
              dataset_record("s6-connell").curve]
    polys += [_division_poly(E, q) for E in curves for q in (3, 4, 5, 7, 8, 9)]
    for poly in polys:
        assert rational_roots(poly) == oracle(poly)


def test_points_with_x():
    assert points_with_x(E11, F(5)) == [PointQ(5, -6), PointQ(5, 5)]
    assert points_with_x(E11, F(6)) == []
    assert points_with_x(EK, F(0)) == [PointQ(0, 0)]


def test_two_torsion_points():
    assert two_torsion_points(E37) == []
    assert two_torsion_points(EK) == [PointQ(-3, 0), PointQ(0, 0), PointQ(1, 0)]
    # one rational two-torsion point on the Z/6 curve
    pts = two_torsion_points(E14)
    assert len(pts) == 1
    assert dbl(E14, pts[0]) == INFINITY


def test_point_order():
    assert point_order(E11, PointQ(5, 5)) == 5
    assert point_order(E15, PointQ(0, 0)) == 4
    assert point_order(EK, PointQ(0, 0)) == 2
    assert point_order(E37, PointQ(0, 0)) is None
    assert point_order(E37, INFINITY) == 1


def test_reduction_bound_divisible_by_torsion():
    assert reduction_torsion_bound(E11) % 5 == 0
    assert reduction_torsion_bound(E15) % 4 == 0
    assert reduction_torsion_bound(EK) % 8 == 0
    assert reduction_torsion_bound(E37) == 1


def _reference_bound_walk(E, prime_count=20):
    """reduction_torsion_bound as it was: each odd number after 3 tested
    with Miller-Rabin.  Returns the bound and every prime it counted at."""
    g, used, p, visited = 0, 0, 3, []
    while used < prime_count:
        visited.append(p)
        try:
            g = math.gcd(g, count_points_fp(E, p))
        except BadReduction:
            pass
        else:
            used += 1
            if g == 1:
                break
        p += 2
        while not is_probable_prime(p):
            p += 2
    return g, visited


@pytest.mark.parametrize("prime_count", [20, 80])
def test_reduction_bound_walks_the_same_primes(monkeypatch, prime_count):
    # 80 good primes run past the first sieve range, which then doubles
    curves = [E11, E15, EK, E37] + _z2z8_members(20)
    want = [_reference_bound_walk(E, prime_count) for E in curves]
    visited = []

    def recording(E, p):
        visited[-1].append(p)
        return count_points_fp(E, p)

    monkeypatch.setattr(torsion, "count_points_fp", recording)
    for E, (bound, primes) in zip(curves, want):
        visited.append([])
        assert reduction_torsion_bound(E, prime_count) == bound
        assert visited[-1] == primes


def test_torsion_trivial():
    T = torsion_subgroup(E37)
    assert T.order == 1 and T.invariants == ()
    assert T.points == (INFINITY,)
    assert T.exact


def test_torsion_cyclic_groups():
    for E, n in ((E11, 5), (E15, 4), (E27, 3), (E14, 6)):
        T = torsion_subgroup(E)
        assert T.order == n
        assert T.invariants == (n,)
        for P in T.points:
            assert is_on_curve(E, P)
            o = point_order(E, P)
            assert o is not None and n % o == 0


def test_torsion_bound_mismatch_raises(monkeypatch):
    # the reduction bound certifies completeness, also under python -O; a
    # fresh curve, since EK may already keep the group from an earlier test
    monkeypatch.setattr(torsion, "reduction_torsion_bound",
                        lambda E, prime_count=20: 2)
    with pytest.raises(ArithmeticError):
        torsion_subgroup(CurveQ(*EK.coefficients()))


def test_torsion_subgroup_is_memoized(monkeypatch):
    # the group is an invariant of the curve, computed once per curve object
    calls = []
    real = torsion.reduction_torsion_bound

    def counting(E, *args):
        calls.append(E)
        return real(E, *args)

    monkeypatch.setattr(torsion, "reduction_torsion_bound", counting)
    E = CurveQ(*EK.coefficients())
    T = torsion_subgroup(E)
    assert torsion_subgroup(E) is T
    assert len(calls) == 1
    # an equal curve built separately computes its own group
    twin = CurveQ(*EK.coefficients())
    assert twin == E
    T2 = torsion_subgroup(twin)
    assert T2 == T and T2 is not T
    assert len(calls) == 2


def test_torsion_subgroup_completes_the_square_once(monkeypatch):
    # the square-completed model, the inverse of its map and its roots are
    # built once per curve, not again for every halve_point call
    calls, inverses = [], []
    real = torsion.complete_the_square
    real_inverse = ModelMap.inverse

    def counting(E):
        calls.append(E)
        return real(E)

    def counting_inverse(M):
        inverses.append(M)
        return real_inverse(M)

    monkeypatch.setattr(torsion, "complete_the_square", counting)
    monkeypatch.setattr(ModelMap, "inverse", counting_inverse)
    E = induced_curves(z2z8_family(F(7, 5))).curve
    assert torsion_subgroup(E).invariants == (2, 8)
    assert calls == [E]
    assert len(inverses) == 1


def test_torsion_z2z4():
    T = torsion_subgroup(EK)
    assert T.invariants == (2, 4)
    assert T.order == 8
    orders = sorted(point_order(EK, P) for P in T.points)
    assert orders == [1, 2, 2, 2, 4, 4, 4, 4]


def test_torsion_z2z2_from_triple():
    E = induced_curves(make_triple(1, 3, 8)).curve
    T = torsion_subgroup(E)
    assert T.invariants[0] == 2 and T.order in (4, 8, 12, 16)
    # the three pair-product points are always there
    for x in (-24, -8, -3):
        assert PointQ(x, 0) in T.points


def test_halve_point_quarters():
    halves = halve_point(EK, PointQ(1, 0))
    assert halves == [PointQ(-1, -2), PointQ(-1, 2), PointQ(3, -6), PointQ(3, 6)]
    for S in halves:
        assert dbl(EK, S) == PointQ(1, 0)
    assert halve_point(EK, PointQ(0, 0)) == []
    assert halve_point(EK, PointQ(-3, 0)) == []


def test_halve_point_infinity():
    halves = halve_point(EK, INFINITY)
    assert halves == [INFINITY, PointQ(-3, 0), PointQ(0, 0), PointQ(1, 0)]


def test_halve_point_generic():
    t = make_triple(1, 3, 8)
    E = induced_curves(t).curve
    from diocurves.triples import canonical_points
    pts = canonical_points(t)
    halves = halve_point(E, pts.x_one)
    assert pts.half_x_one in halves
    assert len(halves) == 4
    for S in halves:
        assert dbl(E, S) == pts.x_one


def reference_halves(E, P):
    """halve_point as it was: for each candidate x of a half, both y from
    points_with_x on the square-completed model, kept when they double to P."""
    Es, M = complete_the_square(E)
    roots = rational_roots([F(1), Es.a2, Es.a4, Es.a6])
    Ps = map_point(E, M, P)
    if Ps.is_infinity:
        found = {INFINITY, *(PointQ(e, 0) for e in roots)}
    elif Ps.y == 0:
        e = Ps.x
        w2, w3 = (is_perfect_square(e - r) for r in roots if r != e)
        xs = [] if None in (w2, w3) else [e + w2 * w3, e - w2 * w3]
        found = {S for x in xs for S in points_with_x(Es, x)
                 if dbl(Es, S) == Ps}
    else:
        ws = [is_perfect_square(Ps.x - e) for e in roots]
        xs = []
        if None not in ws:
            w1, w2, w3 = ws
            for s1, s2, s3 in itertools.product((1, -1), repeat=3):
                if s1 * s2 * s3 * w1 * w2 * w3 == Ps.y:
                    xs.append(Ps.x + s1 * s2 * w1 * w2 + s1 * s3 * w1 * w3
                              + s2 * s3 * w2 * w3)
        found = {S for x in xs for S in points_with_x(Es, x)
                 if dbl(Es, S) == Ps}
    Minv = M.inverse()
    return sorted((map_point(Es, Minv, S) for S in found),
                  key=lambda S: (0, 0, 0) if S.is_infinity else (1, S.x, S.y))


def _halving_cases():
    """(curve, points) on curves with full two-torsion: torsion points,
    stock points, their doubles and their sums with two-torsion."""
    cases = [(EK, [INFINITY, PointQ(1, 0), PointQ(0, 0), PointQ(-3, 0),
                   PointQ(-1, 2), PointQ(3, -6)])]
    triples = [make_triple(1, 3, 8), make_triple(F(3, 4), 7, F(315, 4))]
    triples += [z2z8_family(T) for T in (F(7, 5), F(-11, 3), F(5, 9))]
    for t in triples:
        ic = induced_curves(t)
        E = ic.curve
        pts = list(canonical_points(t, ic).all_points())
        pts += [dbl(E, P) for P in pts] + [add(E, pts[0], P) for P in pts]
        cases.append((E, pts + list(torsion_subgroup(E).points)))
    for rid in ("s3-rank9", "s6-connell"):
        rec = dataset_record(rid)
        pts = list(rec.points[:3])
        cases.append((rec.curve, pts + [dbl(rec.curve, P) for P in pts]))
    return cases


def test_halve_point_matches_reference():
    halved = 0
    for E, pts in _halving_cases():
        for P in pts:
            halves = halve_point(E, P)
            assert halves == reference_halves(E, P), (E, P)
            halved += bool(halves)
    assert halved > 40


def test_halve_point_builds_no_square_root_of_y(monkeypatch):
    # every half is written in closed form: points_with_x is never called
    calls = []
    real = torsion.points_with_x

    def counting(E, x0):
        calls.append(x0)
        return real(E, x0)

    monkeypatch.setattr(torsion, "points_with_x", counting)
    halves = 0
    for E, pts in _halving_cases():
        for P in pts:
            halves += len(halve_point(E, P))
    assert halves > 100
    assert calls == []


def test_halve_point_raises_when_a_half_does_not_double(monkeypatch):
    # the doubling check is a raise, not an assert, so it holds under -O
    monkeypatch.setattr(torsion, "_closed_form_halves",
                        lambda roots, P: iter([INFINITY]))
    with pytest.raises(ArithmeticError, match="does not double"):
        halve_point(EK, PointQ(1, 0))


def test_halve_point_needs_full_two_torsion():
    with pytest.raises(FormMismatch):
        halve_point(E14, PointQ(2, 2))
    with pytest.raises(FormMismatch):
        descent_image(E37, PointQ(0, 0))


def test_halving_obstruction_values():
    # roots ascend: e = (-3, 0, 1)
    assert descent_image(EK, INFINITY) == (1, 1, 1)
    assert descent_image(EK, PointQ(1, 0)) == (1, 1, 1)
    assert descent_image(EK, PointQ(0, 0)) == (3, -3, -1)
    assert descent_image(EK, PointQ(-3, 0)) == (3, -3, -1)
    # images multiply like the points add: T(-3) + T(0) = T(1)
    prod = tuple(a * b for a, b in zip((3, -3, -1), (3, -3, -1)))
    from diocurves.rationals import square_class
    from fractions import Fraction
    assert tuple(square_class(Fraction(v)) for v in prod) == (1, 1, 1)


def test_halving_obstruction_is_trivial_on_doubles():
    t = make_triple(3, 8, 21)
    E = induced_curves(t).curve
    from diocurves.triples import canonical_points
    pts = canonical_points(t)
    D = dbl(E, pts.x_zero)
    assert descent_image(E, D) == (1, 1, 1)
    assert halve_point(E, D) != []


def test_halving_obstruction_supported_path():
    # the classes read off the descent support agree with plain factoring
    # of each difference x - e_i, with the e_i solved afresh
    from diocurves.rationals import square_class
    from diocurves.triples import canonical_points
    from diocurves.weierstrass import invariants
    t = make_triple(1, 3, 8)
    E = induced_curves(t).curve
    inv = invariants(E)
    roots = rational_roots([4, inv.b2, 2 * inv.b4, inv.b6])
    points = [P for P in (*canonical_points(t).all_points(),
                          *naive_point_search(E, math.log(40)))
              if point_order(E, P) is None]
    assert len(points) > 6
    for P in points:
        assert descent_image(E, P) == tuple(square_class(P.x - e)
                                            for e in roots)


def _reference_point_order(E, P, cap=12):
    """The plain add-chain scan, without the integrality exit."""
    acc = P
    for n in range(1, cap + 1):
        if acc.is_infinity:
            return n
        acc = add(E, acc, P)
    return None


def _reference_torsion(E, prime_count=20):
    """The fixpoint-closure assembly torsion_subgroup used before it built
    the group as the direct sum of its 2-primary and odd parts."""
    bound = reduction_torsion_bound(E, prime_count)
    two = two_torsion_points(E)
    pts = {INFINITY, *two}
    if len(two) == 3:
        if bound % 4 == 0:
            order4 = []
            for T in two:
                for S in halve_point(E, T):
                    if _reference_point_order(E, S) == 4:
                        order4.append(S)
                        pts.add(S)
            if bound % 8 == 0 and order4:
                for S in order4:
                    for R in halve_point(E, S):
                        if _reference_point_order(E, R) == 8:
                            pts.add(R)
    else:
        for q in (4, 8):
            if bound % q == 0:
                for P in _torsion_candidates_from_poly(E, q):
                    if _reference_point_order(E, P) is not None:
                        pts.add(P)
    for q in (3, 5, 7, 9):
        if bound % q == 0:
            for P in _torsion_candidates_from_poly(E, q):
                if _reference_point_order(E, P) is not None:
                    pts.add(P)
    changed = True
    while changed:
        changed = False
        frozen = list(pts)
        for i, P in enumerate(frozen):
            for Q in frozen[i:]:
                S = add(E, P, Q)
                if S not in pts:
                    pts.add(S)
                    changed = True
        assert len(pts) <= 16
    order = len(pts)
    n_two = sum(1 for P in pts if not P.is_infinity and dbl(E, P).is_infinity)
    if order == 1:
        shape = ()
    elif n_two == 3:
        shape = (2, order // 2)
    else:
        shape = (order,)
    assert shape in ALLOWED_SHAPES and bound % order == 0
    points = sorted(pts, key=lambda P: (0, 0, 0) if P.is_infinity
                    else (1, P.x, P.y))
    return tuple(points), order, shape, bound


def _z2z8_members(count=30, seed=404):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        T = F(rng.randint(-60, 60), rng.randint(1, 60))
        if T not in (0, 1, -1):
            out.append(induced_curves(z2z8_family(T)).curve)
    return out


def _light_record_curves():
    return [induced_curves(rec.triple).curve for rec in paper_dataset()
            if rec.record_id not in HEAVY_RECORDS]


TORSION_CASES = {
    "small": lambda: [E11, E14, E15, E27, EK, E37, EQ4],
    "heavy-records": lambda: [dataset_record(r).curve
                              for r in sorted(HEAVY_RECORDS)],
    "light-records": _light_record_curves,
    "z2z8-family": _z2z8_members,
    "kubert": lambda: [E for _, E in KUBERT],
}


@pytest.mark.parametrize("case", sorted(TORSION_CASES))
def test_torsion_subgroup_matches_reference(case):
    for E in TORSION_CASES[case]():
        T = torsion_subgroup(E)
        assert (T.points, T.order, T.invariants, T.reduction_bound) == \
            _reference_torsion(E), E


def test_kubert_curves_have_their_torsion():
    for n, E in KUBERT:
        assert _reference_point_order(E, PointQ(0, 0)) == n
        T = torsion_subgroup(E)
        assert T.order % n == 0 and PointQ(0, 0) in T.points


def test_point_order_matches_add_chain():
    cases = []                                  # (curve, points)
    for E in (E11, E14, E15, E27, EK, E37, EQ4):
        pts = [P for x in range(-5, 6) for P in points_with_x(E, F(x))]
        pts += [scalar_mul(E, k, P) for P in pts[:4] for k in (2, 3)]
        cases.append((E, list(torsion_subgroup(E).points) + pts))
    for rid in sorted(HEAVY_RECORDS):
        rec = dataset_record(rid)
        cases.append((rec.curve, list(rec.torsion_points + rec.points[:3])))
    for rec in paper_dataset()[:20]:
        t = rec.triple
        ic = induced_curves(t)
        cases.append((ic.curve, list(canonical_points(t, ic).all_points())))
    for _, E in KUBERT:
        cases.append((E, list(torsion_subgroup(E).points)))
    integral = non_integral = 0
    for E, pts in cases:
        if all(a.denominator == 1 for a in E.coefficients()):
            integral += 1
        else:
            non_integral += 1
        for P in pts:
            assert point_order(E, P) == _reference_point_order(E, P), (E, P)
    assert integral and non_integral
    assert point_order(EQ4, PointQ(F(-1, 4), F(1, 8))) == 2


def test_torsion_subgroup_makes_no_membership_check(monkeypatch):
    # the group halves only points it built on the curve itself, so no
    # halving re-checks membership; the public halve_point still does
    calls = []
    real = weierstrass._require_on_curve

    def counting(E, P):
        calls.append(P)
        return real(E, P)

    monkeypatch.setattr(weierstrass, "_require_on_curve", counting)
    monkeypatch.setattr(torsion, "_require_on_curve", counting)
    E = induced_curves(z2z8_family(F(7, 5))).curve
    T = torsion_subgroup(E)
    assert T.invariants == (2, 8)
    assert calls == []
    halve_point(E, two_torsion_points(E)[0])
    assert len(calls) == 1
