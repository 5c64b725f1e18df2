import pickle
import random
import re
from fractions import Fraction as F

import pytest

from diocurves.sieve import SieveResult
from diocurves.triples import make_triple
from diocurves.verify import CheckResult
from diocurves.errors import PointNotOnCurve, SingularCurve
from diocurves.torsion import torsion_subgroup
from diocurves.weierstrass import (
    INFINITY,
    IDENTITY_MAP,
    CurveQ,
    Invariants,
    ModelMap,
    PointQ,
    _coefficient_scale,
    add,
    apply_map,
    clear_denominators,
    complete_the_square,
    curve_from_c4c6,
    dbl,
    find_isomorphism,
    invariants,
    is_on_curve,
    map_point,
    minimal_model,
    neg,
    scalar_mul,
    sub,
)
from height_reference import canonical_height, gram_certificate, height_pairing

# y^2 + y = x^3 - x, conductor 37, the classic rank-one workhorse
E37 = CurveQ(0, 0, 1, -1, 0)
G37 = PointQ(0, 0)


def test_invariants_oracle():
    inv = invariants(E37)
    assert (inv.b2, inv.b4, inv.b6, inv.b8) == (0, -2, 1, -1)
    assert (inv.c4, inv.c6) == (48, -216)
    assert inv.disc == 37
    assert inv.j == F(110592, 37)


def reference_invariants(E):
    """The invariants as the plain Fraction formulas give them."""
    a1, a2, a3, a4, a6 = E.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return Invariants(b2, b4, b6, b8, c4, c6, disc, c4 ** 3 / disc)


def test_invariants_match_fraction_formulas():
    # the invariants are computed in integers over the coefficient scale;
    # random non-integral models with a1, a3 != 0 agree with the plain
    # formulas, value and type
    rng = random.Random(12)
    done = 0
    while done < 200:
        coeffs = [F(rng.randint(-99, 99) or 1, rng.randint(1, 60))
                  for _ in range(5)]
        try:
            E = CurveQ(*coeffs)
        except SingularCurve:
            continue
        assert E.a1 and E.a3 and _coefficient_scale(E) > 1
        got = invariants(E)
        assert got == reference_invariants(E), E
        assert all(type(v) is F for v in vars(got).values())
        done += 1
    for E in (E37, CurveQ(1, 0, 1, 4, -6), CurveQ(F(1, 2), 0, 0, 1, 0)):
        assert invariants(E) == reference_invariants(E)


def test_singular_rejected():
    with pytest.raises(SingularCurve):
        CurveQ(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurve):
        CurveQ(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)
    # a non-integral model of y^2 = (x - 1/2)^2 (x + 1/3), with a1 and a3
    # set: the integer discriminant over the scale is still zero
    a1, a3 = F(1, 3), F(1, 5)
    alpha, beta = F(1, 2), F(-1, 3)
    b2 = -4 * (2 * alpha + beta)
    b4 = 2 * (alpha * alpha + 2 * alpha * beta)
    b6 = -4 * alpha * alpha * beta
    with pytest.raises(SingularCurve):
        CurveQ(a1, (b2 - a1 * a1) / 4, a3, (b4 - a1 * a3) / 2,
               (b6 - a3 * a3) / 4)


def test_group_law_small_multiples():
    # multiples of (0,0) on 37a1, frozen from independent computation
    want = {
        1: PointQ(0, 0),
        2: PointQ(1, 0),
        3: PointQ(-1, -1),
        4: PointQ(2, -3),
        5: PointQ(F(1, 4), F(-5, 8)),
        6: PointQ(6, 14),
    }
    for n, P in want.items():
        assert scalar_mul(E37, n, G37) == P
        assert is_on_curve(E37, P)
    assert scalar_mul(E37, 0, G37) == INFINITY
    assert scalar_mul(E37, -2, G37) == neg(E37, want[2])


def test_group_law_consistency():
    P = scalar_mul(E37, 3, G37)
    Q = scalar_mul(E37, 5, G37)
    assert add(E37, P, Q) == scalar_mul(E37, 8, G37)
    assert sub(E37, Q, P) == scalar_mul(E37, 2, G37)
    assert add(E37, P, neg(E37, P)) == INFINITY
    assert add(E37, INFINITY, P) == P
    assert add(E37, P, INFINITY) == P
    assert dbl(E37, INFINITY) == INFINITY


def test_off_curve_point_rejected():
    with pytest.raises(PointNotOnCurve):
        add(E37, PointQ(0, 1), G37)
    with pytest.raises(PointNotOnCurve):
        neg(E37, PointQ(5, 5))


# y^2 = x(x-1)(x+3) has full two-torsion, so halving accepts the curve and
# only the point can be at fault; (2, 1) is off it, (-1, 2) on it
EK = CurveQ(0, 2, 0, -3, 0)
ON_EK, OFF_EK = PointQ(-1, 2), PointQ(2, 1)


def _public_entries():
    from diocurves import descent, torsion
    return {
        "add": lambda P, Q: add(EK, P, Q),
        "dbl": lambda P, Q: dbl(EK, P),
        "sub": lambda P, Q: sub(EK, P, Q),
        "neg": lambda P, Q: neg(EK, P),
        "scalar_mul": lambda P, Q: scalar_mul(EK, 3, P),
        "map_point": lambda P, Q: map_point(EK, ModelMap(2, 1, 0, 0), P),
        "point_order": lambda P, Q: torsion.point_order(EK, P),
        "halve_point": lambda P, Q: torsion.halve_point(EK, P),
        "descent_image": lambda P, Q: descent.descent_image(EK, P),
        "canonical_height": lambda P, Q: canonical_height(EK, P),
        "height_pairing": lambda P, Q: height_pairing(EK, P, Q),
        "gram_certificate": lambda P, Q: gram_certificate(EK, [P, Q]),
    }


@pytest.mark.parametrize("entry", sorted(_public_entries()))
def test_public_entries_reject_off_curve_points(entry):
    # membership is checked once at the boundary; internal loops skip it
    fn = _public_entries()[entry]
    fn(ON_EK, ON_EK)
    with pytest.raises(PointNotOnCurve):
        fn(OFF_EK, ON_EK)
    if entry in ("add", "sub", "height_pairing", "gram_certificate"):
        with pytest.raises(PointNotOnCurve):
            fn(ON_EK, OFF_EK)


def test_two_torsion_doubles_to_infinity():
    # y^2 = x(x-1)(x+3)
    E = CurveQ(0, 2, 0, -3, 0)
    for x in (0, 1, -3):
        T = PointQ(x, 0)
        assert is_on_curve(E, T)
        assert dbl(E, T) == INFINITY


def test_apply_map_round_trip():
    M = ModelMap(F(2, 3), F(-1, 2), 5, F(7, 4))
    E2 = apply_map(E37, M)
    assert apply_map(E2, M.inverse()) == E37
    assert M.inverse().inverse() == M
    # discriminant scales by u^12
    assert invariants(E2).disc == invariants(E37).disc / M.u ** 12
    assert invariants(E2).j == invariants(E37).j
    P2 = map_point(E37, M, G37)
    assert is_on_curve(E2, P2)
    assert map_point(E2, M.inverse(), P2) == G37
    # maps respect the group structure
    assert map_point(E37, M, dbl(E37, G37)) == dbl(E2, P2)


def test_complete_the_square():
    E = CurveQ(1, F(1, 2), 3, F(-7, 3), 2)
    Es, M = complete_the_square(E)
    assert Es.a1 == 0 and Es.a3 == 0
    i1, i2 = invariants(E), invariants(Es)
    assert (i1.b2, i1.b4, i1.b6, i1.b8) == (i2.b2, i2.b4, i2.b6, i2.b8)
    assert Es.a2 == i1.b2 / 4 and Es.a4 == i1.b4 / 2 and Es.a6 == i1.b6 / 4
    assert apply_map(E, M) == Es


def test_find_isomorphism_generic():
    M = ModelMap(F(3, 2), F(5, 4), F(-1, 2), 7)
    E2 = apply_map(E37, M)
    found = find_isomorphism(E37, E2)
    assert found is not None
    assert apply_map(E37, found) == E2
    # the found map must actually carry points over
    assert is_on_curve(E2, map_point(E37, found, G37))


def test_find_isomorphism_j_zero_and_1728():
    E0 = CurveQ(0, 0, 1, 0, 0)            # j = 0
    M = ModelMap(F(1, 3), 2, 1, F(5, 2))
    E0b = apply_map(E0, M)
    found = find_isomorphism(E0, E0b)
    assert found is not None and apply_map(E0, found) == E0b

    E1728 = CurveQ(0, 0, 0, 1, 0)          # j = 1728
    M = ModelMap(F(1, 2), -3, F(2, 7), 0)
    E1728b = apply_map(E1728, M)
    found = find_isomorphism(E1728, E1728b)
    assert found is not None and apply_map(E1728, found) == E1728b


def test_find_isomorphism_rejects_twists():
    # same j, quadratic twist: no rational change of variables exists
    assert find_isomorphism(CurveQ(0, 0, 0, 1, 0), CurveQ(0, 0, 0, 4, 0)) is None
    assert find_isomorphism(CurveQ(0, 0, 0, 0, 2), CurveQ(0, 0, 0, 0, 3)) is None
    # different j
    assert find_isomorphism(E37, CurveQ(0, 0, 0, 1, 0)) is None


def test_find_isomorphism_scaled_1728():
    found = find_isomorphism(CurveQ(0, 0, 0, 1, 0), CurveQ(0, 0, 0, 16, 0))
    assert found is not None
    assert apply_map(CurveQ(0, 0, 0, 1, 0), found) == CurveQ(0, 0, 0, 16, 0)


def test_curve_from_c4c6_oracle():
    assert curve_from_c4c6(48, -216) == E37
    assert curve_from_c4c6(0, -216) == CurveQ(0, 0, 1, 0, 0)


@pytest.mark.parametrize("c4, c6, condition", [
    (0, -1000, "24 does not divide b2^2 - c4"),
    (0, -996, "216 does not divide -b2^3 + 36 b2 b4 - c6"),
    (1, -919, "b4 - a1 a3 is odd"),
    # nonsingular: c4^3 != c6^2
    (220056481, -3214389427129, "b4 - a1 a3 is odd"),
], ids=["mod-24", "mod-216", "odd-a4", "nonsingular"])
def test_curve_from_c4c6_unrealizable_is_value_error(c4, c6, condition):
    # no integral model has these invariants; the curve need not be
    # singular, so the error names the failed condition instead
    assert c4 ** 3 != c6 ** 2
    with pytest.raises(ValueError, match=f"^\\({c4},{c6}\\) is not "
                       f"realizable over Z: {re.escape(condition)}"):
        curve_from_c4c6(c4, c6)


@pytest.mark.parametrize("c4, c6", [(0, 0), (144, -1728)])
def test_curve_from_c4c6_zero_discriminant_is_singular(c4, c6):
    # realizable, by y^2 = x^3 and y^2 = (x - 1)^2 (x + 2)
    assert c4 ** 3 == c6 ** 2
    with pytest.raises(SingularCurve):
        curve_from_c4c6(c4, c6)


def test_minimal_model_recovers_reduced_curve():
    # 37a1 moved by a full change of variables, then 11a1 and 15a1 scaled
    # by u = 1/6, which the reduction must undo at both 2 and 3
    for E, M in ((E37, ModelMap(F(1, 2), 1, 2, 3)),
                 (CurveQ(0, -1, 1, -10, -20), ModelMap(F(1, 6), 0, 0, 0)),
                 (CurveQ(1, 1, 1, -10, -10), ModelMap(F(1, 6), 0, 0, 0))):
        E_big = apply_map(E, M)
        res = minimal_model(E_big)
        assert res.complete
        assert res.curve == E
        assert apply_map(E_big, res.map) == E
        # already-minimal input comes back unchanged
        res2 = minimal_model(E)
        assert res2.curve == E and res2.complete
        assert res2.map == IDENTITY_MAP


def test_minimal_model_with_rational_mess():
    M = ModelMap(F(5, 6), F(7, 2), F(-2, 3), F(11, 30))
    E_big = apply_map(E37, M)
    res = minimal_model(E_big)
    assert res.curve == E37
    assert apply_map(E_big, res.map) == E37


def test_minimal_model_backoff_at_2():
    # c4 = -48, c6 = 0, disc = -64: v(c4) // 4 = 1 but v(disc) // 12 = 0,
    # so e = 0 at 2 and the model stays; dividing by 2 would give the
    # pair (-3, 0), which no integral model has
    E = CurveQ(0, 0, 0, 1, 0)
    res = minimal_model(E)
    assert res.curve == E and res.complete
    assert res.map == IDENTITY_MAP


def test_minimal_model_backoff_at_3():
    # c4 = 0, c6 = -2^5 3^8, disc = -2^4 3^13: e = 1 at 3, but dividing
    # by 3 would leave v_3(c6) = 2, which fails Kraus's condition at 3,
    # so e backs off to 0 and the model stays
    E = CurveQ(0, 0, 0, 0, 243)
    res = minimal_model(E)
    assert res.curve == E and res.complete
    assert res.map == IDENTITY_MAP


def test_memo_is_invisible_to_equality_hash_repr_and_pickle():
    # a rational model with full two-torsion, so clearing, completing the
    # square and the heights all leave data on the curve object
    coeffs = (0, F(35, 4), 0, 18, 9)     # the {1,3,8} curve, x scaled by 4
    E = CurveQ(*coeffs)
    P = PointQ(0, 3)
    h = canonical_height(E, P)
    assert torsion_subgroup(E).invariants == (2, 2)
    assert set(vars(E)) > {"a1", "a2", "a3", "a4", "a6"}
    fresh = CurveQ(*coeffs)
    assert (E == fresh and hash(E) == hash(fresh)
            and repr(E) == repr(fresh))
    back = pickle.loads(pickle.dumps(E))
    assert (back == fresh and hash(back) == hash(fresh)
            and repr(back) == repr(fresh))
    assert invariants(back) == invariants(fresh)
    assert clear_denominators(back) == clear_denominators(fresh)
    assert canonical_height(back, P) == canonical_height(fresh, P) == h


def test_value_types_and_records_keep_their_behaviour():
    # the value types and records write their methods in the source; each
    # is immutable, compares and hashes by its fields, keeps its repr, and
    # crosses a process boundary by pickle
    E = CurveQ(0, 0, 1, -1, 0)
    P = PointQ(F(1, 4), F(-5, 8))
    M = ModelMap(2, F(1, 3), 0, -1)
    t = make_triple(1, 3, 8)
    score = SieveResult(8.5, 160, 1)
    for obj, field in ((E, "a1"), (P, "x"), (M, "u"), (t, "a"),
                       (score, "value"), (invariants(E), "j")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    assert hash(P) == hash((P.x, P.y)) and hash(E) == hash(E.coefficients())
    assert hash(M) == hash((M.u, M.r, M.s, M.t))
    assert hash(score) == hash((8.5, 160, 1))
    assert PointQ(1, 2) != (1, 2) and (1, 2) != PointQ(1, 2)
    assert E != E.coefficients() and M != (M.u, M.r, M.s, M.t)
    assert PointQ(1, 2) == PointQ(F(1), 2) and {PointQ(1, 2), PointQ(1, 2)} \
        == {PointQ(F(2, 2), F(4, 2))}
    assert (repr(P), repr(INFINITY), repr(E), repr(t)) == (
        "[1/4,-5/8]", "O", "CurveQ[0,0,1,-1,0]", "{1, 3, 8}")
    assert repr(M) == ("ModelMap(u=Fraction(2, 1), r=Fraction(1, 3), "
                       "s=Fraction(0, 1), t=Fraction(-1, 1))")
    assert repr(score) == \
        "SieveResult(value=8.5, primes_used=160, primes_skipped=1)"
    tors = torsion_subgroup(E)
    check = CheckResult("doubling-identity", "s1", True, "ok", 0.25)
    for obj in (tors, check, P, M):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
        assert hash(back) == hash(obj) and repr(back) == repr(obj)
    assert repr(tors) == "TorsionSubgroup(trivial)"
