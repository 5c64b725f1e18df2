import functools
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

import height_reference
from diocurves import cli, descent, verify
from diocurves.descent import (
    IndependenceResult,
    RankBound,
    _Classes,
    _coprime_basis,
    _descent_values,
    descent_image,
    independent_mod_two,
    naive_point_search,
    rank_lower_bound,
)
from diocurves.errors import (
    FactorizationIncomplete,
    FormMismatch,
    SingularCurve,
)
from diocurves.factoring import DEFAULT_BUDGET, factor_best_effort
from diocurves.families import FAMILY_CONSTRUCTORS, K_PLUSMINUS, dataset_record
from height_reference import (
    _det,
    _duplication_data,
    _eval_pair_mod,
    canonical_height,
    gram_certificate,
    height_pairing,
)
from diocurves.rationals import log_int, naive_height, square_class
from diocurves.torsion import (halve_point, point_order, points_with_x,
                               torsion_subgroup)
from diocurves.triples import canonical_points, induced_curves, make_triple
from diocurves.weierstrass import (
    INFINITY,
    CurveQ,
    PointQ,
    add,
    clear_denominators,
    dbl,
    invariants,
    map_point,
    minimal_model,
    scalar_mul,
    sub,
)

E37 = CurveQ(0, 0, 1, -1, 0)
P37 = PointQ(0, 0)                    # generator, infinite order
H37 = 0.0511114082399688              # canonical height of the generator

FERMAT = make_triple(F(1), F(3), F(8))
IC = induced_curves(FERMAT)
CP = canonical_points(FERMAT, IC)


def test_duplication_bezout_constant():
    # x(2P) = F/g; the Bezout combination U F + V g certifies gcd | C
    data = _duplication_data(E37)
    assert data.bezout_constant == 37


class _Refine(Exception):
    """A hidden prime of the gcd support surfaced; retry."""

    def __init__(self, factor):
        self.factor = factor


def reference_height_run(Ei, Pi, eps, budget=DEFAULT_BUDGET):
    """_height_run as it was with per-prime p-adic shadows and mpmath.

    C is factored within budget; a composite cofactor W is shadowed mod W
    and split (then the run restarts) when a step's gcd meets it.
    """
    mpmath = pytest.importorskip("mpmath")
    data = _duplication_data(Ei)
    C = data.bezout_constant
    fac = factor_best_effort(C, budget)
    caps = dict(fac.factors)
    W = fac.cofactor
    for _ in range(12):
        try:
            return _reference_run(mpmath, data, caps, W, Pi, eps)
        except _Refine as r:
            new = [p for p, _ in factor_best_effort(r.factor, budget).factors
                   if p not in caps]
            if not new:
                raise FactorizationIncomplete("gcd support would not split")
            for p in new:
                caps[p] = 0
                while C % p ** (caps[p] + 1) == 0:
                    caps[p] += 1
                while W % p == 0:
                    W //= p
    raise FactorizationIncomplete("gcd support would not stabilize")


def _valuation_capped(n, p, cap):
    if n == 0:
        return cap
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def _reference_run(mpmath, data, caps, W, Pi, eps):
    steps = max(3, math.ceil(math.log(max(data.step_bound, 1.0) / (3 * eps))
                             / math.log(4.0)))
    a, b = Pi.x.numerator, Pi.x.denominator
    total = log_int(max(abs(a), b)) if max(abs(a), b) > 1 else 0.0
    # p-adic shadows: value pair and remaining exponent
    shadows = {}
    for p, cap in caps.items():
        k = (steps + 2) * cap + 8
        shadows[p] = (a % p ** k, b % p ** k, k)
    wshadow = (a % W, b % W) if W > 1 else None

    dps = 40 + steps + int(
        (data.log_rho_max - min(0.0, data.log_rho_min)) / math.log(10))
    with mpmath.workdps(dps):
        scale = mpmath.mpf(max(abs(a), b))
        xr = mpmath.mpf(a) / scale
        zr = mpmath.mpf(b) / scale
        b2, b4, b6, b8 = data.b
        weight = 0.25
        for _ in range(steps):
            g = 1
            pending = {}
            for p, (X, Z, k) in shadows.items():
                Fp, Gp = _eval_pair_mod(data.b, X, Z, p ** k)
                v = min(_valuation_capped(Fp, p, k),
                        _valuation_capped(Gp, p, k))
                if v > caps[p]:
                    raise ArithmeticError(
                        f"gcd of a duplication step exceeds its cap at {p}")
                pending[p] = (Fp, Gp, k, v)
                g *= p ** v
            if wshadow is not None:
                Fw, Gw = _eval_pair_mod(data.b, *wshadow, W)
                d = math.gcd(Fw, Gw, W)
                if d > 1:
                    raise _Refine(d)

            Fr = ((xr * xr - b4 * zr * zr) * xr - 2 * b6 * zr ** 3) * xr \
                - b8 * zr ** 4
            Gr = ((4 * xr + b2 * zr) * xr + 2 * b4 * zr * zr) * xr * zr \
                + b6 * zr ** 4
            rho = max(abs(Fr), abs(Gr))
            total += weight * (float(mpmath.log(rho))
                               - (log_int(g) if g > 1 else 0.0))
            xr, zr = Fr / rho, Gr / rho

            for p, (Fp, Gp, k, v) in pending.items():
                m2 = p ** (k - v)
                inv_unit = pow(g // p ** v, -1, m2)
                shadows[p] = ((Fp // p ** v) % m2 * inv_unit % m2,
                              (Gp // p ** v) % m2 * inv_unit % m2, k - v)
            if wshadow is not None:
                inv_g = pow(g, -1, W)
                wshadow = (Fw * inv_g % W, Gw * inv_g % W)
            weight /= 4.0
    return float(total)


# Euler triples whose induce runs fell back to the height Gram loop before
# descent saturated
EULER_FALLBACKS = ((F(3), F(5), F(16)), (F(4), F(3, 4), F(35, 4)),
                   (F(5), F(3), F(16)), (F(6), F(4, 3), F(40, 3)))


def _height_cases():
    cases = [(E37, [P37])]
    for rid in ("s3-rank9", "s4-rank7", "s5-rank4", "s6-connell", "s6-big"):
        rec = dataset_record(rid)
        cases.append((rec.curve, list(rec.points)))
    for t in HEIGHTS_WINNING + EULER_FALLBACKS:
        E, pts = _search_input(make_triple(*t))
        cases.append((E, [P for P in pts if point_order(E, P) is None]))
    return cases


def test_height_run_matches_reference():
    """Integer heights agree with the mpmath reference within eps / 10.

    Both read the same exact g_n.  The fixed-point orbit rounds once per
    step: that moves the smaller coordinate of the max-normalized point by
    less than 2^-prec and changes the next log rho by at most
    4 (rho_max / rho_min) 2^-prec <= 4 * 10^-(39 + steps).  Over the
    series that is far below eps; what is left is float rounding.
    """
    for E, pts in _height_cases():
        Ei, M = clear_denominators(E)
        for P in pts:
            Pi = map_point(E, M, P)
            for eps in (1e-3, 1e-6, 1e-9):
                new = height_reference._height_run(Ei, Pi, eps)
                ref = reference_height_run(Ei, Pi, eps)
                assert abs(new - ref) <= eps / 10, (E, P, eps, new, ref)


def test_canonical_height_known_value():
    h = canonical_height(E37, P37, eps=1e-9)
    assert abs(h - H37) < 2e-9


def canonical_height_reference(E, P, doublings=8):
    """Slow exact-arithmetic reference: h(x(2^n P)) / 4^n."""
    if P.is_infinity or point_order(E, P) is not None:
        return 0.0
    Q = P
    for _ in range(doublings):
        Q = add(E, Q, Q)
    return naive_height(Q.x) / 4.0 ** doublings


def test_canonical_height_agrees_with_doubling_limit():
    ref = canonical_height_reference(E37, P37, doublings=10)
    assert abs(canonical_height(E37, P37, eps=1e-9) - ref) < 1e-6


def test_canonical_height_torsion_is_zero():
    assert canonical_height(E37, INFINITY) == 0.0
    E15 = CurveQ(1, 1, 1, 0, 0)
    assert canonical_height(E15, PointQ(0, 0), eps=1e-6) == 0.0


def test_canonical_height_quadraticity():
    h1 = canonical_height(E37, P37, eps=1e-8)
    for n in (2, 3, 5):
        hn = canonical_height(E37, scalar_mul(E37, n, P37), eps=1e-8)
        assert abs(hn - n * n * h1) < 5e-8


def test_canonical_height_eps_consistency():
    # independent runs at different accuracies agree within the sum
    R = CP.half_x_one
    E = IC.curve
    loose = canonical_height(E, R, eps=1e-3)
    tight = canonical_height(E, R, eps=1e-6)
    assert loose > 0
    assert abs(loose - tight) <= 1e-3 + 1e-6


def test_height_pairing_diagonal_and_symmetry():
    E = IC.curve
    P, R = CP.x_zero, CP.half_x_one
    hP = canonical_height(E, P, eps=1e-6)
    assert abs(height_pairing(E, P, P, eps=1e-4) - hP) < 1e-3
    assert abs(height_pairing(E, P, R, eps=1e-4)
               - height_pairing(E, R, P, eps=1e-4)) < 1e-3


def test_height_pairing_negated_pair():
    # P + Q = O forces the difference form of the pairing
    E = IC.curve
    P = CP.x_zero
    negP = PointQ(P.x, -P.y - E.a1 * P.x - E.a3)
    hP = canonical_height(E, P, eps=1e-6)
    assert abs(height_pairing(E, P, negP, eps=1e-4) + hP) < 1e-3


def test_gram_certificate_torsion_point():
    two = PointQ(-IC.triple.a * IC.triple.b, F(0))
    g = gram_certificate(IC.curve, [two], eps=1e-3)
    assert abs(g.determinant) <= g.error_bound


def test_gram_certificate_single_generator():
    g = gram_certificate(IC.curve, [CP.half_x_one], eps=1e-3)
    assert g.independent
    assert g.determinant > g.error_bound


def test_gram_certificate_permutation_stable():
    rec = dataset_record("s5-rank4")
    pts = list(rec.points)
    g1 = gram_certificate(rec.curve, pts, eps=1e-3)
    g2 = gram_certificate(rec.curve, list(reversed(pts)), eps=1e-3)
    assert g1.independent and g2.independent
    assert abs(g1.determinant - g2.determinant) <= \
        g1.error_bound + g2.error_bound


def _float_det(rows):
    """The float Gaussian elimination gram_certificate used before."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


# near-singular Gram matrices on which float elimination gets the sign,
# or the zero-ness, of the determinant wrong
NEG_DET = [[0.4, 0.08, 0.56], [0.08, 0.02, 0.1], [0.56, 0.1, 0.82]]
POS_DET = [[0.2, 0.16, 0.06], [0.16, 0.37, 0.07], [0.06, 0.07, 0.02]]


def test_exact_det_where_float_elimination_fails(monkeypatch):
    assert _float_det(NEG_DET) > 0 and _det(NEG_DET) < 0
    assert _float_det(POS_DET) == 0 and _det(POS_DET) > 0
    assert _det([[2.0, 1.0], [1.0, 2.0]]) == 3
    assert _det([[0.0, 1.0], [1.0, 0.0]]) == -1
    # the certificate reads the exact minor: with a tiny eps the float
    # determinant would clear its error bound and certify a false rank 3
    monkeypatch.setattr(height_reference, "canonical_height",
                        lambda E, P, eps: NEG_DET[P][P])
    monkeypatch.setattr(height_reference, "height_pairing",
                        lambda E, P, Q, eps: NEG_DET[P][Q])
    cert = gram_certificate(E37, [0, 1, 2], eps=1e-30)
    assert _float_det(NEG_DET) > cert.error_bound
    assert not cert.independent and cert.determinant < 0
    assert gram_certificate(E37, [0, 1], eps=1e-30).independent


def test_descent_image_infinity_trivial():
    assert descent_image(IC.curve, INFINITY) == (1, 1, 1)


def test_descent_image_x_zero():
    # substituting x = 0 leaves the classes of (bc, ac, ab) = (24, 8, 3)
    img = descent_image(IC.curve, CP.x_zero)
    assert img == (6, 2, 3)


def test_descent_image_x_one_trivial():
    # [1, rst] is twice another rational point, so its image vanishes
    assert descent_image(IC.curve, CP.x_one) == (1, 1, 1)


def test_descent_image_kernel_contains_doubles():
    pts = naive_point_search(IC.curve, math.log(40))
    for P in pts[:6]:
        assert descent_image(IC.curve, dbl(IC.curve, P)) == (1, 1, 1)


def _class_product(c1: int, c2: int) -> int:
    prod = c1 * c2
    out = prod
    for p in range(2, 1000):
        while out % (p * p) == 0:
            out //= p * p
    return out


def test_descent_image_homomorphism():
    E = IC.curve
    pts = naive_point_search(E, math.log(40))
    rng = random.Random(7)
    for _ in range(25):
        P, Q = rng.choice(pts), rng.choice(pts)
        S = add(E, P, Q)
        iP, iQ, iS = (descent_image(E, X) for X in (P, Q, S))
        assert iS == tuple(_class_product(a, b) for a, b in zip(iP, iQ))


def test_descent_image_reads_large_points():
    # the stored points of s6-big have x - e_i values that do not factor
    # within the rho budget; only their parts on the curve's root
    # differences are factored
    rec = dataset_record("s6-big")
    E = rec.curve
    images = [descent_image(E, P) for P in rec.points]
    for P, img in zip(rec.points, images):
        for v, cls in zip(_descent_values(E, P), img):
            assert math.isqrt(v * cls) ** 2 == v * cls
    P, Q = rec.points[:2]
    assert descent_image(E, add(E, P, Q)) == tuple(
        square_class(a * b) for a, b in zip(images[0], images[1]))


def test_coprime_basis_splits_shared_factors():
    assert _coprime_basis([6, 10, 15]) == [2, 3, 5]
    # refinement without full factorization: elements stay composite
    # whenever the inputs never separate their factors
    assert _coprime_basis([30, 6]) == [5, 6]


def test_coprime_basis_exact_factorization():
    values = [6, 10, 15, 21, 35, 77, 30030]
    basis = _coprime_basis(values)
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            assert math.gcd(a, b) == 1
    for v in values:
        rest = v
        for b in basis:
            if rest % b == 0:
                rest //= b
        assert rest == 1


def test_independent_mod_two_duplicate_is_inconclusive():
    res = independent_mod_two(IC.curve, [CP.x_zero, CP.x_zero])
    assert not res.independent


def test_independent_mod_two_connell_points():
    rec = dataset_record("s6-connell")
    res = independent_mod_two(rec.curve, list(rec.points))
    assert res.independent
    assert res.rank_gain == 3


def test_rank_lower_bound_torsion_only():
    rec = dataset_record("s6-connell")
    rb = rank_lower_bound(rec.curve, list(rec.torsion_points))
    assert rb.bound == 0


def test_rank_lower_bound_never_exceeds_input_and_monotone():
    rec = dataset_record("s5-rank4")
    prev = 0
    for n in range(1, 5):
        rb = rank_lower_bound(rec.curve, list(rec.points[:n]))
        assert rb.bound <= n
        assert rb.bound >= prev
        prev = rb.bound
    assert prev == 4


def test_rank_lower_bound_record_curves():
    for rid, want in [("s3-rank9", 9), ("s4-rank7", 7)]:
        rec = dataset_record(rid)
        rb = rank_lower_bound(rec.curve, list(rec.points))
        assert rb.bound == want
        assert rb.method == "descent"


def reference_rank_lower_bound(E, points, *, eps=1e-3):
    """rank_lower_bound before the span check: the greedy height Gram loop
    runs whenever descent does not separate every point."""
    infinite = [(i, P) for i, P in enumerate(points)
                if not P.is_infinity and point_order(E, P) is None]
    if not infinite:
        return RankBound(0, "descent", ())
    idxs = [i for i, _ in infinite]
    pts = [P for _, P in infinite]
    try:
        res = independent_mod_two(E, pts)
    except (FormMismatch, FactorizationIncomplete):
        res = IndependenceResult(False, 0, ())
    if res.independent:
        return RankBound(len(pts), "descent", tuple(idxs))
    kept = []
    for j in range(len(pts)):
        trial = [pts[k] for k in kept] + [pts[j]]
        if gram_certificate(E, trial, eps).independent:
            kept.append(j)
    if res.rank_gain >= len(kept):
        return RankBound(res.rank_gain, "descent",
                         tuple(idxs[j] for j in res.pivot_indices))
    return RankBound(len(kept), "heights", tuple(idxs[j] for j in kept))


def _search_input(triple, height_bound=5.0):
    """The curve and candidate points the CLI's search record certifies:
    the minimal model, the stock points and a naive search."""
    ic = induced_curves(triple)
    cp = canonical_points(triple, ic)
    mm = minimal_model(ic.curve)
    E, to_E = mm.curve, mm.map
    stock = [map_point(ic.curve, to_E, P)
             for P in (cp.x_zero, cp.x_one, cp.half_x_one)]
    found = naive_point_search(E, height_bound)
    return E, sorted(set(found) | set(stock), key=lambda P: (P.x, P.y))


def _euler_triples():
    # b = (r^2 - 1) / a and c = a + b + 2r, as in the cli-cold bench mix
    return [make_triple(F(a), F(r * r - 1, a), a + F(r * r - 1, a) + 2 * r)
            for a in range(1, 7) for r in range(2, 7)]


# induce runs whose rank bound came from heights before descent saturated
HEIGHTS_WINNING = ((F(3, 4), F(7), F(315, 4)),
                   (F(12, 5), F(-5, 12), F(116, 375)))


def _readme_kept_inputs():
    return [_search_input(FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(q)))
            for q in README_KEPT]


@functools.cache
def _rank_inputs():
    cases = _readme_kept_inputs()
    cases += [_search_input(FERMAT, h) for h in (5.0, 7.0)]
    cases += [_search_input(t) for t in _euler_triples()]
    for rid in ("s3-rank9", "s4-rank7", "s5-rank4", "s6-connell", "s6-big"):
        rec = dataset_record(rid)
        cases += [(rec.curve, list(rec.points[:n]))
                  for n in range(1, len(rec.points) + 1)]
    cases += [_search_input(make_triple(*t)) for t in HEIGHTS_WINNING]
    return cases


def test_rank_lower_bound_matches_reference():
    # descent plus halving gives the exact rank of the span, which the
    # greedy height Gram loop reaches on every one of these inputs; the
    # certificate names that many input points, and descent alone or
    # heights find them independent
    for E, pts in _rank_inputs():
        rb = rank_lower_bound(E, pts)
        assert rb.method == "descent"
        assert rb.bound == reference_rank_lower_bound(E, pts).bound, \
            (E, len(pts))
        assert len(rb.certificate_indices) == rb.bound
        cert = [pts[i] for i in rb.certificate_indices]
        assert independent_mod_two(E, cert).independent or \
            gram_certificate(E, cert, 1e-3).independent, (E, len(pts))


def test_rank_path_half_matches_all_halves(monkeypatch):
    # the chain takes one closed-form half of R; the halves differ by
    # two-torsion, so taking the first of all four sorted halves, as the
    # chain did before, gives the same bound and certificate
    fast = [rank_lower_bound(E, pts) for E, pts in _rank_inputs()]
    halvings = []

    def first_of_all(E, R):
        halvings.append(R)
        halves = halve_point(E, R)
        return halves[0] if halves else None

    monkeypatch.setattr(descent, "_a_half", first_of_all)
    slow = [rank_lower_bound(CurveQ(*E.coefficients()), pts)
            for E, pts in _rank_inputs()]
    assert halvings
    assert fast == slow


def _class_bits(cls, basis):
    bits = 1 if cls < 0 else 0
    c = abs(cls)
    for i, b in enumerate(basis):
        if c % b == 0:
            bits |= 1 << (i + 1)
            c //= b
    if c != 1:
        raise ArithmeticError("square class escaped its basis")
    return bits


def _supported_classes(E, points):
    """Square classes of the descent values as independent_mod_two read
    them before: by stripping 2 and the primes of the discriminant of the
    integral model, which must factor, and factoring only what is left."""
    Ei, M = clear_denominators(E)
    fac = factor_best_effort(abs(int(invariants(Ei).disc)))
    assert fac.complete
    support = {2, *(p for p, _ in fac.factors),
               *(p for p, _ in factor_best_effort(int(1 / M.u)).factors)}
    images = []
    for P in points:
        img = []
        for v in _descent_values(E, P):
            cls, rest = (-1 if v < 0 else 1), abs(v)
            for p in support:
                while rest % p == 0:
                    rest //= p
                    cls *= p
            img.append(square_class(cls) if math.isqrt(rest) ** 2 == rest
                       else square_class(v))
        images.append(tuple(img))
    return images


def reference_independent_mod_two(E, points):
    """independent_mod_two on square classes and their bits over a coprime
    basis of the classes, as it was before the descent vectors read the
    raw values."""
    tors_imgs = _supported_classes(E, torsion_subgroup(E).points)
    pt_imgs = _supported_classes(E, points)
    basis = _coprime_basis([c for img in tors_imgs + pt_imgs for c in img])
    width = len(basis) + 1

    def vector(img):
        out = 0
        for slot, cls in enumerate(img):
            out |= _class_bits(cls, basis) << (slot * width)
        return out

    pivots = {}

    def reduce_add(vec):
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = vec
                return True
            vec ^= pivots[top]
        return False

    for img in tors_imgs:
        reduce_add(vector(img))
    gained = [i for i, img in enumerate(pt_imgs) if reduce_add(vector(img))]
    return IndependenceResult(len(gained) == len(points), len(gained),
                              tuple(gained))


def test_independent_mod_two_matches_factored_classes():
    for E, pts in _rank_inputs():
        assert independent_mod_two(E, pts) == \
            reference_independent_mod_two(E, pts), (E, len(pts))


def test_descent_vectors_compare_square_classes():
    # a value's vector is its square class: equal vectors, equal classes
    E = IC.curve
    pts = naive_point_search(E, math.log(40))
    triples = [_descent_values(E, P) for P in pts]
    classes = _Classes([v for t in triples for v in t])
    vecs = [classes.vector(t) for t in triples]
    for i, P in enumerate(pts):
        for j, Q in enumerate(pts):
            assert (vecs[i] == vecs[j]) == \
                (descent_image(E, P) == descent_image(E, Q))


def _refuse_heights(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("height computed on the rank path")

    for name in ("canonical_height", "height_pairing", "gram_certificate"):
        monkeypatch.setattr(height_reference, name, refuse)


def test_span_check_skips_heights_on_readme_kept_curves(monkeypatch):
    _refuse_heights(monkeypatch)
    for E, pts in _readme_kept_inputs():
        assert rank_lower_bound(E, pts).method == "descent"


def test_span_check_falls_back_to_heights(monkeypatch):
    # the inputs on which the bound used to fall back to heights; there is
    # no fallback any more, so they end in descent with no height computed
    _refuse_heights(monkeypatch)
    for t in HEIGHTS_WINNING + EULER_FALLBACKS:
        E, pts = _search_input(make_triple(*t))
        assert rank_lower_bound(E, pts).method == "descent"


def test_hard_discriminant_rank_path_factors_nothing(monkeypatch):
    # the discriminant of {1, N^2 - 1, N^2 + 2N} with N a product of two
    # 19-digit primes does not factor within the rho budget; the rank path
    # factors nothing, so the search record takes a fraction of a second
    # where factoring took several
    N = (10**18 + 3) * (3 * 10**18 + 37)
    triple = make_triple(F(1), F(N * N - 1), F(N * N + 2 * N))
    calls, inside = [], []
    real_factor, real_rank = factor_best_effort, cli.rank_lower_bound

    def factor(*args, **kwargs):
        if inside:
            calls.append(args[0])
        return real_factor(*args, **kwargs)

    def rank(*args, **kwargs):
        inside.append(True)
        try:
            return real_rank(*args, **kwargs)
        finally:
            inside.pop()

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("diocurves") and \
                getattr(mod, "factor_best_effort", None) is real_factor:
            monkeypatch.setattr(mod, "factor_best_effort", factor)
    monkeypatch.setattr(cli, "rank_lower_bound", rank)
    start = time.perf_counter()
    record = cli._search_record(triple, cli.Config())
    assert time.perf_counter() - start < 10.0
    assert calls == []
    assert record["rank"]["method"] == "descent"
    assert record["rank"]["lower_bound"] >= 1


def test_no_command_builds_a_cleared_model(monkeypatch):
    # every integer fact about a curve is read off the curve itself, so a
    # search record, the record checks and a height build no second,
    # cleared curve
    def refuse(*args, **kwargs):
        raise AssertionError("clear_denominators called")

    bound = [mod for mod in list(sys.modules.values())
             if mod.__name__.startswith("diocurves")
             and hasattr(mod, "clear_denominators")]
    assert {"diocurves", "diocurves.weierstrass"} <= {
        mod.__name__ for mod in bound}
    # a non-integral induced curve, with its point of x = 0
    t = FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(7, 3))
    E = induced_curves(t).curve
    assert any(a.denominator > 1 for a in E.coefficients())
    P = canonical_points(t).x_zero
    mm = minimal_model(E)
    want = canonical_height(mm.curve, map_point(E, mm.map, P))
    for mod in bound:
        monkeypatch.setattr(mod, "clear_denominators", refuse)
    kept = FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(README_KEPT[0]))
    for triple in (FERMAT, kept):
        assert cli._search_record(triple, cli.Config())["rank"]["lower_bound"]
    assert verify.check_record("s6-big", True).passed
    assert verify.check_z2z8_random(count=5).passed
    assert abs(canonical_height(E, P) - want) < 1e-5


def test_rank_lower_bound_needs_full_two_torsion():
    with pytest.raises(FormMismatch):
        rank_lower_bound(E37, [P37])


def test_naive_point_search_fermat_curve():
    pts = naive_point_search(IC.curve, math.log(40))
    for x, y in [(0, 24), (0, -24), (1, 30), (1, -30), (32, 280),
                 (32, -280)]:
        assert PointQ(F(x), F(y)) in pts


def test_naive_point_search_bound_zero():
    pts = naive_point_search(IC.curve, 0.0)
    assert pts
    assert all(abs(P.x) <= 1 for P in pts)


def reference_search(E, height_bound):
    """The search loop the residue sieve replaced: a Fraction square test
    on every x = m / e^2 of the box, kept as the reference."""
    Ei, M = clear_denominators(E)
    Minv = M.inverse()
    cap = math.floor(math.exp(height_bound))
    out = []
    for e in range(1, math.isqrt(cap) + 1):
        for m in range(-cap, cap + 1):
            if math.gcd(m, e) != 1:
                continue
            for P in points_with_x(Ei, F(m, e * e)):
                out.append(map_point(Ei, Minv, P))
    return sorted(set(out), key=lambda P: (P.x, P.y))


# the parameters kept by the README grid, sieve K_PLUSMINUS
# --numerators 1:50 --denominators 1:10 --keep 0.05
README_KEPT = ("36/7", "7/3", "47/2", "31/5", "3/7", "46/5", "48", "40/9",
               "33/8", "32/3", "21/8", "29/9", "11", "29/4", "41/2", "43")


def _random_integral_curves():
    rng = random.Random(7)
    curves = []
    while len(curves) < 8:
        try:
            curves.append(CurveQ(*(rng.randint(-30, 30) for _ in range(5))))
        except SingularCurve:
            continue
    return curves


def _readme_kept_curves():
    return [minimal_model(induced_curves(
        FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(q))).curve).curve
        for q in README_KEPT]


def _small_curves():
    # {1,3,8} as the companion model and minimal; E11; E37; and a model
    # with a1, a3 != 0 and non-integral coefficients
    return [IC.curve, minimal_model(IC.curve).curve,
            CurveQ(0, -1, 1, -10, -20), E37,
            CurveQ(F(3, 2), F(-9, 2), 1, F(3, 2), 2)]


def _heavy_record_curves():
    # the s3-rank9 companion model: b6 e^6 leaves int64 already at e = 1
    E = induced_curves(dataset_record("s3-rank9").triple).curve
    assert abs(invariants(clear_denominators(E)[0]).b6) > 2 ** 63
    return [E]


SEARCH_BOUNDS = (0.0, 2.0, 4.5, 5.0)


@pytest.mark.parametrize("curves, bounds", [
    (_readme_kept_curves, (5.0,)),
    (_small_curves, SEARCH_BOUNDS),
    (_random_integral_curves, SEARCH_BOUNDS),
    (_heavy_record_curves, (0.0, 2.0)),
], ids=["readme-kept", "small", "random", "heavy-record"])
def test_naive_point_search_matches_reference(curves, bounds):
    for E in curves():
        for h in bounds:
            assert naive_point_search(E, h) == reference_search(E, h), (E, h)


def test_quadruple_point_correspondence():
    # on E' of {2,4,12} the difference of the stock points lands on
    # x = abc * (the nonzero quadruple extension)
    t = make_triple(F(2), F(4), F(12))
    ic = induced_curves(t)
    cp = canonical_points(t, ic)
    S = sub(ic.curve, cp.x_zero, cp.x_one)
    assert S.x == 96 * 420
