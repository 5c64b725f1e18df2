"""Canonical heights, two-descent certificates, and rank lower bounds.

The canonical height is the limit of h(x(2^n P)) / 4^n.  Chasing the
doubled point exactly is hopeless (its coordinates gain digits like 4^n),
so the implementation telescopes the limit instead:

    h_{n+1} = 4 h_n + log rho_n - log g_n

where rho_n is the scale-invariant growth factor of one duplication step
and g_n the integer cancellation between its numerator and denominator.
rho_n comes from a max-normalized fixed-point shadow of the orbit, in
plain integers.  g_n divides the Bezout constant C of the duplication
map, so it is read off exactly from the orbit kept modulo a power of C,
with no factoring.  Every constant in the tail bound is explicit, so a
requested absolute accuracy is honest, not heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._poly import gcdex
from .errors import FactorizationIncomplete, FormMismatch, PointNotOnCurve
from .factoring import Factorization, factor_best_effort
from .rationals import (log_int, naive_height, square_class,
                        square_class_supported)
from .torsion import (
    TorsionSubgroup,
    _point_order,
    _square_completed,
    point_order,
    torsion_subgroup,
)
from .weierstrass import (
    INFINITY,
    CurveQ,
    PointQ,
    _add,
    _map_point,
    _memo,
    _neg,
    add,
    clear_denominators,
    invariants,
    is_on_curve,
    map_point,
    sub,
)


# ---------------------------------------------------------------------------
# duplication data: Bezout constant and growth bounds


@dataclass(frozen=True)
class _DuplicationData:
    b: tuple[int, int, int, int]          # b2, b4, b6, b8 of the integral model
    bezout_constant: int                  # C with U F + V g = C, U, V in Z[x]
    log_rho_max: float
    log_rho_min: float
    step_bound: float                     # |log rho_n - log g_n| <= this


def _duplication_data(E: CurveQ) -> _DuplicationData:
    """The duplication data of the integral model E, built once per curve.

    It is read off E's coefficients alone and never changes afterwards:
    the gcd of a duplication step divides C, and `_height_run` finds it
    without factoring C.
    """
    return _memo(E, "_duplication_data", _build_duplication_data)


def _build_duplication_data(E: CurveQ) -> _DuplicationData:
    inv = invariants(E)
    b2, b4, b6, b8 = (int(inv.b2), int(inv.b4), int(inv.b6), int(inv.b8))
    # x(2P) = F(x) / g(x)
    F = [1, 0, -b4, -2 * b6, -b8]
    g = [4, b2, 2 * b4, b6]
    sc, tc, h = gcdex(F, g)
    if h != [1]:
        raise ArithmeticError("duplication numerator and denominator "
                              "share a factor: the curve is singular")
    den = math.lcm(*(c.denominator for c in sc + tc))
    U = [int(c * den) for c in sc]
    V = [int(c * den) for c in tc]
    C = den
    # exact check of U F + V g == C over Z
    prod = [0] * 8
    for poly, other in ((U, F), (V, g)):
        shift = 8 - len(poly) - len(other) + 1
        for i, u in enumerate(poly):
            for j, f in enumerate(other):
                prod[shift + i + j] += u * f
    if prod[:-1] != [0] * 7 or prod[-1] != C:
        raise ArithmeticError("bezout identity of the duplication map failed")

    norm_u = sum(abs(c) for c in U)
    norm_v = sum(abs(c) for c in V)
    norm_f = sum(abs(c) for c in F)
    norm_g = sum(abs(c) for c in g)
    log_rho_max = log_int(max(norm_f, norm_g))
    # if |Z| <= zeta0 (max-normalized), |F| >= 1/2 outright; otherwise the
    # Bezout identity C Z^7 = Uh F + Vh G floors the step
    weight = max(1, abs(b4) + 2 * abs(b6) + abs(b8))
    log_zeta0_sq = -log_int(2 * weight)
    log_rho_min = min(-math.log(2.0),
                      log_int(abs(C)) + 3.5 * log_zeta0_sq
                      - log_int(norm_u + norm_v))
    step_bound = max(log_rho_max, -log_rho_min) + log_int(abs(C))
    return _DuplicationData((b2, b4, b6, b8), C, log_rho_max, log_rho_min,
                            step_bound)


def _eval_pair_mod(b: tuple[int, int, int, int], X: int, Z: int,
                   mod: int) -> tuple[int, int]:
    """(F(X,Z), G(X,Z)) mod `mod` for the homogeneous duplication pair."""
    b2, b4, b6, b8 = b
    X %= mod
    Z %= mod
    X2, Z2 = X * X % mod, Z * Z % mod
    X3, Z3 = X2 * X % mod, Z2 * Z % mod
    F = (X2 * X2 - b4 * X2 % mod * Z2 - 2 * b6 * X % mod * Z3
         - b8 * Z2 % mod * Z2) % mod
    G = (4 * X3 * Z + b2 * X2 % mod * Z2 + 2 * b4 * X % mod * Z3
         + b6 * Z3 % mod * Z) % mod
    return F, G


def canonical_height(E: CurveQ, P: PointQ, eps: float = 1e-6) -> float:
    """Canonical height of P with absolute error at most eps.

    Torsion points get exactly 0.0.  The value is normalized so that
    doubling quadruples it and it tracks log max(|num|, den) of x(P).
    """
    if not is_on_curve(E, P):
        raise PointNotOnCurve(f"{P} is not on {E}")
    if P.is_infinity or _point_order(E, P) is not None:
        return 0.0
    heights = _memo(E, "_heights", lambda E: {})
    hit = heights.get((P, eps))
    if hit is not None:
        return hit
    Ei, M = clear_denominators(E)
    heights[P, eps] = _height_run(Ei, _map_point(M, P), eps)
    return heights[P, eps]


def _height_run(Ei: CurveQ, Pi: PointQ, eps: float) -> float:
    """The telescoped height series of Pi on the integral model Ei.

    X_n and Z_n are coprime, and the Bezout identity homogenizes to
    U F + V G = C Z^7 with F = X^4 (mod Z), so g_n = gcd(F, G) divides C.
    The exact orbit (X_n, Z_n) is therefore kept only modulo m, starting
    from m = C^(steps+1) and divided by g_n at each step: m keeps a factor
    C through every step, and gcd(F mod m, G mod m, C) is g_n exactly.

    The archimedean orbit is kept max-normalized in fixed point: integers
    scaled by 2^prec, with prec = ceil(dps log2 10) for dps = 40 + steps
    + (log rho_max - log rho_min) / log 10, the last term rounded down.
    Each rounded point is again max-normalized (its larger coordinate is
    exactly +-2^prec), so its rho lies in [rho_min, rho_max].  One
    rounding moves the smaller coordinate by less than 2^-prec; the
    partial derivatives of F and G are at most 4 rho_max there, so it
    changes the next log rho by at most
    4 (rho_max / rho_min) 2^-prec <= 4 * 10^-(39 + steps).
    """
    data = _duplication_data(Ei)
    steps = max(3, math.ceil(math.log(max(data.step_bound, 1.0) / (3 * eps))
                             / math.log(4.0)))

    a, b = Pi.x.numerator, Pi.x.denominator
    scale = max(abs(a), b)
    total = log_int(scale) if scale > 1 else 0.0

    C = data.bezout_constant
    m = C ** (steps + 1)
    X, Z = a % m, b % m

    dps = 40 + steps + int(
        (data.log_rho_max - min(0.0, data.log_rho_min)) / math.log(10))
    prec = math.ceil(dps * math.log2(10))
    xr, zr = (a << prec) // scale, (b << prec) // scale
    b2, b4, b6, b8 = data.b
    weight = 0.25
    for _ in range(steps):
        F, G = _eval_pair_mod(data.b, X, Z, m)
        g = math.gcd(F, G, C)
        m //= g
        X, Z = F // g % m, G // g % m

        # both are 2^(4 prec) times the values at the normalized point
        Fr = ((xr * xr - b4 * zr * zr) * xr - 2 * b6 * zr ** 3) * xr \
            - b8 * zr ** 4
        Gr = ((4 * xr + b2 * zr) * xr + 2 * b4 * zr * zr) * xr * zr \
            + b6 * zr ** 4
        rho = max(abs(Fr), abs(Gr))
        shift = rho.bit_length() - 64
        log_rho = math.log(rho >> shift) + (shift - 4 * prec) * math.log(2)
        total += weight * (log_rho - (log_int(g) if g > 1 else 0.0))
        xr, zr = (Fr << prec) // rho, (Gr << prec) // rho
        weight /= 4.0
    return total


def canonical_height_reference(E: CurveQ, P: PointQ, doublings: int = 8) -> float:
    """Slow exact-arithmetic reference: h(x(2^n P)) / 4^n.

    Only sensible for small curves and points; used to validate the
    production algorithm.
    """
    if P.is_infinity or point_order(E, P) is not None:
        return 0.0
    Q = P
    for _ in range(doublings):
        Q = add(E, Q, Q)
    return naive_height(Q.x) / 4.0 ** doublings


# ---------------------------------------------------------------------------
# height pairing and Gram certificates


def height_pairing(E: CurveQ, P: PointQ, Q: PointQ,
                   eps: float = 1e-3) -> float:
    """The bilinear pairing <P, Q> = (h(P+Q) - h(P) - h(Q)) / 2."""
    each = 2.0 * eps / 3.0
    S = add(E, P, Q)
    if not S.is_infinity:
        return (canonical_height(E, S, each)
                - canonical_height(E, P, each)
                - canonical_height(E, Q, each)) / 2.0
    D = sub(E, P, Q)
    if D.is_infinity:
        return 0.0  # P = Q = -Q: torsion on both slots
    return (canonical_height(E, P, each)
            + canonical_height(E, Q, each)
            - canonical_height(E, D, each)) / 2.0


@dataclass(frozen=True)
class GramCertificate:
    matrix: tuple[tuple[float, ...], ...]
    determinant: float
    error_bound: float
    independent: bool


def _det(rows: list[list[float]]) -> Fraction:
    """Exact determinant of a float matrix.

    Every float is a dyadic rational, so elimination on the Fraction values
    of the entries involves no rounding at all.
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col + 1, n):
                a[r][c] -= f * a[col][c]
    return det


def gram_certificate(E: CurveQ, points: Sequence[PointQ],
                     eps: float = 1e-3) -> GramCertificate:
    """Height Gram matrix with a rigorous positive-definiteness verdict.

    `independent` is True only when every leading principal minor clears
    its own perturbation bound, so a True verdict certifies that the
    points generate a rank-len(points) subgroup.
    """
    n = len(points)
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = canonical_height(E, points[i], 2.0 * eps / 3.0)
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = height_pairing(E, points[i], points[j],
                                                   eps)
    entry_err = eps
    big = max((abs(v) for row in mat for v in row), default=0.0)
    ok = n > 0
    full_det = full_err = 0.0
    for k in range(1, n + 1):
        # exact minors: only the height error is left to bound
        dk = _det([row[:k] for row in mat[:k]])
        errk = (math.factorial(k) * k * entry_err
                * (big + entry_err) ** (k - 1))
        if k == n:
            full_det, full_err = float(dk), errk
        if not dk > errk:
            ok = False
    return GramCertificate(tuple(tuple(row) for row in mat),
                           full_det, full_err, ok)


# ---------------------------------------------------------------------------
# descent into square classes


def descent_support(E: CurveQ) -> list[int]:
    """Primes at which an on-curve x - e_i difference can have odd valuation.

    2 and everything dividing the integral discriminant (numerator or the
    scaling used to clear denominators), built once per curve object.
    Raises FactorizationIncomplete, with the discriminant's partial
    factorization, when the discriminant will not factor.
    """
    support = _memo(E, "_descent_support", _build_descent_support)
    if isinstance(support, Factorization):
        raise FactorizationIncomplete(
            "could not factor the discriminant for descent support",
            partial=support)
    return list(support)


def _build_descent_support(E: CurveQ) -> tuple[int, ...] | Factorization:
    """The sorted support, or the discriminant's incomplete factorization."""
    Ei, M = clear_denominators(E)
    fac = factor_best_effort(abs(int(invariants(Ei).disc)))
    if not fac.complete:
        return fac
    primes = {2}
    primes.update(p for p, _ in fac.factors)
    primes.update(p for p, _ in factor_best_effort(int(1 / M.u)).factors)
    return tuple(sorted(primes))


def descent_image(E: CurveQ, P: PointQ) -> tuple[int, int, int]:
    """Square classes of (x - e_i) at P on a full two-torsion curve.

    This is the two-descent map (Silverman, AEC X.1): P is in 2 E(Q)
    exactly when the result is (1, 1, 1).  At a two-torsion point the
    vanishing coordinate is replaced by the product of the other two
    differences, keeping the vector a group homomorphism image.

    Classes are read by stripping the curve's descent support, never by
    factoring the point, unless the discriminant would not factor.
    """
    _, M, roots = _square_completed(E)
    if P.is_infinity:
        return (1, 1, 1)
    x0 = map_point(E, M, P).x
    diffs = [x0 - e for e in roots]
    if 0 in diffs:
        i = diffs.index(0)
        diffs[i] = math.prod(roots[i] - roots[j] for j in range(3) if j != i)
    support = _memo(E, "_descent_support", _build_descent_support)
    if isinstance(support, Factorization):
        return tuple(square_class(d) for d in diffs)
    classes = [square_class_supported(d, support) for d in diffs]
    return tuple(square_class(d) if c is None else c
                 for d, c in zip(diffs, classes))


def _coprime_basis(values: Sequence[int]) -> list[int]:
    """A pairwise-coprime set over which every |value| factors exactly."""
    basis: list[int] = []

    def insert(x: int) -> None:
        if x == 1:
            return
        for i, b in enumerate(basis):
            gcd = math.gcd(x, b)
            if gcd == 1:
                continue
            basis.pop(i)
            insert(gcd)
            insert(b // gcd)
            insert(x // gcd)
            return
        basis.append(x)

    for v in values:
        insert(abs(v))
    return sorted(basis)


def _class_bits(cls: int, basis: list[int]) -> int:
    bits = 1 if cls < 0 else 0
    c = abs(cls)
    for i, b in enumerate(basis):
        if c % b == 0:
            bits |= 1 << (i + 1)
            c //= b
    if c != 1:
        raise ArithmeticError("square class escaped its basis")
    return bits


@dataclass(frozen=True)
class IndependenceResult:
    independent: bool          # True: certified; False: merely inconclusive
    rank_gain: int             # new F2 dimensions beyond the torsion image
    pivot_indices: tuple[int, ...]


def independent_mod_two(E: CurveQ,
                        points: Sequence[PointQ]) -> IndependenceResult:
    """Certify independence of points modulo torsion and doubling.

    Images live in a product of three square-class groups; Gaussian
    elimination over F2 counts the dimensions the points add on top of
    the torsion image.  A full count certifies rank >= len(points); less
    than that proves nothing (the map forgets everything divisible by 2).
    """
    tors_imgs = [descent_image(E, T) for T in torsion_subgroup(E).points]
    pt_imgs = [descent_image(E, P) for P in points]
    all_classes = [c for img in tors_imgs + pt_imgs for c in img]
    basis = _coprime_basis(all_classes)
    width = len(basis) + 1

    def vector(img: tuple[int, int, int]) -> int:
        out = 0
        for slot, cls in enumerate(img):
            out |= _class_bits(cls, basis) << (slot * width)
        return out

    pivots: dict[int, int] = {}

    def reduce_add(vec: int) -> bool:
        while vec:
            top = vec.bit_length() - 1
            if top in pivots:
                vec ^= pivots[top]
            else:
                pivots[top] = vec
                return True
        return False

    for img in tors_imgs:
        reduce_add(vector(img))
    gained = []
    for idx, img in enumerate(pt_imgs):
        if reduce_add(vector(img)):
            gained.append(idx)
    return IndependenceResult(len(gained) == len(points), len(gained),
                              tuple(gained))


# ---------------------------------------------------------------------------
# rank lower bounds and naive search

# odd primes of the residue sieve in naive_point_search; each one rejects
# about half of the x-coordinates that survive the primes before it
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# _SQUARES[p][r]: r is a square mod p, zero included (Euler's criterion)
_SQUARES = {p: tuple(pow(r, (p - 1) // 2, p) != p - 1 for r in range(p))
            for p in _SIEVE_PRIMES}
# most descent pivots the span check of rank_lower_bound combines:
# its table holds the 3^r sums of pivots with coefficients in {-1, 0, 1}
_SPAN_MAX_PIVOTS = 6


@dataclass(frozen=True)
class RankBound:
    bound: int
    method: str                      # "descent" or "heights"
    certificate_indices: tuple[int, ...]


def _spanned_by(E: CurveQ, pivots: Sequence[PointQ],
                points: Sequence[PointQ],
                torsion: TorsionSubgroup) -> bool:
    """True when every point is S - T or 2S - T, with T torsion and S a sum
    of the pivots with coefficients in {-1, 0, 1}; False proves nothing."""
    sums = {INFINITY}
    for piv in pivots:
        minus = _neg(E, piv)
        sums |= ({_add(E, S, piv) for S in sums}
                 | {_add(E, S, minus) for S in sums})
    table = sums | {_add(E, S, S) for S in sums}
    return all(any(_add(E, P, T) in table for T in torsion.points)
               for P in points)


def rank_lower_bound(E: CurveQ, points: Sequence[PointQ], *,
                     eps: float = 1e-3) -> RankBound:
    """A certified lower bound for the rank from the given points.

    Tries the two-descent image first (cheap, exact).  When it separates
    every point, the bound is their number.  Otherwise the points it does
    separate, piv_1..piv_r, are independent modulo torsion and span a
    rank-r subgroup.  Before any height is computed, an exact span check
    (only for r <= _SPAN_MAX_PIVOTS) asks whether each other point P has
    P + T in {S, 2S} for a torsion point T and some S = sum c_i piv_i,
    c_i in {-1, 0, 1}.  If every point passes, all of them lie in the
    pivots' subgroup plus torsion, which has rank exactly r, so no more
    than r of them are independent.  A True Gram certificate certifies
    independence, so the height loop could keep at most r points and
    would return the descent bound: that bound is returned without
    heights.  Otherwise the points are retried greedily with height Gram
    certificates, and the larger bound wins.
    """
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
    by_descent = RankBound(res.rank_gain, "descent",
                           tuple(idxs[j] for j in res.pivot_indices))

    if 0 < res.rank_gain <= _SPAN_MAX_PIVOTS:
        pivots = [pts[j] for j in res.pivot_indices]
        others = [P for j, P in enumerate(pts)
                  if j not in res.pivot_indices]
        if _spanned_by(E, pivots, others, torsion_subgroup(E)):
            return by_descent

    kept: list[int] = []
    for j in range(len(pts)):
        trial = [pts[k] for k in kept] + [pts[j]]
        cert = gram_certificate(E, trial, eps)
        if cert.independent:
            kept.append(j)
    if res.rank_gain >= len(kept):
        return by_descent
    return RankBound(len(kept), "heights", tuple(idxs[j] for j in kept))


def naive_point_search(E: CurveQ, height_bound: float,
                       max_den: int | None = None) -> list[PointQ]:
    """All affine points of E in a naive-height box, sorted by (x, y).

    Every affine point of the integral model Ei of clear_denominators has
    x = m / e^2 with gcd(m, e) = 1.  With cap = floor(exp(height_bound)),
    the box is |m| <= cap, e^2 <= cap (and e <= max_den when given),
    gcd(m, e) = 1, all bounds inclusive; hits are mapped back to E.

    x = m / e^2 has a rational y exactly when the integer

        D(m) = 4 m^3 + b2 e^2 m^2 + 2 b4 e^4 m + b6 e^6,

    e^6 times the discriminant of the quadratic in y, is a square.  As in
    Stoll's ratpoints, m is first sieved by quadratic residues: for each
    prime p of _SIEVE_PRIMES, D(m) must be a square mod p (zero included).
    Only the few m that pass every prime get an exact isqrt.
    """
    Ei, M = clear_denominators(E)
    Minv = M.inverse()
    a1, a3 = int(Ei.a1), int(Ei.a3)
    inv = invariants(Ei)
    b2, b4, b6 = int(inv.b2), int(inv.b4), int(inv.b6)
    cap = math.floor(math.exp(height_bound))
    emax = math.isqrt(cap)
    if max_den is not None:
        emax = min(emax, max_den)
    found: set[PointQ] = set()
    for e in range(1, emax + 1):
        e2, e3 = e * e, e * e * e
        c2, c1, c0 = b2 * e2, 2 * b4 * e2 * e2, b6 * e3 * e3
        ms: Sequence[int] = range(-cap, cap + 1)
        for p in _SIEVE_PRIMES:
            square = _SQUARES[p]
            k2, k1, k0 = c2 % p, c1 % p, c0 % p
            ok = [square[(((4 * r + k2) * r + k1) * r + k0) % p]
                  for r in range(p)]
            ms = [m for m in ms if ok[m % p]]
        for m in ms:
            if math.gcd(m, e) != 1:
                continue
            D = ((4 * m + c2) * m + c1) * m + c0
            if D < 0:
                continue
            r = math.isqrt(D)
            if r * r != D:
                continue
            x = Fraction(m, e2)
            t = a1 * m * e + a3 * e3
            for y in {r - t, -r - t}:
                found.add(_map_point(Minv, PointQ(x, Fraction(y, 2 * e3))))
    return sorted(found, key=lambda P: (P.x, P.y))
