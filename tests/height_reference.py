"""Canonical heights and height-pairing Gram certificates: the rank tests'
reference.

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

No rank bound of the package reads these numbers: `descent` decides the
rank of a point set exactly, and the rank tests compare it against the
greedy Gram loop built on this module.  It stays here until the 2-Selmer
upper bound (ROADMAP direction 1) gives those tests another oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from diocurves._poly import gcdex
from diocurves.errors import PointNotOnCurve
from diocurves.rationals import log_int
from diocurves.torsion import _point_order
from diocurves.weierstrass import (CurveQ, PointQ, _coefficient_scale,
                                   _int_invariants, _memo, add, is_on_curve,
                                   sub)


# ---------------------------------------------------------------------------
# duplication data: Bezout constant and growth bounds


class _DuplicationData(NamedTuple):
    b: tuple[int, int, int, int]          # b2, b4, b6, b8 of the integral model
    bezout_constant: int                  # C with U F + V g = C, U, V in Z[x]
    log_rho_max: float
    log_rho_min: float
    step_bound: float                     # |log rho_n - log g_n| <= this


def _duplication_data(E: CurveQ) -> _DuplicationData:
    """The duplication data of E's integral model, built once per curve.

    It is read off the integral invariants alone and never changes afterwards:
    the gcd of a duplication step divides C, and `_height_run` finds it
    without factoring C.
    """
    return _memo(E, "_duplication_data", _build_duplication_data)


def _build_duplication_data(E: CurveQ) -> _DuplicationData:
    _, b2, b4, b6, b8, *_ = _int_invariants(E)
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
    m = _coefficient_scale(E)
    heights[P, eps] = _height_run(E, PointQ(P.x * m ** 2, P.y * m ** 3), eps)
    return heights[P, eps]


def _height_run(Ei: CurveQ, Pi: PointQ, eps: float) -> float:
    """The telescoped height series of Pi, given as (m^2 x, m^3 y) on the
    integral model a_i m^i of Ei (`_int_model`).

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


class GramCertificate(NamedTuple):
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
