"""Point counts over prime fields and the Mestre-Nagao rank-selection sum.

Everything here works on an integer-coefficient model obtained by clearing
denominators; primes dividing that model's discriminant are treated as bad
and skipped.  That convention is sound for every use in this package (the
skipped set can only be slightly too large, never too small).

Every count at an odd prime goes through one batched kernel.  After
completing the square, #E(F_p) = p + 1 + sum_x chi(4x^3 + b2 x^2 + 2b4 x
+ b6) with chi the quadratic character mod p, so one prime needs the table
of chi and the rows x^2 and 4x^3 mod p, built once and shared by a whole
block of curves: the block's polynomial values are formed in one array,
chi is gathered at them, and the integer row sums are the counts.  Blocks
hold a bounded number of elements, so memory stays flat however many
curves are scored.  ``count_points_fp`` is the same kernel with one row.

The counts are exact integers; only the Mestre-Nagao summand is a float.
``mestre_nagao_sums`` adds it per curve in Python floats, in ascending
prime order and with the same expression as the one-curve sum, so a
curve's score is bit-identical whether it is scored alone or in a batch.
numpy float sums (pairwise summation) or np.log would move the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BadReduction
from .weierstrass import CurveQ, _memo, clear_denominators, invariants


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i:: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if flags[i]]


def _integral_data(E: CurveQ) -> tuple[tuple[int, ...], tuple[int, int, int], int]:
    """Integer model coefficients, its (b2, b4, b6), and its discriminant."""
    return _memo(E, "_integral_data", _build_integral_data)


def _build_integral_data(E: CurveQ) -> tuple:
    Ei, _ = clear_denominators(E)
    inv = invariants(Ei)
    return (tuple(int(a) for a in Ei.coefficients()),
            (int(inv.b2), int(inv.b4), int(inv.b6)), int(inv.disc))


# elements per kernel block; bounds the kernel's temporaries to a few
# hundred kB whatever the batch size (a row longer than this is one block)
_BLOCK_ELEMENTS = 1 << 14


def _count_mod_two(coeffs: tuple[int, ...]) -> int:
    """#E(F_2) of the integral model, by trying the four affine points."""
    a1, a2, a3, a4, a6 = [c % 2 for c in coeffs]
    count = 1
    for x in (0, 1):
        for y in (0, 1):
            lhs = (y * y + a1 * x * y + a3 * y) % 2
            rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % 2
            if lhs == rhs:
                count += 1
    return count


def _count_odd(bs: Sequence[tuple[int, int, int]], p: int) -> list[int]:
    """#E(F_p) for each integral (b2, b4, b6) at one odd p of good reduction.

    Completing the square, the fibre over x has 1 + chi(f(x)) points with
    f = 4x^3 + b2 x^2 + 2b4 x + b6 and chi the quadratic character mod p.
    Before the final reduction f is below 2p^2 + 2p, exact in int64.
    numpy is imported here, so commands that count no points never load it.
    """
    import numpy as np

    x = np.arange(p, dtype=np.int64)
    x2 = x * x % p
    x3 = 4 * x2 % p * x % p
    chi = np.full(p, -1, dtype=np.int8)
    chi[x2] = 1
    chi[0] = 0
    coeffs = np.array([(b2 % p, 2 * b4 % p, b6 % p) for b2, b4, b6 in bs],
                      dtype=np.int64).reshape(-1, 3)
    rows = max(1, _BLOCK_ELEMENTS // p)
    counts: list[int] = []
    for lo in range(0, len(coeffs), rows):
        c = coeffs[lo:lo + rows]
        f = c[:, 0:1] * x2
        f += c[:, 1:2] * x
        f += c[:, 2:3]
        f += x3
        f %= p
        sums = chi[f].sum(axis=1, dtype=np.int64)
        counts.extend((sums + (p + 1)).tolist())
    return counts


def count_points_fp(E: CurveQ, p: int) -> int:
    """#E(F_p) including the point at infinity.

    Raises BadReduction when p divides the integral model's discriminant.
    """
    coeffs, b, disc = _integral_data(E)
    if p < 2:
        raise BadReduction(f"{p} is not a prime")
    if disc % p == 0:
        raise BadReduction(f"bad reduction at {p}")
    if p == 2:
        return _count_mod_two(coeffs)
    return _count_odd([b], p)[0]


def trace_of_frobenius(E: CurveQ, p: int) -> int:
    """a_p = p + 1 - #E(F_p); |a_p| <= 2 sqrt(p) by Hasse."""
    a = p + 1 - count_points_fp(E, p)
    if a * a > 4 * p:
        raise ArithmeticError(f"trace {a} at {p} breaks Hasse's bound")
    return a


def summand_forms(E: CurveQ, p: int) -> tuple[float, float]:
    """Both closed forms of the per-prime sieve summand.

    (1 - (p-1)/#E(F_p)) log p and ((2 - a_p)/(p + 1 - a_p)) log p are
    equal as rational multiples of log p; returning both lets callers
    confirm the floating-point evaluations agree too.
    """
    n = count_points_fp(E, p)
    a = p + 1 - n
    logp = math.log(p)
    return ((1.0 - (p - 1) / n) * logp, ((2 - a) / (p + 1 - a)) * logp)


@dataclass(frozen=True)
class SieveResult:
    value: float
    primes_used: int
    primes_skipped: int


def mestre_nagao_sums(curves: Sequence[CurveQ],
                      limit: int) -> list[SieveResult]:
    """The rank-selection sum over good primes p <= limit, for each curve.

    Each good prime contributes (1 - (p-1)/#E(F_p)) log p; large values
    correlate with high rank.  Primes are visited in ascending order and
    each curve's terms are added in that order, so every result is
    reproducible bit for bit and equal to scoring the curve alone.
    """
    data = [_integral_data(E) for E in curves]
    totals = [0.0] * len(data)
    used = [0] * len(data)
    skipped = [0] * len(data)
    for p in primes_upto(limit):
        good = []
        for i, (_, _, disc) in enumerate(data):
            if disc % p:
                good.append(i)
            else:
                skipped[i] += 1
        if not good:
            continue
        if p == 2:
            counts = [_count_mod_two(data[i][0]) for i in good]
        else:
            counts = _count_odd([data[i][1] for i in good], p)
        logp = math.log(p)
        for i, n in zip(good, counts):
            used[i] += 1
            totals[i] += (1.0 - (p - 1) / n) * logp
    return [SieveResult(t, u, s) for t, u, s in zip(totals, used, skipped)]


def mestre_nagao_sum(E: CurveQ, limit: int) -> SieveResult:
    """The rank-selection sum of one curve; see ``mestre_nagao_sums``."""
    return mestre_nagao_sums([E], limit)[0]
