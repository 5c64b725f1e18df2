"""Point counts over prime fields and the Mestre-Nagao rank-selection sum.

Everything here works on an integer-coefficient model obtained by clearing
denominators; primes dividing that model's discriminant are treated as bad
and skipped.  That convention is sound for every use in this package (the
skipped set can only be slightly too large, never too small).

Every count at an odd prime goes through one of two batched kernels, and
the curve's own arithmetic picks which.  After completing the square,
#E(F_p) = p + 1 + sum_x chi(4x^3 + b2 x^2 + 2b4 x + b6) with chi the
quadratic character mod p.

* The root kernel serves every curve with three rational two-torsion
  x-coordinates, which is every curve a Diophantine triple induces.  With
  X = 4x the cubic is (X - r1)(X - r2)(X - r3) / 16, where the r_i are
  four times those x-coordinates and, as roots of a monic integer cubic,
  integers.  chi is multiplicative and chi(16) = 1, so the sum is
  sum_X chi(X - r1) chi(X - r2) chi(X - r3): three windows chi[o:o + p],
  o = -r_i mod p, of one int8 table of chi laid out twice, multiplied and
  summed.  Each curve costs three reductions mod p per prime, and its row
  has no polynomial to evaluate and no element to reduce.
* ``_count_odd`` serves the other curves (those whose 2-division
  polynomial does not split over Q): it forms the block's polynomial
  values in one int64 array from the shared rows x^2 and 4x^3 mod p,
  reduces them and gathers chi at them.

Both kernels take a whole block of curves at once, and blocks hold a
bounded number of elements, so memory stays flat however many curves are
scored.  ``count_points_fp`` is the same kernels with one row.

The root kernel has a third form, for one curve at many primes:
``_count_roots_packed`` lays the doubled chi tables of consecutive small
primes end to end in one block and sums each prime's segment, so one numpy
call serves many primes whose counts are each too short to pay for a call
of their own.  ``_count_points_at`` counts a curve's odd primes below
_PACK_BELOW that way and every other prime alone; the reduction torsion
bound, the one-curve ``mestre_nagao_sum`` and ``verify``'s order-mod-4
check count through it.

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
from .weierstrass import (CurveQ, _int_invariants, _memo, clear_denominators,
                          two_torsion_x)


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


def _integral_data(E: CurveQ) -> tuple[tuple[int, ...], tuple[int, int, int],
                                        int, tuple[int, int, int] | None]:
    """Integer model coefficients, its (b2, b4, b6), its discriminant, and
    the roots of X^3 + b2 X^2 + 8b4 X + 16b6 when all three are rational
    (else None)."""
    return _memo(E, "_integral_data", _build_integral_data)


def _build_integral_data(E: CurveQ) -> tuple:
    Ei, _ = clear_denominators(E)
    _, b2, b4, b6, _, _, _, disc = _int_invariants(Ei)
    xs = two_torsion_x(Ei)
    roots = None
    if len(xs) == 3:
        # X = 4x; seeded or carried x are checked here, once per curve, by
        # Vieta's formulas for X^3 + b2 X^2 + 8b4 X + 16b6
        r = [4 * x for x in xs]
        r1, r2, r3 = roots = tuple(v.numerator for v in r)
        if (any(v.denominator != 1 for v in r)
                or (r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3)
                != (-b2, 8 * b4, -16 * b6)):
            raise ArithmeticError(
                f"{xs} are not the two-torsion x-coordinates of {Ei}")
    return (tuple(int(a) for a in Ei.coefficients()), (b2, b4, b6),
            disc, roots)


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


def _count_roots(roots: Sequence[tuple[int, int, int]], p: int) -> list[int]:
    """#E(F_p) for each curve with integral X-roots (r1, r2, r3) at one odd p.

    The count is p + 1 + sum_X chi(X - r1) chi(X - r2) chi(X - r3).  chi is
    stored twice over, so X -> chi(X + o) for 0 <= o < p is the window
    chi[o:o + p]: row o of the view that sliding_window_view(chi, p) returns,
    built here by as_strided, which skips the checks that would cost a
    one-curve count half its time.  A block gathers its rows, and a
    product of three values in {-1, 0, 1} stays exact in int8.
    """
    import numpy as np

    half = np.arange(1, (p + 1) // 2, dtype=np.int64)
    chi = np.full(2 * p, -1, dtype=np.int8)
    chi[half * half % p] = 1
    chi[0] = 0
    chi[p:] = chi[:p]
    windows = np.lib.stride_tricks.as_strided(
        chi, shape=(p + 1, p), strides=chi.strides * 2, writeable=False)
    offsets = np.array([(-r1 % p, -r2 % p, -r3 % p) for r1, r2, r3 in roots],
                       dtype=np.intp).reshape(-1, 3)
    rows = max(1, _BLOCK_ELEMENTS // p)
    counts: list[int] = []
    for lo in range(0, len(offsets), rows):
        o = offsets[lo:lo + rows]
        f = windows[o[:, 0]] * windows[o[:, 1]]
        f *= windows[o[:, 2]]
        sums = f.sum(axis=1, dtype=np.int64)
        counts.extend((sums + (p + 1)).tolist())
    return counts


# primes below this are counted many to a call by ``_count_roots_packed``,
# the others one ``_count_roots`` call each.  A packed prime saves the
# per-call setup but gathers each element through computed indices, which
# costs more per element than the one-prime windows: packing wins about 4x
# per prime below p = 300, and the two break even at about p = 1000-1300
# (BENCH_small_prime_counts.json), so the cut sits at the low end of that
_PACK_BELOW = 1000


def _count_roots_packed(roots: tuple[int, int, int],
                        primes: Sequence[int]) -> list[int]:
    """#E(F_p) of one curve with integral X-roots (r1, r2, r3) at many odd p.

    The sum of ``_count_roots`` with the roles of curves and primes
    swapped: consecutive primes share a block of at most _BLOCK_ELEMENTS
    X-values (a larger prime is a block of its own), their doubled chi
    tables are laid end to end in one int8 array, each X gathers its three
    window values from its own prime's table, and np.add.reduceat sums
    each prime's segment of the product.  One block costs a fixed number
    of numpy calls, however many primes it holds.
    """
    import numpy as np

    counts: list[int] = []
    lo = 0
    while lo < len(primes):
        hi, size = lo + 1, primes[lo]
        while hi < len(primes) and size + primes[hi] <= _BLOCK_ELEMENTS:
            size += primes[hi]
            hi += 1
        block = primes[lo:hi]
        p = np.array(block, dtype=np.int32)
        start = np.cumsum(p, dtype=np.int32) - p   # segment k: X = 0..p_k - 1
        at = np.repeat(start, p)
        x = np.arange(size, dtype=np.int32) - at
        at += at                    # prime k's doubled table starts at 2 start_k
        pk = np.repeat(p, p)
        sq = np.multiply(x, x, dtype=np.int64)
        sq %= pk
        sq += at
        chi = np.full(2 * size, -1, dtype=np.int8)
        chi[sq] = 1
        sq += pk
        chi[sq] = 1
        chi[2 * start] = 0
        chi[2 * start + p] = 0
        at += x                     # X's place in its own table
        # the block's other temporaries go before the gathers: together
        # they would set the peak memory of a one-curve command
        del x, pk, sq
        w1, w2, w3 = (
            chi[at + np.repeat(np.array([-r % q for q in block],
                                        dtype=np.int32), p)]
            for r in roots)
        w1 *= w2
        w1 *= w3
        sums = np.add.reduceat(w1, start, dtype=np.int64)
        counts.extend((sums + p + 1).tolist())
        lo = hi
    return counts


def _count_good(data: Sequence[tuple], p: int) -> list[int]:
    """#E(F_p) for each curve's integral data at one prime of good reduction,
    each curve through the kernel its two-torsion picks."""
    if p == 2:
        return [_count_mod_two(d[0]) for d in data]
    split = [i for i, d in enumerate(data) if d[3] is not None]
    other = [i for i, d in enumerate(data) if d[3] is None]
    counts = [0] * len(data)
    if split:
        for i, n in zip(split, _count_roots([data[i][3] for i in split], p)):
            counts[i] = n
    if other:
        for i, n in zip(other, _count_odd([data[i][1] for i in other], p)):
            counts[i] = n
    return counts


def count_points_fp(E: CurveQ, p: int) -> int:
    """#E(F_p) including the point at infinity.

    Raises BadReduction when p divides the integral model's discriminant.
    """
    data = _integral_data(E)
    if p < 2:
        raise BadReduction(f"{p} is not a prime")
    if data[2] % p == 0:
        raise BadReduction(f"bad reduction at {p}")
    return _count_good([data], p)[0]


def _good_primes(E: CurveQ, primes: Sequence[int]) -> list[int]:
    """The primes, in their order, that do not divide the discriminant of
    E's integral model: those at which ``count_points_fp`` counts."""
    disc = _integral_data(E)[2]
    return [p for p in primes if disc % p]


def _count_points_at(E: CurveQ, primes: Sequence[int]) -> list[int]:
    """#E(F_p) at each of the given primes, in their order.

    With three rational two-torsion x-coordinates, the odd primes below
    _PACK_BELOW are counted together in ``_count_roots_packed``; every
    other prime is counted alone, as ``count_points_fp`` counts it.
    Raises BadReduction when one of the primes is bad.
    """
    data = _integral_data(E)
    for p in primes:
        if data[2] % p == 0:
            raise BadReduction(f"bad reduction at {p}")
    packed = {}
    if data[3] is not None:
        small = [p for p in primes if 2 < p < _PACK_BELOW]
        packed = dict(zip(small, _count_roots_packed(data[3], small)))
    return [packed[p] if p in packed else _count_good([data], p)[0]
            for p in primes]


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
        for i, d in enumerate(data):
            if d[2] % p:
                good.append(i)
            else:
                skipped[i] += 1
        if not good:
            continue
        counts = _count_good([data[i] for i in good], p)
        logp = math.log(p)
        for i, n in zip(good, counts):
            used[i] += 1
            totals[i] += (1.0 - (p - 1) / n) * logp
    return [SieveResult(t, u, s) for t, u, s in zip(totals, used, skipped)]


def mestre_nagao_sum(E: CurveQ, limit: int) -> SieveResult:
    """The rank-selection sum of one curve; see ``mestre_nagao_sums``.

    The counts come from ``_count_points_at``, and the terms are added in
    ascending prime order with the batch's expression, so the score is
    bit-identical to the curve's score in a batch.
    """
    primes = primes_upto(limit)
    good = _good_primes(E, primes)
    total = 0.0
    for p, n in zip(good, _count_points_at(E, good)):
        total += (1.0 - (p - 1) / n) * math.log(p)
    return SieveResult(total, len(good), len(primes) - len(good))
