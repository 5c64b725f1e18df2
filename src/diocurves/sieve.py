"""Point counts over prime fields and the Mestre-Nagao rank-selection sum.

Every curve here has three rational points of order two, as every curve a
Diophantine triple induces: ``_integral_data`` raises FormMismatch on any
other curve, so every count and sum below does too.

Everything here works on an integer-coefficient model obtained by clearing
denominators; primes dividing that model's discriminant are treated as bad
and skipped.  That convention is sound for every use in this package (the
skipped set can only be slightly too large, never too small).

Every count is exact and in Python ints.  One scan, ``_scan``, picks the
kernel for each curve and prime, by the prime and by the batch.  The
Mestre-Nagao sums and the one-curve counts (``count_points_fp``, the
reduction torsion bound, ``verify``'s order-mod-4 check) all run through it.

The sieve needs no curve object: ``_triple_data`` computes a triple's
integral data straight from its integers, through the same integer core
(``_model_data``) as ``_integral_data`` of a curve, and ``_sums_from_data``
scores such data.

The counts are exact integers; only the Mestre-Nagao summand is a float.
``mestre_nagao_sums`` adds it per curve in Python floats, in ascending
prime order, so a curve's score is bit-identical whether it is scored
alone (``mestre_nagao_sum`` is a batch of one) or in a batch.
"""

from __future__ import annotations

import bisect
import functools
import math
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence

from .errors import BadReduction, FormMismatch, SingularCurve
from .factoring import is_probable_prime
from .triples import Triple, _companion_ints
from .weierstrass import (CurveQ, _int_model, _int_model_of,
                          _invariants_of_ints, _memo, two_torsion_x)


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i:: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), flags))


def _split_x(E: CurveQ) -> tuple:
    """E's three two-torsion x-coordinates; FormMismatch unless all three
    are rational, as they are on every curve a triple induces."""
    xs = two_torsion_x(E)
    if len(xs) != 3:
        raise FormMismatch(
            "operation needs all three two-torsion x-coordinates rational "
            f"(found {len(xs)})")
    return xs


def _integral_data(E: CurveQ) -> tuple[tuple[int, ...], tuple[int, int, int],
                                        int, tuple[int, int, int]]:
    """E's `_int_model` coefficients, their (b2, b4, b6), discriminant, and
    the roots of X^3 + b2 X^2 + 8b4 X + 16b6, ascending: E's two-torsion x,
    scaled by 4 m^2.  FormMismatch unless all three are rational."""
    return _memo(E, "_integral_data", _build_integral_data)


def _build_integral_data(E: CurveQ) -> tuple:
    xs = [x.as_integer_ratio() for x in _split_x(E)]
    m, *coefficients = _int_model(E)
    return _model_data(tuple(coefficients), [(n * m * m, d) for n, d in xs])


def _triple_data(t: Triple) -> tuple:
    """The ``_integral_data`` of induced_curves(t).curve, from the
    triple's integers alone: no curve and no Fraction is built."""
    den, e1, e2, e3, xs = _companion_ints(t)
    dd = den * den
    m, *coefficients = _int_model_of((
        (0, 1), _lowest(e2, den), (0, 1), _lowest(e3 * e1, dd),
        _lowest(e3 * e3, dd)))
    mm = m * m
    return _model_data(tuple(coefficients), [(n * mm, d) for n, d in xs])


def _lowest(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return n // g, d // g


def _model_data(coefficients: tuple[int, ...],
                xs: Sequence[tuple[int, int]]) -> tuple:
    """``_integral_data`` of the integral model with these coefficients,
    given the x-coordinates of its three points of order two as
    (numerator, denominator) pairs.

    The invariant identities, a nonzero discriminant, and the x (seeded,
    carried or solved) by Vieta's formulas for X^3 + b2 X^2 + 8b4 X + 16b6
    with X = 4x, are all checked here, once per curve.
    """
    b2, b4, b6, _, _, _, disc = _invariants_of_ints(*coefficients)
    if disc == 0:
        raise SingularCurve(f"discriminant is zero for {coefficients}")
    if any(4 * n % d for n, d in xs):
        raise ArithmeticError(f"4x is not integral for the x {xs} of "
                              f"the model {coefficients}")
    r1, r2, r3 = roots = tuple(sorted(4 * n // d for n, d in xs))
    if (r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3) \
            != (-b2, 8 * b4, -16 * b6):
        raise ArithmeticError(f"{xs} are not the two-torsion "
                              f"x-coordinates of the model {coefficients}")
    return coefficients, (b2, b4, b6), disc, roots


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


# the cut between ``_scan``'s routes: below it each odd prime's row is built
# once and cached; from it on a row is built only for a batch of curves, and
# a curve counted alone goes to baby-step giant-step.  A row costs O(p),
# about 0.1 ms at p = 997: a one-curve sum to the cut costs about 10 ms
# with its rows.  Past the cut the rows grow quadratically (a
# one-curve sum to N = 10^4 would take 0.66 s, BENCH_int_kernel.json),
# while baby-step giant-step takes tens of microseconds per prime, and
# Mestre's theorem, which makes it end, holds for every p > 229
# (BENCH_one_curve_bsgs.json)
_INT_BELOW = 1000


def _row(p: int) -> tuple[int, int, int, int, bytes, bool, float, int]:
    """The row (p, N, N | N << p, 2^p - 2, text, p % 4 == 3, log p, p - 1)
    of ``_count_split`` at the odd prime p, for the p-bit int N whose bit X
    is set when X is a quadratic non-residue mod p; character X of text is
    an ASCII 1 when bit X of N is set, else an ASCII 0.

    Built at C speed: in a bytearray of ASCII 1s, character X is zeroed at
    0 and, by map, at each square.  int(..., 2) reads the most significant
    bit first, so it parses the reversed text, where bit X is the character
    at p - 1 - X.
    """
    text = bytearray(b"1") * p
    text[0] = ord("0")
    squares = map(pow, range(1, (p + 1) // 2), repeat(2), repeat(p))
    # any() drains the map: __setitem__ returns None
    any(map(text.__setitem__, squares, repeat(ord("0"))))
    n = int(text[::-1], 2)
    return (p, n, n | n << p, (1 << p) - 2, bytes(text), p % 4 == 3,
            math.log(p), p - 1)


# the rows of the primes below _INT_BELOW only, so at most 167 entries
_nonresidues = functools.cache(_row)


def _int_rows(limit: int) -> list[tuple]:
    """The ``_nonresidues`` rows of the odd primes p <= limit below
    _INT_BELOW, ascending: built before a fork, every worker's ``_scan``
    finds them cached."""
    return [_nonresidues(p)
            for p in primes_upto(min(limit, _INT_BELOW - 1))[1:]]


def _count_split(roots: tuple[int, int, int], disc: int,
                 rows: Iterable[tuple], total: float = 0.0) \
        -> tuple[list[int], float]:
    """#E(F_p) of one curve with integral X-roots (r1, r2, r3) at each row's
    prime that does not divide disc, in row order, and total plus those
    primes' Mestre-Nagao terms, added in row order.

    With X = 4x the cubic is (X - r1)(X - r2)(X - r3) / 16, where the r_i
    are four times the two-torsion x-coordinates and, as roots of a monic
    integer cubic, integers.  chi is multiplicative and chi(16) = 1, so the
    sum is sum_X chi(X - r1) chi(X - r2) chi(X - r3).

    With Y = X - r1, s = r1 - r2 and t = r1 - r3 mod p, the sum is
    sum_Y chi(Y) chi(Y + s) chi(Y + t); at a good prime 0, s and t are
    distinct.  Off Y in {0, -s, -t} a term is -1 exactly when an odd number
    of Y, Y + s, Y + t are non-residues, and for 0 <= Y < p bit Y of N,
    N2 >> s and N2 >> t says whether each is one.  Their XOR, bit 0
    cleared, has a bit for each -1 among the p - 3 terms that are not 0,
    plus its bits at Y = -s and Y = -t, where the term is 0: those are
    nr(-s) ^ nr(t - s) and nr(-t) ^ nr(s - t), for nr(x) the non-residue
    bit of x mod p, and as nr(-x) = nr(x) ^ q for x != 0, with q set when
    -1 is a non-residue (p = 3 mod 4), they are q ^ nr(s) ^ nr(t - s) and
    nr(t) ^ nr(t - s), read off the ASCII text (the XOR of two of its
    characters is their bits' XOR).  With popcount the -1s,
    #E(F_p) = p + 1 + (p - 3) - 2 * popcount.
    """
    r1, r2, r3 = roots
    d2, d3 = r1 - r2, r1 - r3
    counts: list[int] = []
    append = counts.append
    for p, n, n2, mask, text, q, logp, pm1 in rows:
        if disc % p:
            s, t = d2 % p, d3 % p
            u = text[t - s]
            c = 2 * p - 2 - 2 * (((n ^ (n2 >> s) ^ (n2 >> t)) & mask
                                  ).bit_count() - (q ^ text[s] ^ u)
                                 - (text[t] ^ u))
            append(c)
            total += (1.0 - pm1 / c) * logp
    return counts, total


def _add(P, Q, a2: int, a4: int, p: int):
    """P + Q on Y^2 = X^3 + a2 X^2 + a4 X over F_p, in affine (X, Y) with
    None for O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    elif (y1 + y2) % p:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        return None
    x3 = (lam * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _multiples(Q, a2: int, a4: int, p: int, lo: int, hi: int,
               m: int) -> list[int] | None:
    """The k in [lo, hi] with k Q = O, or None when Q has order <= 2m.

    The baby steps store X -> (j, Y) of jQ, j = 1..m; meeting O, a Y of 0
    or an X twice among them is what an order <= 2m does.  Otherwise each
    window of 2m + 1 consecutive k holds at most one k, and the giant
    step cQ at its centre c finds it: cQ = O gives k = c, cQ = +-jQ gives
    k = c -+ j.
    """
    table = {}
    R = B = Q
    for j in range(1, m + 1):
        if R is None or R[1] == 0 or R[0] in table:
            return None
        table[R[0]] = j, R[1]
        B, R = R, _add(R, Q, a2, a4, p)
    step = _add(R, B, a2, a4, p)            # (m + 1)Q + mQ = (2m + 1)Q
    # G = eQ one giant step before the first centre, by double-and-add
    G, D, e = None, Q, lo - m - 1
    while True:
        if e & 1:
            G = _add(G, D, a2, a4, p)
        e >>= 1
        if not e:
            break
        D = _add(D, D, a2, a4, p)
    ks = []
    for c in range(lo + m, hi + m + 1, 2 * m + 1):
        G = _add(G, step, a2, a4, p)
        if G is None:
            k = c
        elif G[0] in table:
            j, y = table[G[0]]
            k = c - j if y == G[1] else c + j
        else:
            continue
        if lo <= k <= hi:
            ks.append(k)
    return ks


def _count_alone(bs: tuple[int, int, int], p: int) -> int:
    """#E(F_p) of one curve with integral (b2, b4, b6) and three rational
    points of order two at an odd prime p >= _INT_BELOW of good reduction,
    by Shanks-Mestre baby-step giant-step (Cohen, A Course in Computational
    Algebraic Number Theory, 7.4): O(p^(1/4)) group operations per point
    tried, against the O(p) terms of the character sum.  The caller's
    ``_integral_data`` has raised FormMismatch on any other curve.

    With X = 4x the curve is Y^2 = g(X) = X^3 + A X^2 + B X + C, with
    A = b2, B = 8b4 and C = 16b6, and its order N is one of the
    candidates: the multiples of 4 in the Hasse interval, as its rational
    two-torsion is reduced into E(F_p).  For x0 = 0, 1, ... with
    d = g(x0) != 0, P = (d x0, d^2) lies on
    Y^2 = X^3 + dA X^2 + d^2 B X + d^3 C (``_add`` never reads the constant
    term), which is E when d is a square (Euler's criterion) and else its
    quadratic twist, of order 2p + 2 - N, also a multiple of 4.  The k with
    4k in the interval and 4k P = O (``_multiples``) leave the candidates
    they allow, and the count is the last one left: exact, never a guess.
    Every point of E and of its twist but those of order two is, up to
    sign, the P of some x0.  By Mestre's theorem, for p > 229 one of them
    has an order with one multiple in the interval, so above 2 sqrt(p); at
    p >= 1000 its 4P then has order above 2m, and the loop ends there.  If
    it ran out, ArithmeticError.
    """
    b2, b4, b6 = bs
    A, B, C = b2 % p, 8 * b4 % p, 16 * b6 % p
    w = math.isqrt(4 * p)
    lo, hi = (p + 4 - w) // 4, (p + 1 + w) // 4
    m = math.isqrt((hi - lo) // 2) + 1
    left = set(range(4 * lo, 4 * hi + 1, 4))
    for x0 in range(p):
        d = (((x0 + A) * x0 + B) * x0 + C) % p
        if not d:
            continue
        a2, a4 = d * A % p, d * d * B % p
        P = d * x0 % p, d * d % p
        P2 = _add(P, P, a2, a4, p)
        ks = _multiples(_add(P2, P2, a2, a4, p), a2, a4, p, lo, hi, m)
        if ks is None:
            continue
        if pow(d, (p - 1) // 2, p) == 1:
            left.intersection_update([4 * k for k in ks])
        else:
            left.intersection_update([2 * p + 2 - 4 * k for k in ks])
        if len(left) < 2:
            break
    if len(left) != 1:
        raise ArithmeticError(f"baby-step giant-step left the orders "
                              f"{sorted(left)} at {p} for (b2, b4, b6) = "
                              f"{bs}")
    return left.pop()


def _scan(data: Sequence[tuple], primes: Sequence[int]) -> list[list]:
    """For each curve's ``_integral_data``, the pair [counts, total]: #E(F_p)
    at each of the ascending primes that does not divide its discriminant,
    in order, and the sum of those primes' Mestre-Nagao terms
    (1 - (p - 1)/#E(F_p)) log p, added in prime order.

    This is the one place a kernel is chosen.

    * p = 2: ``_count_mod_two`` on the integral model.
    * Odd p below _INT_BELOW, on the cached ``_nonresidues`` rows: each
      curve runs all these primes in one ``_count_split`` loop, which adds
      its terms as it goes.
    * p >= _INT_BELOW: two or more curves good at p share one row built for
      p (``_row``) and then dropped; a curve alone there is counted by
      ``_count_alone``.
    """
    cut = bisect.bisect_left(primes, _INT_BELOW)
    two = cut > 0 and primes[0] == 2
    rows = list(map(_nonresidues, primes[1 if two else 0:cut]))
    log2 = math.log(2)
    scans = []
    for coefficients, _, disc, roots in data:
        counts, total = [], 0.0
        if two and disc % 2:
            c = _count_mod_two(coefficients)
            counts.append(c)
            total += (1.0 - 1 / c) * log2
        if rows:
            split, total = _count_split(roots, disc, rows, total)
            counts += split
        scans.append([counts, total])
    for p in primes[cut:]:
        good = [(d, scan) for d, scan in zip(data, scans) if d[2] % p]
        row = _row(p) if len(good) > 1 else None
        logp = math.log(p)
        for (_, bs, disc, roots), scan in good:
            if row is None:
                c = _count_alone(bs, p)
            else:
                c = _count_split(roots, disc, (row,))[0][0]
            scan[0].append(c)
            scan[1] += (1.0 - (p - 1) / c) * logp
    return scans


def count_points_fp(E: CurveQ, p: int) -> int:
    """#E(F_p) including the point at infinity.

    Raises BadReduction when p is not a prime or divides the integral
    model's discriminant, and FormMismatch unless E has three rational
    points of order two.
    """
    if not is_probable_prime(p):
        raise BadReduction(f"{p} is not a prime")
    return _count_points_at(E, [p])[0]


def _good_primes(E: CurveQ, primes: Sequence[int]) -> list[int]:
    """The primes, in their order, that do not divide the discriminant of
    E's integral model: those at which ``count_points_fp`` counts."""
    disc = _integral_data(E)[2]
    return [p for p in primes if disc % p]


def _count_points_at(E: CurveQ, primes: Sequence[int]) -> list[int]:
    """#E(F_p) at each of the given primes, in their order, from one
    ``_scan`` of the distinct primes ascending.  Raises BadReduction when
    one of the primes is bad."""
    data = _integral_data(E)
    for p in primes:
        if data[2] % p == 0:
            raise BadReduction(f"bad reduction at {p}")
    ascending = sorted(set(primes))
    counts = dict(zip(ascending, _scan([data], ascending)[0][0]))
    return [counts[p] for p in primes]


def trace_of_frobenius(E: CurveQ, p: int) -> int:
    """a_p = p + 1 - #E(F_p); |a_p| <= 2 sqrt(p) by Hasse.

    Raises as ``count_points_fp`` does, FormMismatch included."""
    a = p + 1 - count_points_fp(E, p)
    if a * a > 4 * p:
        raise ArithmeticError(f"trace {a} at {p} breaks Hasse's bound")
    return a


def summand_forms(E: CurveQ, p: int) -> tuple[float, float]:
    """Both closed forms of the per-prime sieve summand.

    (1 - (p-1)/#E(F_p)) log p and ((2 - a_p)/(p + 1 - a_p)) log p are
    equal as rational multiples of log p; returning both lets callers
    confirm the floating-point evaluations agree too.  Raises as
    ``count_points_fp`` does, FormMismatch included.
    """
    n = count_points_fp(E, p)
    a = p + 1 - n
    logp = math.log(p)
    return ((1.0 - (p - 1) / n) * logp, ((2 - a) / (p + 1 - a)) * logp)


class SieveResult(NamedTuple):
    value: float
    primes_used: int
    primes_skipped: int


def mestre_nagao_sums(curves: Sequence[CurveQ],
                      limit: int) -> list[SieveResult]:
    """The rank-selection sum over good primes p <= limit, for each curve.

    Each good prime contributes (1 - (p-1)/#E(F_p)) log p; large values
    correlate with high rank.  Each curve's terms are added in ascending
    prime order, so every result is reproducible bit for bit and does not
    depend on the rest of the batch.  FormMismatch unless every curve has
    three rational points of order two.
    """
    return _sums_from_data([_integral_data(E) for E in curves], limit)


def _sums_from_data(data: Sequence[tuple], limit: int) -> list[SieveResult]:
    """``mestre_nagao_sums`` of the curves with this ``_integral_data``:
    one ``_scan`` of the primes up to limit."""
    primes = primes_upto(limit)
    return [SieveResult(total, len(counts), len(primes) - len(counts))
            for counts, total in _scan(data, primes)]


def mestre_nagao_sum(E: CurveQ, limit: int) -> SieveResult:
    """The rank-selection sum of one curve: its ``mestre_nagao_sums``,
    FormMismatch included."""
    return mestre_nagao_sums([E], limit)[0]
