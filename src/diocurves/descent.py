"""Two-descent, the exact rank of a point span, and the naive point search.

Every curve induced by a Diophantine triple has full rational two-torsion:
after completing the square it reads y^2 = (x - e1)(x - e2)(x - e3).  The
two-descent map P -> (x - e_i modulo squares) then has kernel exactly
2 E(Q) (Silverman, AEC X.1), and together with point halving it decides
the rank of the span of any finite point set (Siksek, "Infinite descent on
elliptic curves", Rocky Mountain J. Math. 25, 1995).  Square classes are
compared without factoring anything: the values are refined into a
pairwise-coprime basis (Bach, Driscoll and Shallit, J. Algorithms 15,
1993), and a class is read off as exponent parities over that basis.

The naive point search supplies the points: a residue sieve over the
x-coordinates of a naive-height box, in the manner of Stoll's ratpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .rationals import square_class
from .torsion import _a_half, _square_completed, point_order, torsion_subgroup
from .weierstrass import (INFINITY, CurveQ, PointQ, _add, _int_invariants,
                          _int_model, _neg, _require_on_curve)


# ---------------------------------------------------------------------------
# descent into square classes


def _descent_values(E: CurveQ, P: PointQ) -> tuple[int, int, int]:
    """Integers in the square classes of x - e_i at a point P of E.

    Completing the square moves no x, so the differences are taken at P.x,
    and each difference num / den is stood for by num * den, its square
    class.  At a two-torsion point the vanishing difference is replaced by
    the product of the other two, which keeps the map a group homomorphism.
    """
    roots = _square_completed(E)[3]
    if P.is_infinity:
        return (1, 1, 1)
    diffs = [P.x - e for e in roots]
    if 0 in diffs:
        i = diffs.index(0)
        diffs[i] = math.prod(roots[i] - roots[j] for j in range(3) if j != i)
    return tuple(d.numerator * d.denominator for d in diffs)


def descent_image(E: CurveQ, P: PointQ) -> tuple[int, int, int]:
    """Square classes of (x - e_i) at P on a full two-torsion curve.

    This is the two-descent map (Silverman, AEC X.1): P is in 2 E(Q)
    exactly when the result is (1, 1, 1).  Each class is square_class of
    its value, the plain definition that the descent vectors are tested
    against; the rank bound never calls it.  On the curve a prime to an
    odd power in one difference also divides another, so a class is
    supported on the primes of the root differences and of the roots'
    denominators.  Only the part of a value that a coprime basis shares
    with those is factored, so a large point costs no more than its curve.
    """
    _require_on_curve(E, P)
    roots = _square_completed(E)[3]
    e1, e2, e3 = roots
    support = math.lcm(*(e.denominator for e in roots)) * math.prod(
        d.numerator * d.denominator for d in (e1 - e2, e1 - e3, e2 - e3))
    values = _descent_values(E, P)
    classes = _Classes([*values, support])
    return tuple(square_class(math.prod(classes.odd_elements(v),
                                        start=-1 if v < 0 else 1))
                 for v in values)


class _Classes:
    """Square classes of integers as F2 vectors over a coprime basis.

    The basis is pairwise coprime and is refined as values arrive (Bach,
    Driscoll and Shallit, J. Algorithms 15, 1993), so that every value
    factors as +-prod b^e over it.  Distinct elements are coprime, so such
    a value is a square exactly when it is positive and the exponent of
    every non-square element is even: its class is read off as its sign
    and those exponent parities, with nothing factored.
    """

    def __init__(self, values: Sequence[int] = ()):
        self.basis: list[int] = []
        self._odd: list[tuple[int, int]] = []   # (place, non-square b)
        self.add(values)

    def add(self, values: Sequence[int]) -> bool:
        """Refine the basis so that the values factor over it.  Elements
        keep their places unless a value splits one, which changes the
        vectors read before; the result says whether that happened."""
        size, split = len(self.basis), False
        todo = [abs(v) for v in values]
        while todo:
            x = todo.pop()
            for i, b in enumerate(self.basis):
                gcd = math.gcd(x, b)
                if gcd == 1:
                    continue
                if gcd != b:
                    self.basis.pop(i)
                    todo += [gcd, b // gcd]
                    split = True
                todo.append(x // gcd)
                break
            else:
                if x != 1:
                    self.basis.append(x)
        if split or len(self.basis) != size:
            self._odd = [(k, b) for k, b in enumerate(self.basis)
                         if math.isqrt(b) ** 2 != b]
        return split

    def odd_elements(self, v: int) -> list[int]:
        """The non-square elements dividing v to an odd power."""
        return [b for _, b in self._places(v)]

    def vector(self, triple: Sequence[int]) -> int:
        """The F2 vector of a value triple: slot s holds its sign at bit s
        and the parity of basis[k] at bit 3 k + 3 + s."""
        out = 0
        for slot, v in enumerate(triple):
            out |= (v < 0) << slot
            for k, _ in self._places(v):
                out |= 1 << (3 * k + 3 + slot)
        return out

    def _places(self, v: int) -> list[tuple[int, int]]:
        v, out = abs(v), []
        for k, b in self._odd:
            odd = False
            while v % b == 0:
                v //= b
                odd = not odd
            if odd:
                out.append((k, b))
        return out


def _coprime_basis(values: Sequence[int]) -> list[int]:
    """A pairwise-coprime set over which every |value| factors exactly."""
    return sorted(_Classes(values).basis)


def _reduce(rows: dict[int, tuple[int, int]], vec: int) -> tuple[int, int]:
    """vec reduced by echelon rows {top bit: (vector, mask)}: the remainder,
    zero exactly when vec is in their span, and the xor of the masks used."""
    mask = 0
    while vec and vec.bit_length() - 1 in rows:
        row, row_mask = rows[vec.bit_length() - 1]
        vec ^= row
        mask ^= row_mask
    return vec, mask


def _echelon(vectors: Sequence[int]) \
        -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Echelon rows of the vectors, each row with the mask of the inputs it
    sums, and the indices of the inputs independent of those before them."""
    rows: dict[int, tuple[int, int]] = {}
    gained = []
    for i, vec in enumerate(vectors):
        vec, mask = _reduce(rows, vec)
        if vec:
            rows[vec.bit_length() - 1] = (vec, mask ^ (1 << i))
            gained.append(i)
    return rows, gained


def _descent_echelon(E: CurveQ, points: Sequence[PointQ]) -> tuple:
    """Descent vectors of E's torsion points, then `points`, in echelon form.

    Returns the torsion points, the value triples of torsion + points, the
    _Classes that reads them as vectors (which add as their square classes
    multiply), the echelon rows (whose masks index torsion + points), and
    the indices into `points` of those independent of the torsion image and
    of the points before them.
    """
    torsion = torsion_subgroup(E).points
    values = [_descent_values(E, X) for X in (*torsion, *points)]
    classes = _Classes([v for t in values for v in t])
    rows, gained = _echelon([classes.vector(t) for t in values])
    return (torsion, values, classes, rows,
            [i - len(torsion) for i in gained if i >= len(torsion)])


class IndependenceResult(NamedTuple):
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
    for P in points:
        _require_on_curve(E, P)
    gained = _descent_echelon(E, points)[4]
    return IndependenceResult(len(gained) == len(points), len(gained),
                              tuple(gained))


# ---------------------------------------------------------------------------
# the rank of a point span, and naive search

# odd primes of the residue sieve in naive_point_search; each one rejects
# about half of the x-coordinates that survive the primes before it
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# _SQUARES[p][r]: r is a square mod p, zero included (Euler's criterion)
_SQUARES = {p: tuple(pow(r, (p - 1) // 2, p) != p - 1 for r in range(p))
            for p in _SIEVE_PRIMES}


class RankBound(NamedTuple):
    bound: int
    method: str                      # "descent": two-descent and halving
    certificate_indices: tuple[int, ...]


def rank_lower_bound(E: CurveQ, points: Sequence[PointQ]) -> RankBound:
    """The rank of the subgroup the points generate, by descent and halving.

    Raises FormMismatch unless E has full rational two-torsion, as every
    induced curve does.  The pivots are first the points whose descent
    vectors are independent modulo the torsion image, as in
    `independent_mod_two`.  Then L = <pivots> + torsion is 2-saturated: if
    2X lies in L, descent forces every pivot coefficient of 2X to be even,
    so X lies in L.  Hence L has odd index in its saturation M, and every
    other point P is decided by a halving chain that starts at Q = P:

    - If Q's vector is new, Q is not in M (an odd multiple of a point of M
      lies in L and has the same vector), so Q joins the pivots and P
      counts.
    - If not, the echelon masks give S in L with Q's vector, and R = Q - S
      is in 2 E(Q).  A torsion R puts Q in L.  Otherwise Q becomes a half
      of R, which spans the same space over L as Q did.
    - A Q in an orbit +-Q' + T met before proves P dependent: either Q'
      is from an earlier, finished chain and lies in the span of the
      pivots, or Q' came k steps earlier in this chain, so that
      Q' = 2^k Q modulo L and (2^k -+ 1) Q lies in L.

    Every chain ends: within it the sums S come from a finite set, and
    the canonical height of the next Q is h(Q - S) / 4 <= (h(Q) + h(S)) / 2,
    so the chain stays among the finitely many points below a fixed
    height, and it ends before any of them repeats.  So the bound is exact.  The
    certificate lists the input points that count, and they are
    independent.
    """
    _square_completed(E)            # FormMismatch unless full two-torsion
    infinite = [(i, P) for i, P in enumerate(points)
                if not P.is_infinity and point_order(E, P) is None]
    if not infinite:
        return RankBound(0, "descent", ())
    found = [P for _, P in infinite]
    torsion, values, classes, rows, gained = _descent_echelon(E, found)
    # gens[i] has the descent values values[i]; echelon masks index gens
    gens = [*torsion, *found]
    certificate = [infinite[j][0] for j in gained]
    if len(certificate) == len(infinite):
        return RankBound(len(certificate), "descent", tuple(certificate))
    pivots = set(gained)
    # the orbit +-Q + T of a point Q is kept as the x-coordinates of Q + T
    seen: set[Fraction] = set()
    for j, (i, P) in enumerate(infinite):
        if j in pivots:
            continue
        Q, chain = P, set()
        while Q.x not in seen and Q.x not in chain:
            chain.update(_add(E, Q, T).x for T in torsion)
            q_values = _descent_values(E, Q)
            if classes.add(q_values):
                rows = _echelon([classes.vector(t) for t in values])[0]
            vec, mask = _reduce(rows, classes.vector(q_values))
            if vec:
                rows[vec.bit_length() - 1] = (vec, mask ^ (1 << len(gens)))
                gens.append(Q)
                values.append(q_values)
                certificate.append(i)
                break
            S = INFINITY
            for k, G in enumerate(gens):
                if mask >> k & 1:
                    S = _add(E, S, G)
            R = _add(E, Q, _neg(E, S))
            if R in torsion:
                break
            Q = _a_half(E, R)
            if Q is None:
                raise ArithmeticError("a point with trivial descent image "
                                      "has no rational half")
        seen |= chain
    return RankBound(len(certificate), "descent", tuple(sorted(certificate)))


def naive_point_search(E: CurveQ, height_bound: float) -> list[PointQ]:
    """All affine points of E in a naive-height box, sorted by (x, y).

    Every affine point of E's integral model (`_int_model`, x scaled by
    k^2) has x = m / e^2 with gcd(m, e) = 1.  With cap =
    floor(exp(height_bound)), the box is |m| <= cap, e^2 <= cap,
    gcd(m, e) = 1, all bounds inclusive; a hit (m / e^2, y / (2 e^3))
    there is (m / (e^2 k^2), y / (2 e^3 k^3)) on E.

    x = m / e^2 has a rational y exactly when the integer

        D(m) = 4 m^3 + b2 e^2 m^2 + 2 b4 e^4 m + b6 e^6,

    e^6 times the discriminant of the quadratic in y, is a square.  As in
    Stoll's ratpoints, m is first sieved by quadratic residues: for each
    prime p of _SIEVE_PRIMES, D(m) must be a square mod p (zero included).
    Only the few m that pass every prime get an exact isqrt.
    """
    k, a1, _, a3, _, _ = _int_model(E)
    _, b2, b4, b6, *_ = _int_invariants(E)
    kk = k * k
    cap = math.floor(math.exp(height_bound))
    found: set[PointQ] = set()
    for e in range(1, math.isqrt(cap) + 1):
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
            x = Fraction(m, e2 * kk)
            t = a1 * m * e + a3 * e3
            for y in {r - t, -r - t}:
                found.add(PointQ(x, Fraction(y, 2 * e3 * kk * k)))
    return sorted(found, key=lambda P: (P.x, P.y))
