"""Dense polynomials over Q, as coefficient lists with the leading one first.

The package needs only a few exact polynomial operations: rational roots,
and the products, differences and extended Euclid with which they reduce a
polynomial with a repeated root to its squarefree part.  Coefficients are
ints or Fractions; the empty list is the zero polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .factoring import is_probable_prime

# good primes that may show a repeated root before f is made squarefree
_SINGULAR_PRIME_LIMIT = 40


def _trim(a: Sequence) -> list:
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return list(a[i:])


def mul(*polys: Sequence) -> list:
    """The product of the given polynomials."""
    out: list = [1]
    for b in polys:
        if not out or not b:
            return []
        prod = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = prod
    return _trim(out)


def sub(a: Sequence, b: Sequence) -> list:
    """a - b."""
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return _trim([x - y for x, y in zip(a, b)])


def div_mod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b, over Q."""
    b = _trim(b)
    rem = [Fraction(c) for c in _trim(a)]
    quo = []
    while len(rem) >= len(b):
        c = rem[0] / b[0]
        quo.append(c)
        for j in range(1, len(b)):
            rem[j] -= c * b[j]
        rem.pop(0)
    return _trim(quo), _trim(rem)


def gcdex(a: Sequence, b: Sequence) -> tuple[list, list, list]:
    """(s, t, h) with s a + t b = h, h the monic gcd of a and b.

    s and t are the unique cofactors with deg s < deg b - deg h and
    deg t < deg a - deg h.
    """
    r0, r1 = [Fraction(c) for c in _trim(a)], [Fraction(c) for c in _trim(b)]
    s0, s1, t0, t1 = [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = div_mod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
        t0, t1 = t1, sub(t0, mul(q, t1))
    lead = r0[0]
    return ([c / lead for c in s0], [c / lead for c in t0],
            [c / lead for c in r0])


def _primitive(coeffs: Sequence) -> list[int]:
    """coeffs scaled into Z[x] with content 1, leading zeros dropped."""
    cs = _trim([Fraction(c) for c in coeffs])
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _derivative(f: Sequence[int]) -> list[int]:
    n = len(f) - 1
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def _eval_mod(f: Sequence[int], z: int, m: int) -> int:
    acc = 0
    for c in f:
        acc = (acc * z + c) % m
    return acc


def _vanishes_at(f: Sequence[int], r: Fraction) -> bool:
    """Exact test of f(r) = 0, homogenized to stay in Z."""
    num, den = r.numerator, r.denominator
    acc, den_pow = 0, 1
    for c in f:
        acc = acc * num + c * den_pow
        den_pow *= den
    return acc == 0


def rational_roots(coeffs: Sequence) -> list[Fraction]:
    """The distinct rational roots of sum coeffs[i] x^(n-i), ascending."""
    f = _primitive(coeffs)
    roots = []
    if len(f) > 1 and f[-1] == 0:
        roots.append(Fraction(0))
        while f[-1] == 0:
            f.pop()
    if len(f) > 1:
        roots.extend(_nonzero_roots(f))
    return sorted(roots)


def _nonzero_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of a primitive f in Z[x] with f(0) != 0, by p-adic lifting.

    Completeness: a root r/s in lowest terms has s | lead and r | const,
    so lead * r/s is an integer of absolute value at most |lead * const|.
    At a prime p not dividing lead, r/s reduces to a root of f mod p, and
    when every root mod p is simple, Hensel's lemma lifts each one to a
    unique root mod p^k; the lift of the reduction of r/s is r/s mod p^k.
    Once p^k > 2 |lead * const|, the symmetric residue of lead times that
    lift is lead * r/s itself.  So every rational root is among the
    candidates, and a candidate is kept only when f vanishes there exactly.
    Repeated roots are singular modulo every prime; if enough good primes
    all show one, f is replaced by its squarefree part, which has the same
    roots and only finitely many primes with a singular root.
    """
    df = _derivative(f)
    p = 1
    singular = 0
    while True:
        p += 1
        while not is_probable_prime(p):
            p += 1
        if f[0] % p == 0:
            continue
        fp = [c % p for c in f]
        dfp = [c % p for c in df]
        zs = [z for z in range(p) if _eval_mod(fp, z, p) == 0]
        if all(_eval_mod(dfp, z, p) for z in zs):
            break
        singular += 1
        if singular == _SINGULAR_PRIME_LIMIT:
            f = _primitive(div_mod(f, gcdex(f, df)[2])[0])
            df = _derivative(f)

    lead, const = f[0], f[-1]
    bound = 2 * abs(lead * const)
    roots = []
    for z in zs:
        m = p
        while m <= bound:
            m *= m
            z = (z - _eval_mod(f, z, m) * pow(_eval_mod(df, z, m), -1, m)) % m
        t = lead * z % m
        if 2 * t > m:
            t -= m
        r = Fraction(t, lead)
        if (const % r.numerator == 0 and lead % r.denominator == 0
                and _vanishes_at(f, r)):
            roots.append(r)
    return roots
