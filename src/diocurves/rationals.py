"""Exact rational scalars and the square-related predicates built on them.

The scalar type is the standard-library Fraction: it already keeps values in
lowest terms with a positive denominator, which is exactly the canonical
form the rest of the package relies on.  This module adds parsing/printing
with a guaranteed round-trip, perfect-square detection, squarefree class
computation and the logarithmic naive height.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FactorizationIncomplete, ParseError, ZeroInput
from .factoring import factor_best_effort, DEFAULT_BUDGET

QQ = Fraction

_RAT_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; inverse of format_rational."""
    m = _RAT_RE.match(text)
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def to_fraction(v) -> Fraction:
    """v as a Fraction; a value that already is one is returned as is."""
    return v if type(v) is Fraction else Fraction(v)


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" (or "p" for integers); parse_rational round-trips it."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def log_int(n: int) -> float:
    """log of a positive integer of any size (math.log overflows above ~1e308)."""
    if n <= 0:
        raise ZeroInput("log_int needs a positive integer")
    b = n.bit_length()
    if b <= 900:
        return math.log(n)
    top = n >> (b - 64)
    return math.log(top) + (b - 64) * math.log(2)


def naive_height(q: Fraction) -> float:
    """log max(|numerator|, denominator) of the canonical form; h(0) = 0."""
    if q == 0:
        return 0.0
    return log_int(max(abs(q.numerator), q.denominator))


def sqrt_int(n: int):
    """Exact integer square root, or None when n is not a perfect square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_perfect_square(q: Fraction):
    """Return the nonnegative rational square root of q, or None.

    >>> is_perfect_square(Fraction(9, 4))
    Fraction(3, 2)
    >>> is_perfect_square(Fraction(2)) is None
    True
    """
    if q < 0:
        return None
    rn = sqrt_int(q.numerator)
    if rn is None:
        return None
    rd = sqrt_int(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def square_class(q: Fraction, budget: int = DEFAULT_BUDGET) -> int:
    """Squarefree integer d with q = d * (rational square); sign preserved.

    Multiplying q by any nonzero square leaves the class unchanged.  Raises
    FactorizationIncomplete when the budget cannot certify squarefreeness.
    """
    if q == 0:
        raise ZeroInput("square class of 0 is undefined")
    # n/d and n*d differ by the square d^2, so one integer factorization does.
    m = q.numerator * q.denominator
    fac = factor_best_effort(abs(m), budget)
    if not fac.complete:
        c = sqrt_int(fac.cofactor)
        if c is None:
            raise FactorizationIncomplete(
                f"cannot certify square class of {q}", partial=fac)
        # a square cofactor cannot change the class
    d = 1
    for p, e in fac.factors:
        if e % 2:
            d *= p
    return -d if m < 0 else d
