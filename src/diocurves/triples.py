"""Rational Diophantine triples and the elliptic curves they induce.

A triple {a, b, c} of distinct nonzero rationals is Diophantine when
ab + 1, ac + 1 and bc + 1 are all rational squares.  Each such triple
induces the genus-one curve

    y^2 = (a x + 1)(b x + 1)(c x + 1)

whose integral-style companion model

    y^2 = (x + ab)(x + ac)(x + bc)

carries the whole group structure; (x, y) -> (abc x, abc y) identifies
the two.  Its points of order two are (-ab, 0), (-ac, 0) and (-bc, 0),
so the companion curve is handed its two-torsion x-coordinates on
construction and never solves its cubic for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateTriple,
    NotDiophantine,
    NotDiophantinePair,
    ZeroExtension,
)
from .rationals import QQ, format_rational, is_perfect_square
from .weierstrass import CurveQ, PointQ, _seed_two_torsion_x, dbl


def mutual_root(x: Fraction, y: Fraction) -> Fraction | None:
    """The canonical nonnegative square root of xy + 1, or None."""
    return is_perfect_square(QQ(x) * QQ(y) + 1)


def validate_tuple(values: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """Check the Diophantine property for every pair of a tuple.

    Returns {(i, j): sqrt(values[i] * values[j] + 1)} for i < j.
    Raises DegenerateTriple for zero or repeated entries and
    NotDiophantine naming the first failing pair.
    """
    vals = [QQ(v) for v in values]
    for i, v in enumerate(vals):
        if v == 0:
            raise DegenerateTriple(f"entry {i} is zero")
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j]:
                raise DegenerateTriple(
                    f"entries {i} and {j} are both {format_rational(vals[i])}")
    roots: dict[tuple[int, int], Fraction] = {}
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            root = mutual_root(vals[i], vals[j])
            if root is None:
                raise NotDiophantine(
                    "%s * %s + 1 is not a rational square"
                    % (format_rational(vals[i]), format_rational(vals[j])))
            roots[(i, j)] = root
    return roots


@dataclass(frozen=True)
class Triple:
    a: Fraction
    b: Fraction
    c: Fraction
    root_ab: Fraction
    root_ac: Fraction
    root_bc: Fraction

    @property
    def elements(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    def __repr__(self):
        return "{%s}" % ", ".join(format_rational(v) for v in self.elements)


def make_triple(a, b, c) -> Triple:
    roots = validate_tuple([a, b, c])
    return Triple(QQ(a), QQ(b), QQ(c),
                  roots[(0, 1)], roots[(0, 2)], roots[(1, 2)])


def euler_extension(a: Fraction, b: Fraction, sign: int = 1) -> Fraction:
    """Extend a Diophantine pair {a, b} to a triple by a + b +- 2 sqrt(ab+1).

    Both signs give valid third elements since
    a (a + b +- 2r) + 1 = (a +- r)^2.  Raises ZeroExtension when the
    chosen branch collapses to zero.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a, b = QQ(a), QQ(b)
    root = mutual_root(a, b)
    if root is None:
        raise NotDiophantinePair(
            "%s * %s + 1 is not a rational square"
            % (format_rational(a), format_rational(b)))
    c = a + b + 2 * sign * root
    if c == 0:
        raise ZeroExtension(f"branch sign={sign} of the pair gives zero")
    return c


@dataclass(frozen=True)
class InducedCurves:
    """Both models induced by a triple, plus the gluing data.

    cubic holds (c3, c2, c1, c0) with the original model
    y^2 = c3 x^3 + c2 x^2 + c1 x + c0; curve is the companion
    long-Weierstrass model; scale is the factor abc of the identification
    (x, y) -> (scale x, scale y).
    """

    triple: Triple
    cubic: tuple[Fraction, Fraction, Fraction, Fraction]
    curve: CurveQ
    scale: Fraction

    def is_on_cubic(self, x: Fraction, y: Fraction) -> bool:
        c3, c2, c1, c0 = self.cubic
        x, y = QQ(x), QQ(y)
        return y * y == c3 * x ** 3 + c2 * x * x + c1 * x + c0

    def lift(self, x: Fraction, y: Fraction) -> PointQ:
        """Carry an affine point of the cubic model onto .curve."""
        if not self.is_on_cubic(x, y):
            from .errors import PointNotOnCurve
            raise PointNotOnCurve(
                f"({format_rational(QQ(x))}, {format_rational(QQ(y))}) "
                "does not satisfy the cubic model")
        return PointQ(self.scale * QQ(x), self.scale * QQ(y))


def induced_curves(t: Triple) -> InducedCurves:
    a, b, c = t.elements
    ab, ac, bc = a * b, a * c, b * c
    e2 = ab + ac + bc
    e3 = ab * c
    e1 = a + b + c
    cubic = (e3, e2, e1, QQ(1))
    # (x + ab)(x + ac)(x + bc), as abc (a + b + c) = ab ac + ab bc + ac bc
    curve = CurveQ(0, e2, 0, e3 * e1, e3 * e3)
    _seed_two_torsion_x(curve, tuple(sorted((-ab, -ac, -bc))))
    return InducedCurves(t, cubic, curve, e3)


@dataclass(frozen=True)
class CanonicalPoints:
    """The stock rational points on the companion model of a triple."""

    two_torsion: tuple[PointQ, PointQ, PointQ]
    x_zero: PointQ           # [0, abc]
    x_one: PointQ            # [1, product of the three roots]
    half_x_one: PointQ       # doubles to x_one

    def all_points(self) -> tuple[PointQ, ...]:
        return self.two_torsion + (self.x_zero, self.x_one, self.half_x_one)


def canonical_points(t: Triple, curves: InducedCurves | None = None) -> CanonicalPoints:
    if curves is None:
        curves = induced_curves(t)
    a, b, c = t.elements
    r, s, u = t.root_ab, t.root_ac, t.root_bc
    E = curves.curve
    torsion = (PointQ(-b * c, 0), PointQ(-a * c, 0), PointQ(-a * b, 0))
    x_zero = PointQ(0, a * b * c)
    x_one = PointQ(1, r * s * u)
    half = PointQ(r * s + r * u + s * u + 1, (r + s) * (r + u) * (s + u))
    if dbl(E, half) != x_one:
        raise ArithmeticError("the half point does not double to [1, rsu]")
    return CanonicalPoints(torsion, x_zero, x_one, half)


@dataclass(frozen=True)
class QuadrupleExtension:
    """The two closed-form fourth elements of a triple.

    Each branch value d satisfies a d + 1 = square (and likewise for b, c)
    whenever it is not degenerate.  A branch is degenerate when it is zero
    or repeats an element of the triple.
    """

    plus_branch: Fraction
    minus_branch: Fraction
    plus_degenerate: bool
    minus_degenerate: bool

    def usable(self) -> list[Fraction]:
        out = []
        if not self.plus_degenerate:
            out.append(self.plus_branch)
        if not self.minus_degenerate:
            out.append(self.minus_branch)
        return out


def extend_to_quadruple(t: Triple) -> QuadrupleExtension:
    a, b, c = t.elements
    roots_product = t.root_ab * t.root_ac * t.root_bc
    base = a + b + c + 2 * a * b * c
    plus = base + 2 * roots_product
    minus = base - 2 * roots_product

    def degenerate(d: Fraction) -> bool:
        return d == 0 or d in t.elements

    # closed-form square roots certify the extension without search:
    # a d + 1 = (a root_bc +- root_ab root_ac)^2 and cyclic variants
    for d in (plus, minus):
        if not degenerate(d):
            for v in t.elements:
                if is_perfect_square(v * d + 1) is None:
                    raise ArithmeticError(
                        f"{v} * {d} + 1 is not a square")
    return QuadrupleExtension(plus, minus, degenerate(plus), degenerate(minus))
