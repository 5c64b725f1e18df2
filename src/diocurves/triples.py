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

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    DegenerateTriple,
    NotDiophantine,
    NotDiophantinePair,
    ZeroExtension,
)
from .rationals import (QQ, format_rational, is_perfect_square, sqrt_int,
                        to_fraction)
from .weierstrass import (CurveQ, PointQ, _doubles_to, _require_on_curve,
                          _seed_two_torsion_x)


def mutual_root(x: Fraction, y: Fraction) -> Fraction | None:
    """The canonical nonnegative square root of xy + 1, or None.

    With x = p/q and y = r/s, xy + 1 = n/d for n = pr + qs, d = qs > 0,
    and n/d is a square exactly when nd is, with root sqrt(nd)/d.
    """
    p, q = to_fraction(x).as_integer_ratio()
    r, s = to_fraction(y).as_integer_ratio()
    d = q * s
    w = sqrt_int((p * r + d) * d)
    return None if w is None else Fraction(w, d)


def validate_tuple(values: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """Check the Diophantine property for every pair of a tuple.

    Returns {(i, j): sqrt(values[i] * values[j] + 1)} for i < j.
    Raises DegenerateTriple for zero or repeated entries and
    NotDiophantine naming the first failing pair.
    """
    vals = [to_fraction(v) for v in values]
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


class Triple(NamedTuple):
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
    return Triple(to_fraction(a), to_fraction(b), to_fraction(c),
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


class InducedCurves(NamedTuple):
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


def _companion_ints(t: Triple) -> tuple[int, int, int, int,
                                         tuple[tuple[int, int], ...]]:
    """(den, e1, e2, e3, xs) in ints: with a = A/p, b = B/q, c = C/r,
    den = pqr, e_k / den is the k-th elementary symmetric function of
    a, b, c, and xs holds -ab, -ac, -bc as (numerator, denominator) pairs,
    not reduced.  The companion model is
    y^2 = x^3 + (e2/den) x^2 + (e3 e1/den^2) x + e3^2/den^2, as
    abc (a + b + c) = ab ac + ab bc + ac bc."""
    (A, p), (B, q), (C, r) = (v.as_integer_ratio() for v in t.elements)
    return (p * q * r, A * q * r + B * p * r + C * p * q,
            A * B * r + A * C * q + B * C * p, A * B * C,
            ((-A * B, p * q), (-A * C, p * r), (-B * C, q * r)))


def induced_curves(t: Triple) -> InducedCurves:
    """Both models, each coefficient one Fraction of integers: every
    symmetric function of a, b, c has denominator a power of pqr."""
    den, e1, e2, e3, xs = _companion_ints(t)
    scale = Fraction(e3, den)
    cubic = (scale, Fraction(e2, den), Fraction(e1, den), QQ(1))
    # (x + ab)(x + ac)(x + bc)
    curve = CurveQ(0, cubic[1], 0, Fraction(e3 * e1, den * den),
                   Fraction(e3 * e3, den * den))
    _seed_two_torsion_x(curve, tuple(sorted(Fraction(n, d) for n, d in xs)))
    return InducedCurves(t, cubic, curve, scale)


class CanonicalPoints(NamedTuple):
    """The stock rational points on the companion model of a triple."""

    two_torsion: tuple[PointQ, PointQ, PointQ]
    x_zero: PointQ           # [0, abc]
    x_one: PointQ            # [1, product of the three roots]
    half_x_one: PointQ       # doubles to x_one

    def all_points(self) -> tuple[PointQ, ...]:
        return self.two_torsion + (self.x_zero, self.x_one, self.half_x_one)


def _half_point(R: int, i: int, S: int, j: int, U: int, k: int) -> PointQ:
    """(rs + ru + su + 1, (r + s)(r + u)(s + u)) for r = R/i, s = S/j and
    u = U/k, in ints: with the roots of ab + 1, ac + 1 and bc + 1 it is a
    half of [1, rsu] on the companion model."""
    den = i * j * k
    return PointQ(Fraction(R * S * k + R * U * j + S * U * i + den, den),
                  Fraction((R * j + S * i) * (R * k + U * i) * (S * k + U * j),
                           den * den))


def canonical_points(t: Triple, curves: InducedCurves | None = None) -> CanonicalPoints:
    if curves is None:
        curves = induced_curves(t)
    (A, p), (B, q), (C, n) = (v.as_integer_ratio() for v in t.elements)
    # the roots r, s, u of ab + 1, ac + 1, bc + 1 as R/i, S/j, U/k
    (R, i), (S, j), (U, k) = (w.as_integer_ratio() for w in
                              (t.root_ab, t.root_ac, t.root_bc))
    E = curves.curve
    torsion = (PointQ(Fraction(-B * C, q * n), 0),
               PointQ(Fraction(-A * C, p * n), 0),
               PointQ(Fraction(-A * B, p * q), 0))
    x_zero = PointQ(0, Fraction(A * B * C, p * q * n))
    x_one = PointQ(1, Fraction(R * S * U, i * j * k))
    half = _half_point(R, i, S, j, U, k)
    _require_on_curve(E, half)
    if not _doubles_to(E, half, x_one):
        raise ArithmeticError("the half point does not double to [1, rsu]")
    return CanonicalPoints(torsion, x_zero, x_one, half)


class QuadrupleExtension(NamedTuple):
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
