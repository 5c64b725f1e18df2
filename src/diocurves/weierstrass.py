"""Long Weierstrass models over Q: group law, model maps, minimal models.

Curves are the five-coefficient equation

    y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6

with exact rational coefficients.  Points do not hold a reference to their
curve; every operation takes the curve explicitly.  Membership is checked
once, at the boundary: each public entry (`add`, `dbl`, `sub`, `neg`,
`scalar_mul`, `map_point`) raises PointNotOnCurve on a point off the given
model, so a point can never silently be used on the wrong model.  Loops
inside the package whose points are already known to lie on the curve
(the double-and-add chain, order scans, halving checks, search hits) call
the unchecked `_add` and `_map_point` instead of paying for a re-check on
every step.

Integers at the core, Fraction at the boundary.  `CurveQ` and `PointQ`
hold `fractions.Fraction` values, always in lowest terms, and that is all a
caller sees.  Inside, membership, the group law and negation work on the
integral model of `clear_denominators`: with m the lcm of the coefficient
denominators, its coefficients a_i m^i are plain ints (`_int_model`, kept
on the curve), and a point (x, y) of E is (m^2 x, m^3 y) there.  Each
operation reads every coordinate's numerator and denominator once,
cross-multiplies in ints, and builds each output coordinate with one
Fraction(num, den), whose single gcd puts it in lowest terms; so the
results, and every printed byte, are those of the plain Fraction
formulas.  The invariants are computed the same way: an invariant of
weight k is the one of the integral model divided by m^k, once, at the
end.

Data derived from a curve (its integral model and invariants, its
square-completed model, the x-coordinates of its points of order two and
its torsion subgroup) is built once, on first use, and kept on the curve
object by `_memo`; it is dropped with the curve.  The integral model is
read as ints off the curve itself, and `clear_denominators` builds it as a
curve only on request, keeping nothing.  The two-torsion x are handed on:
`triples.induced_curves` seeds them in closed form and `minimal_model`
carries them as x' = (x - r) / u^2, so only a curve that came from neither
solves its cubic.  The package has no module-level cache of curve data
and no size caps: two equal curves built separately each build their own
copy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, TypeVar

from ._poly import rational_roots
from .errors import ParseError, PointNotOnCurve, SingularCurve
from .factoring import factor_best_effort
from .rationals import format_rational, is_perfect_square, to_fraction

_T = TypeVar("_T")


def _memo(E: CurveQ, name: str, build: Callable[[CurveQ], _T]) -> _T:
    """build(E), computed once per curve object and kept on it.

    The value lives in the frozen instance's __dict__ under `name`, beside
    the fields, so ==, hash and repr, which read the fields alone, never
    see it.  Only `_seed_two_torsion_x` writes there otherwise.
    """
    try:
        return E.__dict__[name]
    except KeyError:
        value = E.__dict__[name] = build(E)
        return value


# sets a field of a _Frozen instance, past its raising __setattr__
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types.

    Each subclass's __init__ checks and normalises its arguments and sets
    each field once with `_set`; assignment and deletion raise afterwards.
    == and hash read the tuple of fields `_key` returns, and an instance
    equals only instances of its own class.  The fields live in the
    instance __dict__, which pickling stores and restores, so it needs no
    method of its own.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CurveQ(_Frozen):
    """The model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    def __init__(self, a1, a2, a3, a4, a6):
        _set(self, "a1", to_fraction(a1))
        _set(self, "a2", to_fraction(a2))
        _set(self, "a3", to_fraction(a3))
        _set(self, "a4", to_fraction(a4))
        _set(self, "a6", to_fraction(a6))
        if _int_invariants(self)[-1] == 0:
            raise SingularCurve(f"discriminant is zero for {self}")

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    _key = coefficients

    def __repr__(self):
        return "CurveQ[%s]" % ",".join(format_rational(a) for a in self.coefficients())


class PointQ(_Frozen):
    """Affine point or the point at infinity (x = y = None)."""

    def __init__(self, x, y):
        if x is None and y is None:
            _set(self, "x", None)
            _set(self, "y", None)
        elif x is None or y is None:
            raise ParseError("point needs both coordinates or neither")
        else:
            _set(self, "x", to_fraction(x))
            _set(self, "y", to_fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _key(self) -> tuple[Fraction | None, Fraction | None]:
        return (self.x, self.y)

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "[%s,%s]" % (format_rational(self.x), format_rational(self.y))


INFINITY = PointQ(None, None)


class Invariants(_Frozen):
    """The b- and c-invariants, the discriminant and the j-invariant."""

    def __init__(self, b2, b4, b6, b8, c4, c6, disc, j):
        for name, value in (("b2", b2), ("b4", b4), ("b6", b6), ("b8", b8),
                            ("c4", c4), ("c6", c6), ("disc", disc), ("j", j)):
            _set(self, name, value)

    def _key(self) -> tuple[Fraction, ...]:
        return (self.b2, self.b4, self.b6, self.b8, self.c4, self.c6,
                self.disc, self.j)

    def __repr__(self):
        return ("Invariants(b2=%r, b4=%r, b6=%r, b8=%r, c4=%r, c6=%r, "
                "disc=%r, j=%r)" % self._key())


def invariants(E: CurveQ) -> Invariants:
    """The b-, c-invariants, discriminant and j-invariant of the model."""
    return _memo(E, "_invariants", _invariants)


def _invariants(E: CurveQ) -> Invariants:
    """The invariants of the integral model, each divided by m^weight."""
    m, b2, b4, b6, b8, c4, c6, disc = _int_invariants(E)
    return Invariants(Fraction(b2, m ** 2), Fraction(b4, m ** 4),
                      Fraction(b6, m ** 6), Fraction(b8, m ** 8),
                      Fraction(c4, m ** 4), Fraction(c6, m ** 6),
                      Fraction(disc, m ** 12), Fraction(c4 ** 3, disc))


def _int_invariants(E: CurveQ) -> tuple[int, ...]:
    """(m, b2, b4, b6, b8, c4, c6, disc) of the integral model a_i m^i of
    `_int_model`, in ints.  The constructor reads the discriminant here,
    so every curve built checks the two invariant identities once and
    builds the Fraction invariants only when asked for them."""
    return _memo(E, "_int_invariants", _build_int_invariants)


def _build_int_invariants(E: CurveQ) -> tuple[int, ...]:
    m, *coefficients = _int_model(E)
    return (m, *_invariants_of_ints(*coefficients))


def _invariants_of_ints(a1: int, a2: int, a3: int, a4: int,
                        a6: int) -> tuple[int, ...]:
    """(b2, b4, b6, b8, c4, c6, disc) of an integral model, with both
    invariant identities checked."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    if 4 * b8 != b2 * b6 - b4 * b4:
        raise ArithmeticError("invariant identity 4 b8 = b2 b6 - b4^2 failed")
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if 1728 * disc != c4 ** 3 - c6 * c6:
        raise ArithmeticError("invariant identity 1728 D = c4^3 - c6^2 failed")
    return b2, b4, b6, b8, c4, c6, disc


_TWO_TORSION_X = "_two_torsion_x"


def two_torsion_x(E: CurveQ) -> tuple[Fraction, ...]:
    """The rational x-coordinates of the points of order two, ascending.

    They are the rational roots of 4x^3 + b2 x^2 + 2b4 x + b6: none, one,
    or all three.  A curve seeded by `induced_curves` or carried by
    `minimal_model` holds them already; any other solves the cubic once.
    """
    return _memo(E, _TWO_TORSION_X, _two_torsion_roots)


def _two_torsion_roots(E: CurveQ) -> tuple[Fraction, ...]:
    inv = invariants(E)
    return tuple(rational_roots([4, inv.b2, 2 * inv.b4, inv.b6]))


def _seed_two_torsion_x(E: CurveQ, xs: tuple[Fraction, ...]) -> None:
    """Put already known two-torsion x-coordinates, ascending, on E."""
    E.__dict__[_TWO_TORSION_X] = xs


def _int_model(E: CurveQ) -> tuple[int, int, int, int, int, int]:
    """(m, a1 m, a2 m^2, a3 m^3, a4 m^4, a6 m^6): the scale m of
    clear_denominators, the lcm of the coefficient denominators, and the
    integral model's coefficients, as ints."""
    return _memo(E, "_int_model", _build_int_model)


def _build_int_model(E: CurveQ) -> tuple[int, ...]:
    return _int_model_of([a.as_integer_ratio() for a in E.coefficients()])


def _int_model_of(ratios: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """`_int_model` of the coefficients a1, a2, a3, a4, a6 given as
    (numerator, denominator) pairs in lowest terms, denominators positive."""
    m = math.lcm(*(d for _, d in ratios))
    return (m, *(n * (m ** k // d) for (n, d), k in zip(
        ratios, (1, 2, 3, 4, 6))))


def is_on_curve(E: CurveQ, P: PointQ) -> bool:
    """Whether P lies on E, tested in integers.

    On the integral model, with (m^2 x, m^3 y) = (u/d, v/e), the equation
    is multiplied by d^3 e^2.
    """
    if P.x is None:
        return True
    m, a1, a2, a3, a4, a6 = _int_model(E)
    X, d = P.x.as_integer_ratio()
    Y, e = P.y.as_integer_ratio()
    u = X * m * m
    v = Y * m * m * m
    dd = d * d
    ddd = dd * d
    return (v * v * ddd + (a1 * u * dd + a3 * ddd) * v * e
            == e * e * (((u + a2 * d) * u + a4 * dd) * u + a6 * ddd))


def _require_on_curve(E: CurveQ, P: PointQ) -> None:
    if not is_on_curve(E, P):
        raise PointNotOnCurve(f"{P} is not on {E}")


def neg(E: CurveQ, P: PointQ) -> PointQ:
    _require_on_curve(E, P)
    return _neg(E, P)


def _neg(E: CurveQ, P: PointQ) -> PointQ:
    """-P = (x, -y - a1 x - a3), in integers on the integral model."""
    if P.x is None:
        return INFINITY
    m, a1, _, a3, _, _ = _int_model(E)
    X, d = P.x.as_integer_ratio()
    Y, e = P.y.as_integer_ratio()
    mmm = m * m * m
    return PointQ(P.x, Fraction(-(Y * mmm * d + (a1 * X * m * m + a3 * d) * e),
                                d * e * mmm))


def add(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    """Chord-and-tangent sum of two points of E."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add(E, P, Q)


def _add(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    """The group law without membership checks: P and Q must lie on E.

    Chord and tangent on the integral model, in integers: with the points
    there written (u_i/d_i, v_i/e_i) and the slope L/M, the sum is

        x3 = L^2/M^2 + a1 L/M - a2 - x1 - x2 = N3 / D3,  D3 = M^2 d1 d2,
        y3 = (L/M)(x1 - x3) - y1 - a1 x3 - a3,

    and each coordinate is divided back by m^2, m^3 in its one Fraction.
    """
    if P.x is None:
        return Q
    if Q.x is None:
        return P
    m, a1, a2, a3, a4, _ = _int_model(E)
    mm = m * m
    mmm = mm * m
    X1, d1 = P.x.as_integer_ratio()
    Y1, e1 = P.y.as_integer_ratio()
    X2, d2 = Q.x.as_integer_ratio()
    Y2, e2 = Q.y.as_integer_ratio()
    u1, v1, u2, v2 = X1 * mm, Y1 * mmm, X2 * mm, Y2 * mmm
    if X1 == X2 and d1 == d2:
        w = (a1 * u1 + a3 * d1) * e1       # (a1 x1 + a3) d1 e1
        if (v2 * e1 + v1 * e2) * d1 + w * e2 == 0:    # Q = -P
            return INFINITY
        # tangent: (3x1^2 + 2a2 x1 + a4 - a1 y1) / (2y1 + a1 x1 + a3)
        L = (3 * u1 * u1 + 2 * a2 * u1 * d1 + a4 * d1 * d1) * e1 \
            - a1 * v1 * d1 * d1
        M = (2 * v1 * d1 + w) * d1
    else:
        # chord: (y2 - y1) / (x2 - x1)
        L = (v2 * e1 - v1 * e2) * d1 * d2
        M = (u2 * d1 - u1 * d2) * e1 * e2
    MM = M * M
    D3 = MM * d1 * d2
    N3 = (L * L + a1 * L * M - a2 * MM) * d1 * d2 - (u1 * d2 + u2 * d1) * MM
    Y3 = (L * (u1 * MM * d2 - N3) * e1
          - (v1 * D3 + (a1 * N3 + a3 * D3) * e1) * M)
    return PointQ(Fraction(N3, D3 * mm), Fraction(Y3, M * D3 * e1 * mmm))


def _doubles_to(E: CurveQ, S: PointQ, P: PointQ) -> bool:
    """Whether 2S = P, without a division, on a model E with a1 = a3 = 0.

    S must lie on E; P may be any point.  A point with y = 0 doubles to O.
    Otherwise, with N = 3x_S^2 + 2a2 x_S + a4 and D = 2y_S, the tangent at
    S has slope N/D, and 2S = P exactly when

        x_P D^2 = N^2 - (a2 + 2x_S) D^2  and  y_P D = -N (x_P - x_S) - y_S D.

    Both are tested in integers: every coordinate and coefficient is
    written num/den, and each equation is multiplied by its denominators.
    """
    if S.is_infinity or S.y == 0:
        return P.is_infinity
    if P.is_infinity:
        return False
    X, d = S.x.as_integer_ratio()
    Y, e = S.y.as_integer_ratio()
    U, v = P.x.as_integer_ratio()
    W, f = P.y.as_integer_ratio()
    A, m = E.a2.as_integer_ratio()
    B, n = E.a4.as_integer_ratio()
    # N = Nn / Nd, and x_P + a2 + 2x_S = Ln / (v m d)
    Nd = d * d * m * n
    Nn = (3 * X * X * m + 2 * A * X * d) * n + B * d * d * m
    Ln = (U * m + A * v) * d + 2 * X * v * m
    return (4 * Ln * Y * Y * Nd * Nd == Nn * Nn * e * e * v * m * d
            and 2 * (W * e + Y * f) * Y * Nd * v * d
            == -Nn * (U * d - X * v) * f * e * e)


def dbl(E: CurveQ, P: PointQ) -> PointQ:
    _require_on_curve(E, P)
    return _add(E, P, P)


def sub(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add(E, P, _neg(E, Q))


def scalar_mul(E: CurveQ, n: int, P: PointQ) -> PointQ:
    """nP by binary double-and-add; n may be negative or zero."""
    _require_on_curve(E, P)
    if n == 0 or P.is_infinity:
        return INFINITY
    if n < 0:
        n, P = -n, _neg(E, P)
    acc = INFINITY
    step = P
    while n:
        if n & 1:
            acc = _add(E, acc, step)
        n >>= 1
        if n:
            step = _add(E, step, step)
    return acc


# ---------------------------------------------------------------------------
# model maps


class ModelMap(_Frozen):
    """Change of variables x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    (x, y) lives on the source model, (x', y') on the target.
    """

    def __init__(self, u, r, s, t):
        _set(self, "u", to_fraction(u))
        _set(self, "r", to_fraction(r))
        _set(self, "s", to_fraction(s))
        _set(self, "t", to_fraction(t))
        if self.u == 0:
            raise SingularCurve("model map needs u != 0")

    def _key(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.u, self.r, self.s, self.t)

    def __repr__(self):
        return "ModelMap(u=%r, r=%r, s=%r, t=%r)" % self._key()

    def inverse(self) -> "ModelMap":
        u, r, s, t = self.u, self.r, self.s, self.t
        return ModelMap(1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3)


IDENTITY_MAP = ModelMap(1, 0, 0, 0)


def apply_map(E: CurveQ, M: ModelMap) -> CurveQ:
    """The model E is carried to by the change of variables M."""
    a1, a2, a3, a4, a6 = E.coefficients()
    u, r, s, t = M.u, M.r, M.s, M.t
    return CurveQ(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6,
    )


def map_point(E: CurveQ, M: ModelMap, P: PointQ) -> PointQ:
    """Carry a point of E to the model apply_map(E, M)."""
    _require_on_curve(E, P)
    return _map_point(M, P)


def _map_point(M: ModelMap, P: PointQ) -> PointQ:
    """map_point without the membership check: P must lie on the source."""
    if M is IDENTITY_MAP or P.is_infinity:
        return P
    u, r, s, t = M.u, M.r, M.s, M.t
    xp = (P.x - r) / u ** 2
    yp = (P.y - s * (P.x - r) - t) / u ** 3
    return PointQ(xp, yp)


def _icbrt(n: int) -> int:
    """Floor of the real cube root of n >= 0."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


def _cbrt_rational(q: Fraction) -> Fraction | None:
    """Exact rational cube root, or None."""
    sign = -1 if q < 0 else 1
    n, d = abs(q.numerator), q.denominator
    rn, rd = _icbrt(n), _icbrt(d)
    if rn ** 3 != n or rd ** 3 != d:
        return None
    return sign * Fraction(rn, rd)


def _solve_rst(E1: CurveQ, E2: CurveQ, u: Fraction) -> ModelMap | None:
    """The unique (r,s,t) making (u,r,s,t) carry E1 to E2, if it exists."""
    s = (u * E2.a1 - E1.a1) / 2
    r = (u * u * E2.a2 - E1.a2 + s * E1.a1 + s * s) / 3
    t = (u ** 3 * E2.a3 - E1.a3 - r * E1.a1) / 2
    M = ModelMap(u, r, s, t)
    if apply_map(E1, M) == E2:
        return M
    return None


def find_isomorphism(E1: CurveQ, E2: CurveQ) -> ModelMap | None:
    """A rational change of variables carrying E1 to E2, or None.

    Curves with equal j-invariant but related only by a twist give None.
    """
    i1, i2 = invariants(E1), invariants(E2)
    if i1.j != i2.j:
        return None
    if i1.c4 == 0:
        # j = 0: u is pinned by c6 alone
        u2 = _cbrt_rational(i1.c6 / i2.c6)
        if u2 is None or u2 <= 0:
            return None
    elif i1.c6 == 0:
        # j = 1728: u is pinned by c4 alone
        ratio = i1.c4 / i2.c4
        if ratio <= 0:
            return None
        u2 = is_perfect_square(ratio)
        if u2 is None:
            return None
    else:
        u2 = (i1.c6 * i2.c4) / (i2.c6 * i1.c4)
        if u2 <= 0 or u2 ** 2 != i1.c4 / i2.c4 or u2 ** 3 != i1.c6 / i2.c6:
            return None
    u = is_perfect_square(u2)
    if u is None:
        return None
    for uu in (u, -u):
        M = _solve_rst(E1, E2, uu)
        if M is not None:
            return M
    return None


def clear_denominators(E: CurveQ) -> tuple[CurveQ, ModelMap]:
    """An isomorphic model with integer coefficients, and the map onto it.

    Uses the scaling x -> x / m^2 with m the lcm of the coefficient
    denominators, so a_i picks up the factor m^i; it is built anew on each
    call.  An integral E is its own integral model.
    """
    m, *coefficients = _int_model(E)
    if m == 1:
        return E, IDENTITY_MAP
    return CurveQ(*coefficients), ModelMap(Fraction(1, m), 0, 0, 0)


def _coefficient_scale(E: CurveQ) -> int:
    """m of clear_denominators: the lcm of the coefficient denominators."""
    return _int_model(E)[0]


def complete_the_square(E: CurveQ) -> tuple[CurveQ, ModelMap]:
    """An isomorphic model with a1 = a3 = 0, and the map onto it.

    The b-invariants are untouched, so the new model is
    y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4.
    """
    M = ModelMap(1, 0, -E.a1 / 2, -E.a3 / 2)
    return apply_map(E, M), M


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell): from the ints c4, c6, disc of the
# integral model, divide by p^e at each prime p of gcd(c4, c6), with
# e = min(v(c4) // 4, v(c6) // 6, v(disc) // 12), one step less at 3 or 2
# where the reduced pair fails Kraus's conditions; best effort within the
# factoring bound


class MinimalModelResult(NamedTuple):
    curve: CurveQ
    map: ModelMap          # carries the input model to .curve
    complete: bool         # False when a factoring shortfall may have
                           # left a removable prime in place


def _kraus_ok_3(c6: int) -> bool:
    # forbidden exactly when v_3(c6) == 2
    return not (c6 % 9 == 0 and c6 % 27 != 0)


def _kraus_ok_2(c4: int, c6: int) -> bool:
    if c6 % 4 == 3:
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _valuation(n: int, p: int) -> int:
    if n == 0:
        return 10 ** 9  # effectively infinite for the mins taken below
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def curve_from_c4c6(c4: int, c6: int) -> CurveQ:
    """The standard reduced model with the given integral invariants.

    Raises ValueError, naming the divisibility that fails, when no integral
    model has the invariants (c4, c6), and SingularCurve when one has but
    its discriminant (c4^3 - c6^2) / 1728 is zero.
    """
    def unrealizable(condition: str) -> ValueError:
        return ValueError(f"({c4},{c6}) is not realizable over Z: "
                          f"{condition}")

    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4, rem4 = divmod(b2 * b2 - c4, 24)
    if rem4:
        raise unrealizable(f"24 does not divide b2^2 - c4 for b2 = {b2}")
    b6, rem6 = divmod(-b2 ** 3 + 36 * b2 * b4 - c6, 216)
    if rem6:
        raise unrealizable(f"216 does not divide -b2^3 + 36 b2 b4 - c6 for "
                           f"(b2, b4) = ({b2}, {b4})")
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a6 = (b6 - a3) // 4
    a4, rem = divmod(b4 - a1 * a3, 2)
    if rem:
        raise unrealizable(f"b4 - a1 a3 is odd for (b4, a1, a3) = "
                           f"({b4}, {a1}, {a3})")
    return CurveQ(a1, a2, a3, a4, a6)


def minimal_model(E: CurveQ) -> MinimalModelResult:
    """Reduce E to its global minimal model.

    The reduction starts from the integral model a_i m^i of `_int_model`,
    whose c4, c6 and disc are ints, and factors gcd(c4, c6) once.  At each
    of its primes p the model is divided by p^e, with

        e = min(v_p(c4) // 4, v_p(c6) // 6, v_p(disc) // 12),

    the largest scale that keeps c4, c6 and disc integral.  At p = 3, then
    at p = 2, e drops by one when the reduced pair fails Kraus's conditions
    (Cremona, Algorithms for Modular Elliptic Curves, 3.2); one step is
    enough, since it leaves 3^6 | c6, or 2^4 | c4 and 2^6 | c6.  The pair
    at e = 0 is the integral model's own, so a reduced pair is always
    realized by `curve_from_c4c6`, and the map onto it is solved from the
    scale u / m.  A factoring shortfall leaves the primes of the unfactored
    part in place and clears .complete; it never raises.
    """
    m, *_, c4, c6, disc = _int_invariants(E)
    fac = factor_best_effort(math.gcd(c4, c6))
    u = 1
    for p, _ in fac.factors:
        u *= p ** min(_valuation(c4, p) // 4, _valuation(c6, p) // 6,
                      _valuation(disc, p) // 12)
    c4, c6 = c4 // u ** 4, c6 // u ** 6
    if u % 3 == 0 and not _kraus_ok_3(c6):
        u, c4, c6 = u // 3, c4 * 3 ** 4, c6 * 3 ** 6
    if u % 2 == 0 and not _kraus_ok_2(c4, c6):
        u, c4, c6 = u // 2, c4 * 2 ** 4, c6 * 2 ** 6

    Emin = curve_from_c4c6(c4, c6)
    M = _solve_rst(E, Emin, Fraction(u, m))
    if M is None:  # pragma: no cover - would be an internal defect
        raise SingularCurve("minimal model construction lost the isomorphism")
    xs = E.__dict__.get(_TWO_TORSION_X)     # carried as (x - r) / u^2
    if xs is not None:
        _seed_two_torsion_x(Emin, tuple((x - M.r) / M.u ** 2 for x in xs))
    return MinimalModelResult(Emin, M, fac.complete)
