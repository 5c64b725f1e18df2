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

The invariants, which the constructor computes to reject a singular model,
are computed in integers: on the model scaled by the lcm m of the
coefficient denominators, an invariant of weight k is the one of E times
m^k, and it is divided by m^k once, at the end.

Data derived from a curve (its invariants, its integral and square-completed
models, the x-coordinates of its points of order two, its torsion subgroup,
and the duplication data and canonical heights of the `heights` module) is
built once, on first use, and kept on the curve object by `_memo`; it is
dropped with the curve.  The two-torsion x-coordinates are the one entry
that is also handed on: `triples.induced_curves` seeds them in closed form,
and `apply_map` and `minimal_model` carry them across their change of
variables as x' = (x - r) / u^2, so `rational_roots` solves the cubic only
for a curve that came from neither.  The package has no module-level caches
and no size caps: two equal curves built separately each build their own
copy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

from ._poly import rational_roots
from .errors import ParseError, PointNotOnCurve, SingularCurve
from .factoring import factor_best_effort
from .rationals import QQ, is_perfect_square, format_rational, parse_rational

_T = TypeVar("_T")


def _memo(E: CurveQ, name: str, build: Callable[[CurveQ], _T]) -> _T:
    """build(E), computed once per curve object and kept on it.

    The value lives in the frozen instance's __dict__ under `name`, not in
    a dataclass field, so ==, hash and repr never see it.
    """
    try:
        return E.__dict__[name]
    except KeyError:
        value = E.__dict__[name] = build(E)
        return value


@dataclass(frozen=True)
class CurveQ:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if invariants(self).disc == 0:
            raise SingularCurve(f"discriminant is zero for {self}")

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __repr__(self):
        return "CurveQ[%s]" % ",".join(format_rational(a) for a in self.coefficients())


@dataclass(frozen=True)
class PointQ:
    """Affine point or the point at infinity (x = y = None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ParseError("point needs both coordinates or neither")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return "[%s,%s]" % (format_rational(self.x), format_rational(self.y))


INFINITY = PointQ(None, None)


@dataclass(frozen=True)
class Invariants:
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction | None  # None only transiently while disc == 0 is detected


def invariants(E: CurveQ) -> Invariants:
    """The b-, c-invariants, discriminant and j-invariant of the model."""
    return _memo(E, "_invariants", _invariants)


def _invariants(E: CurveQ) -> Invariants:
    """The invariants from the integers a_i m^i, m = _coefficient_scale(E)."""
    m = _coefficient_scale(E)
    a1, a2, a3, a4, a6 = (a.numerator * (m ** k // a.denominator) for a, k
                          in zip(E.coefficients(), (1, 2, 3, 4, 6)))
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
    return Invariants(Fraction(b2, m ** 2), Fraction(b4, m ** 4),
                      Fraction(b6, m ** 6), Fraction(b8, m ** 8),
                      Fraction(c4, m ** 4), Fraction(c6, m ** 6),
                      Fraction(disc, m ** 12),
                      Fraction(c4 ** 3, disc) if disc else None)


_TWO_TORSION_X = "_two_torsion_x"


def two_torsion_x(E: CurveQ) -> tuple[Fraction, ...]:
    """The rational x-coordinates of the points of order two, ascending.

    They are the rational roots of 4x^3 + b2 x^2 + 2b4 x + b6: none, one,
    or all three.  A curve that was seeded or carried (see the module
    docstring) already holds them; any other solves the cubic once.
    """
    return _memo(E, _TWO_TORSION_X, _two_torsion_roots)


def _two_torsion_roots(E: CurveQ) -> tuple[Fraction, ...]:
    inv = invariants(E)
    return tuple(rational_roots([4, inv.b2, 2 * inv.b4, inv.b6]))


def _seed_two_torsion_x(E: CurveQ, xs: tuple[Fraction, ...]) -> None:
    """Put already known two-torsion x-coordinates, ascending, on E."""
    E.__dict__[_TWO_TORSION_X] = xs


def _carry_two_torsion_x(E: CurveQ, M: ModelMap, target: CurveQ) -> CurveQ:
    """Hand E's two-torsion x-coordinates, if known, to the model M carries
    E to; x' = (x - r) / u^2 keeps their order."""
    xs = E.__dict__.get(_TWO_TORSION_X)
    if xs is not None:
        u2 = M.u * M.u
        _seed_two_torsion_x(target, tuple((x - M.r) / u2 for x in xs))
    return target


def is_on_curve(E: CurveQ, P: PointQ) -> bool:
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    return (y * y + E.a1 * x * y + E.a3 * y
            == x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)


def _require_on_curve(E: CurveQ, P: PointQ) -> None:
    if not is_on_curve(E, P):
        raise PointNotOnCurve(f"{P} is not on {E}")


def neg(E: CurveQ, P: PointQ) -> PointQ:
    _require_on_curve(E, P)
    return _neg(E, P)


def _neg(E: CurveQ, P: PointQ) -> PointQ:
    if P.is_infinity:
        return INFINITY
    return PointQ(P.x, -P.y - E.a1 * P.x - E.a3)


def add(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    """Chord-and-tangent sum of two points of E."""
    _require_on_curve(E, P)
    _require_on_curve(E, Q)
    return _add(E, P, Q)


def _add(E: CurveQ, P: PointQ, Q: PointQ) -> PointQ:
    """The group law without membership checks: P and Q must lie on E."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a1, a2, a3, a4, a6 = E.coefficients()
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        # tangent line
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return PointQ(x3, y3)


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


@dataclass(frozen=True)
class ModelMap:
    """Change of variables x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    (x, y) lives on the source model, (x', y') on the target.
    """

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.u == 0:
            raise SingularCurve("model map needs u != 0")

    def inverse(self) -> "ModelMap":
        u, r, s, t = self.u, self.r, self.s, self.t
        return ModelMap(1 / u, -r / u ** 2, -s / u, (r * s - t) / u ** 3)

    def compose(self, other: "ModelMap") -> "ModelMap":
        """self: E -> E1 followed by other: E1 -> E2."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return ModelMap(u1 * u2,
                        u1 * u1 * r2 + r1,
                        s1 + u1 * s2,
                        t1 + u1 * u1 * s1 * r2 + u1 ** 3 * t2)


IDENTITY_MAP = ModelMap(1, 0, 0, 0)


def apply_map(E: CurveQ, M: ModelMap) -> CurveQ:
    """The model E is carried to by the change of variables M."""
    a1, a2, a3, a4, a6 = E.coefficients()
    u, r, s, t = M.u, M.r, M.s, M.t
    return _carry_two_torsion_x(E, M, CurveQ(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u ** 2,
        (a3 + r * a1 + 2 * t) / u ** 3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
        (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6,
    ))


def map_point(E: CurveQ, M: ModelMap, P: PointQ) -> PointQ:
    """Carry a point of E to the model apply_map(E, M)."""
    _require_on_curve(E, P)
    return _map_point(M, P)


def _map_point(M: ModelMap, P: PointQ) -> PointQ:
    """map_point without the membership check: P must lie on the source."""
    if P.is_infinity:
        return INFINITY
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
    denominators, so a_i picks up the factor m^i.  An integral E is its
    own integral model.
    """
    if _coefficient_scale(E) == 1:
        return E, IDENTITY_MAP
    return _memo(E, "_cleared", _clear_denominators)


def _clear_denominators(E: CurveQ) -> tuple[CurveQ, ModelMap]:
    M = ModelMap(Fraction(1, _coefficient_scale(E)), 0, 0, 0)
    return apply_map(E, M), M


def _coefficient_scale(E: CurveQ) -> int:
    """m of clear_denominators: the lcm of the coefficient denominators."""
    return math.lcm(*(a.denominator for a in E.coefficients()))


def complete_the_square(E: CurveQ) -> tuple[CurveQ, ModelMap]:
    """An isomorphic model with a1 = a3 = 0, and the map onto it.

    The b-invariants are untouched, so the new model is
    y^2 = x^3 + (b2/4) x^2 + (b4/2) x + b6/4.
    """
    M = ModelMap(1, 0, -E.a1 / 2, -E.a3 / 2)
    return apply_map(E, M), M


# ---------------------------------------------------------------------------
# minimal models (Laska-Kraus-Connell, best effort within the factoring bound)


@dataclass(frozen=True)
class MinimalModelResult:
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

    Requires (c4, c6) to satisfy the integrality conditions at 2 and 3.
    """
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4, rem4 = divmod(b2 * b2 - c4, 24)
    b6, rem6 = divmod(-b2 ** 3 + 36 * b2 * b4 - c6, 216)
    if rem4 or rem6:
        raise SingularCurve(f"({c4},{c6}) is not realizable over Z")
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a6 = (b6 - a3) // 4
    a4, rem = divmod(b4 - a1 * a3, 2)
    if rem:
        raise SingularCurve(f"({c4},{c6}) is not realizable over Z")
    return CurveQ(a1, a2, a3, a4, a6)


def minimal_model(E: CurveQ) -> MinimalModelResult:
    """Reduce E toward its global minimal model.

    Factoring shortfalls degrade the result to "reduced as far as the known
    primes allow" and clear the .complete flag; they never raise.
    """
    inv = invariants(E)
    c4, c6 = inv.c4, inv.c6
    complete = True

    # step 1: clear denominators with the smallest usable scale
    den_primes: dict[int, int] = {}
    for den, weight in ((c4.denominator, 4), (c6.denominator, 6)):
        if den == 1:
            continue
        fac = factor_best_effort(den)
        if not fac.complete:
            # fall back to the denominator itself; correct, maybe oversized
            complete = False
            wanted = den
            den_primes[wanted] = max(den_primes.get(wanted, 0), 1)
            continue
        for p, e in fac.factors:
            k = -(-e // weight)  # ceil
            den_primes[p] = max(den_primes.get(p, 0), k)
    m = 1
    for p, k in den_primes.items():
        m *= p ** k
    while (c4 * m ** 4).denominator != 1 or (c6 * m ** 6).denominator != 1:
        m *= max(c4.denominator, c6.denominator)  # defensive; complete fallback
        complete = False
    c4i = int(c4 * m ** 4)
    c6i = int(c6 * m ** 6)

    # step 2: largest u with u^4 | c4 and u^6 | c6 on the factorable part
    if c4i == 0:
        target = abs(c6i)
    elif c6i == 0:
        target = abs(c4i)
    else:
        target = math.gcd(abs(c4i), abs(c6i))
    exps: dict[int, int] = {}
    if target > 1:
        fac = factor_best_effort(target)
        if not fac.complete:
            complete = False
        for p, _ in fac.factors:
            d = min(_valuation(c4i, p) // 4, _valuation(c6i, p) // 6)
            if d > 0:
                exps[p] = d

    def reduced(exps_map):
        u = 1
        for p, d in exps_map.items():
            u *= p ** d
        return u, c4i // u ** 4, c6i // u ** 6

    # step 3: back off at 3 then at 2 until the integrality conditions hold
    u, rc4, rc6 = reduced(exps)
    while exps.get(3, 0) > 0 and not _kraus_ok_3(rc6):
        exps[3] -= 1
        u, rc4, rc6 = reduced(exps)
    while exps.get(2, 0) > 0 and not _kraus_ok_2(rc4, rc6):
        exps[2] -= 1
        u, rc4, rc6 = reduced(exps)
    # when the fully backed-off pair still fails, no integral model exists
    # at this scale and the minimal one sits exactly one step up
    bump = 1
    while not _kraus_ok_3(rc6):
        bump *= 3
        rc4, rc6 = rc4 * 3 ** 4, rc6 * 3 ** 6
    while not _kraus_ok_2(rc4, rc6):
        bump *= 2
        rc4, rc6 = rc4 * 2 ** 4, rc6 * 2 ** 6

    Emin = curve_from_c4c6(rc4, rc6)
    M = _solve_rst(E, Emin, Fraction(u, m * bump))
    if M is None:  # pragma: no cover - would be an internal defect
        raise SingularCurve("minimal model construction lost the isomorphism")
    return MinimalModelResult(_carry_two_torsion_x(E, M, Emin), M, complete)


# ---------------------------------------------------------------------------
# parsing / printing

_BRACKET_RE = re.compile(r"^\s*\[(.*)\]\s*$", re.S)


def _split_bracket_list(text: str, n: int) -> list[str]:
    m = _BRACKET_RE.match(text)
    if not m:
        raise ParseError(f"expected a bracketed list: {text!r}")
    parts = [p.strip() for p in m.group(1).split(",")]
    if len(parts) != n:
        raise ParseError(f"expected {n} entries: {text!r}")
    return parts


def curve_to_str(E: CurveQ) -> str:
    return "[%s]" % ",".join(format_rational(a) for a in E.coefficients())


def parse_curve(text: str) -> CurveQ:
    return CurveQ(*[parse_rational(p) for p in _split_bracket_list(text, 5)])


def point_to_str(P: PointQ) -> str:
    if P.is_infinity:
        return "O"
    return "[%s,%s]" % (format_rational(P.x), format_rational(P.y))


def parse_point(text: str) -> PointQ:
    if text.strip() == "O":
        return INFINITY
    x, y = [parse_rational(p) for p in _split_bracket_list(text, 2)]
    return PointQ(x, y)
