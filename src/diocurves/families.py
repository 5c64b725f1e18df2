"""Parametric families of rational Diophantine triples.

Each constructor evaluates a one-parameter formula whose pairwise-product
conditions hold identically, so every non-degenerate parameter yields a
valid triple.  The families are grouped by the torsion subgroup their
induced curves carry: plain full two-torsion, and the enlargements to
Z2 x Z4, Z2 x Z6 and Z2 x Z8 cut out by extra square conditions.

Outputs are sign-normalized so the first element is positive; negating
a whole triple changes none of the products, and the induced curve is
identical, so this is a free choice of representative.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from typing import Callable, NamedTuple, Optional

from .errors import ConditionFailed, DatasetCorrupt, DegenerateParameter
from .rationals import QQ, is_perfect_square
from .triples import Triple, make_triple
from .weierstrass import CurveQ, PointQ, is_on_curve

K_PLUSMINUS = "K_PLUSMINUS"
K_4K = "K_4K"
ONE_THREE_C = "ONE_THREE_C"
Z2Z4_ALPHA2 = "Z2Z4_ALPHA2"
Z2Z4_DOUBLED = "Z2Z4_DOUBLED"
Z2Z6_T = "Z2Z6_T"
Z2Z6_UV = "Z2Z6_UV"
Z2Z8_T = "Z2Z8_T"


class FamilyMember(NamedTuple):
    family_id: str
    parameters: tuple
    triple: Triple


def _signed(values: tuple) -> tuple:
    """Flip the whole triple when the first element is negative."""
    if values[0] < 0:
        return tuple(-v for v in values)
    return values


def _build(values) -> Triple:
    vals = _signed(tuple(QQ(v) for v in values))
    if 0 in vals:
        raise DegenerateParameter("parameter sends a triple element to 0")
    if len(set(vals)) != 3:
        raise DegenerateParameter("parameter collapses two triple elements")
    return make_triple(*vals)


def family_k(variant: str, k) -> Triple:
    """{k-1, k+1, 16k^3-4k} or {k-1, 4k, 16k^3-4k}; squares hold in k."""
    k = QQ(k)
    if variant == K_PLUSMINUS:
        return _build((k - 1, k + 1, 16 * k ** 3 - 4 * k))
    if variant == K_4K:
        return _build((k - 1, 4 * k, 16 * k ** 3 - 4 * k))
    raise ValueError(f"unknown variant {variant!r}")


def z2z4_family(T) -> Triple:
    """{(2T+1)/(T-2), its negative reciprocal, 8T/((2T+1)(T-2))}.

    The first two elements multiply to -1, which pushes the induced
    torsion up to (at least) Z2 x Z4.
    """
    T = QQ(T)
    if T in (2, QQ(-1, 2), 0):
        raise DegenerateParameter("T in {2, -1/2, 0} hits a pole or zero")
    a = (2 * T + 1) / (T - 2)
    return _build((a, -1 / a, 8 * T / ((2 * T + 1) * (T - 2))))


def z2z4_doubled_solution(T) -> tuple[QQ, QQ]:
    """The duplicated solution (a, c) with ac+1 and 1-c/a both square.

    The base solution is a=T, c=T-1/T; duplicating the corresponding
    point on a(ac+1)(a-c)=square lands on this second branch.
    """
    T = QQ(T)
    if T in (0, 1, -1):
        raise DegenerateParameter("T in {0, 1, -1} degenerates the pair")
    a = (T * T + 1) ** 2 * (T * T - 1) / (4 * T ** 3)
    c = T - 1 / T
    return a, c


def z2z4_doubled_triple(T) -> Triple:
    """Triple {a, -1/a, c} built on the duplicated (a, c) pair."""
    a, c = z2z4_doubled_solution(T)
    return _build((a, -1 / a, c))


def z2z6_parameters(T) -> tuple[QQ, QQ]:
    """(alpha, beta) with alpha^2+1, beta^2+1 and the mixed form square."""
    T = QQ(T)
    if T in (0, 1, -1):
        raise DegenerateParameter("T in {0, 1, -1} sends alpha to 0")
    alpha = (2 * T ** 5 - 2 * T) / (T ** 6 + T ** 4 + 3 * T * T - 1)
    beta = (T * T - 1) / (2 * T)
    return alpha, beta


def z2z6_parameters_uv(u, v) -> tuple[QQ, QQ]:
    """(alpha, beta) from the two-parameter form; F_uv(u, v) must be square."""
    u, v = QQ(u), QQ(v)
    if u * u == 1 or v == 0:
        raise DegenerateParameter("u = +-1 or v = 0 hits a pole")
    return 2 * u / (u * u - 1), (v * v - 1) / (2 * v)


def F_uv(u, v) -> QQ:
    """Quartic whose square values make (alpha(u), beta(v)) admissible."""
    u, v = QQ(u), QQ(v)
    v2, v4 = v * v, v ** 4
    return ((v4 - 2 * v2 + 1) * u ** 4 + (-8 * v2 * v + 8 * v) * u ** 3
            + (2 * v4 + 12 * v2 + 2) * u * u + (8 * v2 * v - 8 * v) * u
            + v4 - 2 * v2 + 1)


def triple_from_alpha_beta(alpha, beta) -> Triple:
    """{beta^2/(beta-alpha), alpha^2/(beta-alpha), beta-alpha}.

    Then bc = alpha^2 and ac = beta^2, so the induced curve takes the
    shape whose torsion is Z2 x Z6.  Each of the three square conditions
    is checked and named on failure.
    """
    alpha, beta = QQ(alpha), QQ(beta)
    if alpha == beta:
        raise DegenerateParameter("alpha = beta collapses the triple")
    if is_perfect_square(alpha * alpha + 1) is None:
        raise ConditionFailed("alpha^2 + 1 is not a rational square")
    if is_perfect_square(beta * beta + 1) is None:
        raise ConditionFailed("beta^2 + 1 is not a rational square")
    mixed = (alpha * beta) ** 2 + (alpha - beta) ** 2
    if is_perfect_square(mixed) is None:
        raise ConditionFailed(
            "alpha^2 beta^2 + (alpha - beta)^2 is not a rational square")
    d = beta - alpha
    return _build((beta * beta / d, alpha * alpha / d, d))


def z2z6_triple(T) -> Triple:
    return triple_from_alpha_beta(*z2z6_parameters(T))


def z2z6_triple_uv(u, v) -> Triple:
    return triple_from_alpha_beta(*z2z6_parameters_uv(u, v))


def z2z8_family(T) -> Triple:
    """{a, -1/a, a - 1/a} with a = 2T/(T^2-1); then a^2+1 is a square.

    ab + 1 = 0 counts as a square with root 0.  The extra square
    condition promotes the order-4 point to order 8.
    """
    T = QQ(T)
    if T in (0, 1, -1):
        raise DegenerateParameter("T in {0, 1, -1} hits a pole or zero")
    a = 2 * T / (T * T - 1)
    return _build((a, -1 / a, a - 1 / a))


def one_three_c(c) -> Triple:
    """{1, 3, c}; valid only when 3c+1 and c+1 are both squares."""
    return make_triple(QQ(1), QQ(3), QQ(c))


FAMILY_CONSTRUCTORS: dict[str, Callable[..., Triple]] = {
    K_PLUSMINUS: lambda k: family_k(K_PLUSMINUS, k),
    K_4K: lambda k: family_k(K_4K, k),
    ONE_THREE_C: one_three_c,
    Z2Z4_ALPHA2: z2z4_family,
    Z2Z4_DOUBLED: z2z4_doubled_triple,
    Z2Z6_T: z2z6_triple,
    Z2Z6_UV: z2z6_triple_uv,
    Z2Z8_T: z2z8_family,
}


def make_family_member(family_id: str, *parameters) -> FamilyMember:
    ctor = FAMILY_CONSTRUCTORS.get(family_id)
    if ctor is None:
        raise ValueError(f"unknown family {family_id!r}")
    params = tuple(QQ(p) for p in parameters)
    return FamilyMember(family_id, params, ctor(*params))


class ConditionWitness(NamedTuple):
    holds: bool
    witnesses: tuple


def torsion_condition(kind: str, t: Triple) -> ConditionWitness:
    """Exact square conditions for the named torsion enlargement.

    Z2Z4: ac - ab and bc - ab square.  Z2Z6: bc and ac square with the
    root difference (or sum) equal to +-c.  Z2Z8: (b-a)(b-c) and b(b-a)
    square.  Witnesses are the square roots found.
    """
    a, b, c = t.a, t.b, t.c
    if kind == "Z2Z4":
        r1 = is_perfect_square(a * c - a * b)
        r2 = is_perfect_square(b * c - a * b)
        return ConditionWitness(r1 is not None and r2 is not None,
                                tuple(r for r in (r1, r2) if r is not None))
    if kind == "Z2Z6":
        alpha = is_perfect_square(b * c)
        beta = is_perfect_square(a * c)
        if alpha is None or beta is None:
            return ConditionWitness(False, ())
        ok = (beta - alpha in (c, -c)) or (beta + alpha in (c, -c))
        return ConditionWitness(ok, (alpha, beta))
    if kind == "Z2Z8":
        r1 = is_perfect_square((b - a) * (b - c))
        r2 = is_perfect_square(b * (b - a))
        return ConditionWitness(r1 is not None and r2 is not None,
                                tuple(r for r in (r1, r2) if r is not None))
    raise ValueError(f"unknown torsion condition {kind!r}")


# --------------------------------------------------------------------------
# Bundled record dataset
# --------------------------------------------------------------------------

DATASET_RESOURCE = "paper_records.json"
DATASET_SHA256 = (
    "62b66ff66fdd68115442aac415cdb751d97864c75da8d2b666bf4ebab1b504a7")

FAMILY_TORSION_SHAPES: dict[str, tuple[int, int]] = {
    K_PLUSMINUS: (2, 2),
    K_4K: (2, 2),
    ONE_THREE_C: (2, 2),
    Z2Z4_ALPHA2: (2, 4),
    Z2Z4_DOUBLED: (2, 4),
    Z2Z6_T: (2, 6),
    Z2Z6_UV: (2, 6),
    Z2Z8_T: (2, 8),
}


class PaperRecord(NamedTuple):
    """One published record: a triple, optionally its minimal model and
    the published torsion and infinite-order points.

    ``torsion_points`` and ``points`` are affine; the point at infinity
    is always in the torsion subgroup and is not stored.  ``claimed_rank``
    is the published value; this library certifies it only as a lower
    bound.  Records whose published triple failed validation keep the
    original under ``printed_triple`` with ``printed_triple_valid=False``
    and carry the corrected value in ``triple``.
    """

    record_id: str
    section: str
    torsion_shape: tuple[int, int]
    family: Optional[FamilyMember]
    triple: Triple
    curve: Optional[CurveQ]
    torsion_points: tuple[PointQ, ...]
    points: tuple[PointQ, ...]
    claimed_rank: int
    printed_triple: Optional[tuple[QQ, QQ, QQ]] = None
    printed_triple_valid: bool = True
    notes: str = ""


def _dataset_bytes() -> bytes:
    blob = resources.files("diocurves").joinpath(
        "data/" + DATASET_RESOURCE).read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != DATASET_SHA256:
        raise DatasetCorrupt(
            f"dataset checksum mismatch: expected {DATASET_SHA256}, "
            f"got {digest}")
    return blob


def _point(obj) -> PointQ:
    return PointQ(QQ(obj[0]), QQ(obj[1]))


def _family_member(obj) -> Optional[FamilyMember]:
    if obj is None:
        return None
    return make_family_member(obj["id"], *obj["parameters"])


def _record(obj) -> PaperRecord:
    rid = obj["id"]
    try:
        triple = make_triple(*(QQ(s) for s in obj["triple"]))
    except Exception as exc:
        raise DatasetCorrupt(f"{rid}: stored triple invalid: {exc}") from exc
    family = _family_member(obj.get("family"))
    if family is not None and family.triple.elements != triple.elements:
        raise DatasetCorrupt(
            f"{rid}: triple does not reconstruct from family parameters")
    printed = obj.get("printed_triple")
    if printed is not None:
        printed = tuple(QQ(s) for s in printed)
    if printed is not None and not obj.get("printed_triple_valid", True):
        try:
            make_triple(*printed)
        except Exception:
            pass
        else:
            raise DatasetCorrupt(
                f"{rid}: triple flagged invalid-as-published validates")
    curve = None
    if obj.get("curve") is not None:
        curve = CurveQ(*(QQ(s) for s in obj["curve"]))
    torsion_points = tuple(_point(p) for p in obj.get("torsion_points", ()))
    points = tuple(_point(p) for p in obj.get("points", ()))
    if curve is None:
        if torsion_points or points:
            raise DatasetCorrupt(f"{rid}: points stored without a curve")
    else:
        for P in torsion_points + points:
            if not is_on_curve(curve, P):
                raise DatasetCorrupt(
                    f"{rid}: stored point {P.x}/{P.y} fails the curve "
                    "equation")
    return PaperRecord(
        record_id=rid,
        section=obj["section"],
        torsion_shape=tuple(obj["torsion_shape"]),
        family=family,
        triple=triple,
        curve=curve,
        torsion_points=torsion_points,
        points=points,
        claimed_rank=obj["claimed_rank"],
        printed_triple=printed,
        printed_triple_valid=obj.get("printed_triple_valid", True),
        notes=obj.get("notes", ""),
    )


def _parameter_record(obj) -> PaperRecord:
    family = make_family_member(obj["family"], *obj["parameters"])
    params = "-".join(str(p).replace("/", "_") for p in family.parameters)
    return PaperRecord(
        record_id=f"{obj['section']}-{obj['family']}-{params}",
        section=obj["section"],
        torsion_shape=FAMILY_TORSION_SHAPES[obj["family"]],
        family=family,
        triple=family.triple,
        curve=None,
        torsion_points=(),
        points=(),
        claimed_rank=obj["claimed_rank"],
        notes="parameter-list entry; no curve data published",
    )


_DATASET: Optional[tuple[PaperRecord, ...]] = None


def paper_dataset() -> list[PaperRecord]:
    """Load, checksum and validate the bundled record dataset.

    Every stored point is checked against its stored curve exactly, and
    every triple is revalidated; any failure raises DatasetCorrupt.  The
    parsed dataset is cached after the first call.
    """
    global _DATASET
    if _DATASET is None:
        data = json.loads(_dataset_bytes().decode("utf-8"))
        records = [_record(obj) for obj in data["records"]]
        records.extend(
            _parameter_record(obj) for obj in data["parameter_examples"])
        ids = [r.record_id for r in records]
        if len(set(ids)) != len(ids):
            raise DatasetCorrupt("duplicate record ids")
        _DATASET = tuple(records)
    return list(_DATASET)


def dataset_record(record_id: str) -> PaperRecord:
    """Fetch a single record by id (raises KeyError if absent)."""
    for rec in paper_dataset():
        if rec.record_id == record_id:
            return rec
    raise KeyError(record_id)
