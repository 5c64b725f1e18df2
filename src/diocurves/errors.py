"""Exception types shared across the package."""


class DiocurvesError(Exception):
    """Base class for every error raised by this library."""


class ParseError(DiocurvesError):
    """Malformed textual input (rational, point, curve or triple literal)."""


class ZeroInput(DiocurvesError):
    """An operation that needs a nonzero rational received zero."""


class FactorizationIncomplete(DiocurvesError):
    """Factoring ran out of budget; carries the partial factorization."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SingularCurve(DiocurvesError):
    """Discriminant vanished: the Weierstrass equation is not an elliptic curve."""


class PointNotOnCurve(DiocurvesError):
    """A point handed to a curve operation does not satisfy the equation."""


class FormMismatch(DiocurvesError):
    """Curve is not in the shape the operation requires."""


class BadReduction(DiocurvesError):
    """Asked to reduce a curve modulo a prime of bad reduction."""


class NotDiophantine(DiocurvesError):
    """Some pairwise product plus one is not a rational square."""


class DegenerateTriple(DiocurvesError):
    """Entries repeat, so no elliptic curve is induced."""


class NotDiophantinePair(DiocurvesError):
    """The pair product plus one is not a rational square."""


class ZeroExtension(DiocurvesError):
    """The regular extension of a pair collapsed to zero."""


class DegenerateParameter(DiocurvesError):
    """Family parameter hits a pole or makes entries collide or vanish."""


class ConditionFailed(DiocurvesError):
    """A torsion side condition does not hold for the given triple."""


class UnknownScope(DiocurvesError):
    """A verify scope names no section, record id or "all"."""


class DatasetCorrupt(DiocurvesError):
    """Embedded record data failed its checksum or validation."""


class OutputUnwritable(DiocurvesError):
    """The --out file cannot be opened for writing."""


class WorkerFailed(DiocurvesError):
    """A pool worker died, or its outcome could not be sent back."""
