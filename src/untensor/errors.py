"""Exception hierarchy shared across the package."""


class ToolkitError(Exception):
    """Base class for all errors raised by untensor."""


class DimensionMismatch(ToolkitError):
    """Operands live in spaces of different dimensions."""

    @classmethod
    def of(cls, expected, got) -> "DimensionMismatch":
        return cls(f"dimension mismatch: expected {expected}, got {got}")


class ZeroVector(ToolkitError):
    """A nonzero vector was required."""


class NotSimpleVector(ToolkitError):
    """The vector is not in the rank-one cone."""


class Degenerate(ToolkitError):
    """A configuration is degenerate for the construction asked of it,
    e.g. a plane that does not split into two rational rays of the cone."""


class RetryExhausted(ToolkitError):
    """No certified sheet pair among the candidates: the cone oracle is not
    a Segre cone."""


class TrivialShape(ToolkitError):
    """Shape has a one-dimensional factor; foliation machinery does not apply."""


class PreconditionViolated(ToolkitError):
    """Inputs do not satisfy the documented entry conditions."""


class InconsistentSquare(ToolkitError):
    """No scale completes the given three corners to a square."""


class MalformedSheets(ToolkitError):
    """Two sheets intersect in dimension two or more."""


class MembershipViolated(ToolkitError):
    """A vector is not a member of the required subspace."""


class RankDeficient(ToolkitError):
    """An isomorphism candidate turned out to be singular."""


class RankViolation(ToolkitError):
    """A coefficient matrix exceeded the rank bound it must satisfy."""


class SheetNotPreserved(ToolkitError):
    """A morphism failed to map a sheet onto the matching target sheet.

    When the image sheets exist but land on the opposite member of the
    target pair, the crossed restriction matrices are attached as
    ``crossed_pair`` so callers can still inspect them.
    """

    def __init__(self, message, crossed_pair=None):
        super().__init__(message)
        self.crossed_pair = crossed_pair
