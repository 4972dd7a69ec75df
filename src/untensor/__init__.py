"""untensor: recover the factors of a tensor-product space from its rank-one cone.

A vector space V that arose as a product of two factor spaces carries no
trace of the factors in its raw coordinates, but the set S of rank-one
("simple") vectors inside V does remember them.  This package generates
scrambled product-space instances, exposes S through a membership oracle,
an explicit list of quadrics, and a sampler, and then reconstructs the two
factor spaces from that data alone: the two foliations of S by maximal
linear sheets, the square-completion primitive, the derived bilinear
product on a recovered factor pair, and the induced isomorphism back onto
V.  Everything runs over exact rational arithmetic, so every check in the
test suite is a zero-tolerance equality.
"""

from untensor.errors import (
    Degenerate,
    DimensionMismatch,
    InconsistentSquare,
    MalformedSheets,
    MembershipViolated,
    NotSimpleVector,
    PreconditionViolated,
    RankDeficient,
    RankViolation,
    RetryExhausted,
    SheetNotPreserved,
    ToolkitError,
    TrivialShape,
    ZeroVector,
)
from untensor.linalg import Matrix, Subspace, Vector
from untensor.tensor_space import FactorShape, QuadraticForm, TensorSpace, generate_instance
from untensor.foliation import Sheet, SheetPair

__all__ = [
    "Degenerate",
    "DimensionMismatch",
    "FactorShape",
    "InconsistentSquare",
    "MalformedSheets",
    "Matrix",
    "MembershipViolated",
    "NotSimpleVector",
    "PreconditionViolated",
    "QuadraticForm",
    "RankDeficient",
    "RankViolation",
    "RetryExhausted",
    "Sheet",
    "SheetNotPreserved",
    "SheetPair",
    "Subspace",
    "TensorSpace",
    "ToolkitError",
    "TrivialShape",
    "Vector",
    "ZeroVector",
    "generate_instance",
]

__version__ = "0.1.0"
