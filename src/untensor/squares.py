"""Simple squares: validation and completion.

A square is a 2x2 array ((a, b), (c, d)) of simple vectors whose rows,
columns, and total sum are simple, with the row pairs sharing sheets in
one foliation and the column pairs in the other.  Three corners pin the
fourth uniquely.  The tangent spaces of b and c meet in a plane whose
trace on the cone is two rays: the ray of a, and the ray of d, where the
sheet through b (in the foliation of {a, c}) crosses the sheet through c
(in the foliation of {a, b}).  `foliation._split_rays` splits the plane
into those two rays, and d lies on the one that is not the ray of a.  The
scale along that ray is fixed by demanding the total sum stay on the
cone, which is a linear condition because the quadratic term of every
quadric dies on the ray.

Completion dispatches the proportional special cases first, since for
those the total-sum condition is vacuous and the answer is forced by
scaling instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from untensor.errors import Degenerate, InconsistentSquare, PreconditionViolated
from untensor.foliation import _split_rays, same_sheet
from untensor.linalg import (
    Scaled,
    Subspace,
    Vector,
    is_zero_vector,
    kernel,
    proportionality_ratio,
    linear_combination,
    to_integers,
    vadd,
    vscale,
)
from untensor.tensor_space import TensorSpace


@dataclass(frozen=True)
class Square:
    """Rows (a, b) and (c, d)."""

    a: Vector
    b: Vector
    c: Vector
    d: Vector

    @classmethod
    def of(cls, a: Sequence, b: Sequence, c: Sequence, d: Sequence) -> "Square":
        return cls(tuple(a), tuple(b), tuple(c), tuple(d))


@dataclass(frozen=True)
class Completion:
    """Result of completing three corners: the vector, plus how it was found."""

    d: Vector
    case: str  # "generic", "column-proportional", "row-proportional", "both-proportional"
    scale: Fraction


def _symmetrize_nonzero_corner(sq: Square) -> Square | None:
    """Rotate the square so corner a is nonzero; the conditions are invariant
    under swapping rows, swapping columns, or both."""
    if not is_zero_vector(sq.a):
        return sq
    if not is_zero_vector(sq.c):
        return Square(sq.c, sq.d, sq.a, sq.b)
    if not is_zero_vector(sq.b):
        return Square(sq.b, sq.a, sq.d, sq.c)
    if not is_zero_vector(sq.d):
        return Square(sq.d, sq.c, sq.b, sq.a)
    return None


def is_square(inst: TensorSpace, sq: Square) -> bool:
    """Validate the square conditions exactly.

    The proportional forms are checked first; in the generic case the
    sheet pattern is checked through sum-simplicity of the four adjacent
    pairs, non-simplicity of both diagonals (which pins the two foliations
    as genuinely distinct), and simplicity of the total sum.
    """
    for corner in (sq.a, sq.b, sq.c, sq.d):
        if len(corner) != inst.dim:
            raise PreconditionViolated("corner has the wrong ambient length")
        if not inst.is_simple(corner):
            return False
    oriented = _symmetrize_nonzero_corner(sq)
    if oriented is None:
        return True  # the all-zero square
    a, b, c, d = oriented.a, oriented.b, oriented.c, oriented.d
    mu = proportionality_ratio(a, b)
    lam = proportionality_ratio(a, c)
    if mu is not None and lam is not None:
        return d == vscale(lam * mu, a)
    if mu is not None:
        return d == vscale(mu, c) and same_sheet(inst, a, c)
    if lam is not None:
        return d == vscale(lam, b) and same_sheet(inst, a, b)
    if is_zero_vector(d):
        return False  # d = 0 in the generic branch forces b or c to vanish
    return (
        same_sheet(inst, a, b)
        and same_sheet(inst, a, c)
        and same_sheet(inst, b, d)
        and same_sheet(inst, c, d)
        and not same_sheet(inst, a, d)
        and not same_sheet(inst, b, c)
        and inst.is_simple(vadd(vadd(a, b), vadd(c, d)))
    )


def _corner_plane(inst: TensorSpace, b: Sequence, c: Sequence) -> Subspace:
    """T(b) ∩ T(c) for corners already checked to be nonzero and simple:
    `tangent_intersection` without its own checks on b and c, with c
    restricted to T(b) through the form, 2B(c, k) for the basis k of T(b)."""
    anchor = kernel(inst.polar2_rows(b))
    return anchor.meet_values(inst.polar2_table([c], anchor.basis.scaled_rows())[0])


def complete_square_details(inst: TensorSpace, a: Sequence, b: Sequence, c: Sequence) -> Completion:
    """The unique d making ((a, b), (c, d)) a square, with diagnostics.

    Generic path: the tangent spaces of b and c meet in a plane that must
    contain a.  With p a basis vector of the plane not proportional to a,
    `_split_rays(a, p)` splits the plane into two rays.  Since Q_k(a) = 0,
    every quadric restricts to (0, 2 B_k(a, p), Q_k(p)), so the rays are
    those of a and of 2 B(a, p) p - Q(p) a, and the second is the ray of
    d.  With u its canonical generator (first nonzero coordinate 1) and
    s = a + b + c, every quadric imposes Q_k(s) + t * 2 B_k(s, u) = 0 on
    d = t u, and the system must have one consistent solution.

    A plane of dimension other than 2 raises Degenerate, and so does every
    failure of `_split_rays`: quadrics that all vanish on the plane, that
    are not proportional there, or that do not split into two rays.  A
    plane missing a raises PreconditionViolated.  b is the anchor of the
    plane, so c is only restricted to T(b).

    Every simplicity and `same_sheet` test on the corners reads one
    `polar2_table` of the corners against themselves: its diagonal holds
    2Q(x), and for simple x and y, Q(x + y) = 2B(x, y).  The corners are
    checked in order, each for its length, for zero, then for simplicity.
    """
    a = tuple(a)
    b = tuple(b)
    c = tuple(c)
    corners, failure = [], None
    for corner in (a, b, c):
        if len(corner) != inst.dim:
            failure = "corner has the wrong ambient length"
        elif is_zero_vector(corner):
            failure = "corners must be nonzero"
        if failure:
            break
        corners.append(to_integers(corner))
    table = inst.polar2_table(corners, corners)
    if any(any(table[i][i].ints) for i in range(len(corners))):
        raise PreconditionViolated("corners must be simple")
    if failure:
        raise PreconditionViolated(failure)
    a_ints, b_ints, c_ints = corners
    mu = proportionality_ratio(a_ints, b_ints)
    lam = proportionality_ratio(a_ints, c_ints)
    ab, ac, bc = (not any(table[i][j].ints) for i, j in ((0, 1), (0, 2), (1, 2)))
    if mu is not None and lam is not None:
        return Completion(vscale(lam * mu, a), "both-proportional", lam * mu)
    if mu is not None:
        if not ac:
            raise PreconditionViolated("a and c do not share a sheet")
        return Completion(vscale(mu, c), "column-proportional", mu)
    if lam is not None:
        if not ab:
            raise PreconditionViolated("a and b do not share a sheet")
        return Completion(vscale(lam, b), "row-proportional", lam)
    if not ab or not ac:
        raise PreconditionViolated("a must share a sheet with b and with c")
    if bc:
        raise PreconditionViolated("b and c lie across the square and must not share a sheet")
    plane = _corner_plane(inst, b_ints, c_ints)
    if plane.dim != 2:
        raise Degenerate(f"tangent intersection has dimension {plane.dim}, need 2")
    if not plane.contains(a_ints):
        raise PreconditionViolated("the corner rays do not brace the square: a is off the plane of b and c")
    p = next(row for row in plane.basis.scaled_rows() if proportionality_ratio(a_ints, row) is None)
    u = next(g for g in _split_rays(inst, a_ints, p) if proportionality_ratio(a_ints, g) is None)
    s = linear_combination(corners, (1, 1, 1))
    t = common_root(inst.minor_values(s), inst.polar2_values(s, u))
    return Completion(vscale(t, u), "generic", t)


def common_root(constants: Scaled, slopes: Scaled) -> Fraction:
    """The one t with constant + t * slope == 0 for every quadric, from
    two integer answers of the oracle: t = -(q / Dq) / (p / Dp).

    Quadrics with slope 0 must have constant 0 and say nothing about t.
    A quadric that forbids every t, or two that disagree, raise
    InconsistentSquare; when no quadric pins t, Degenerate.  Two quadrics
    agree when their (q, p) cross-multiply, so the one Fraction built is t.
    """
    (qs, dq), (ps, dp) = constants, slopes
    first = None
    for q, p in zip(qs, ps):
        if p == 0:
            if q != 0:
                raise InconsistentSquare("a quadric forbids every scale on the candidate ray")
            continue
        if first is None:
            first = (q, p)
        elif q * first[1] != first[0] * p:
            raise InconsistentSquare("quadrics disagree on the completion scale")
    if first is None:
        raise Degenerate("every quadric is indifferent to the scale; cannot pin d")
    return Fraction(-first[0] * dp, first[1] * dq)


def complete_square(inst: TensorSpace, a: Sequence, b: Sequence, c: Sequence) -> Vector:
    """The unique fourth corner; see `complete_square_details`."""
    return complete_square_details(inst, a, b, c).d
