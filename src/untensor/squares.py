"""Simple squares: validation and completion.

A square is a 2x2 array ((a, b), (c, d)) of simple vectors whose rows,
columns, and total sum are simple, with the row pairs sharing sheets in
one foliation and the column pairs in the other.  Three corners pin the
fourth uniquely.  The tangent spaces of b and c meet in a plane whose
trace on the cone is two rays: the ray of a, and the ray of d, where the
sheet through b (in the foliation of {a, c}) crosses the sheet through c
(in the foliation of {a, b}).  The plane is span(a, p), and p is the one
null vector, zero at a's lead coordinate, of the polar rows of b and c,
found one row at a time (`linalg.successive_null_vectors`); no tangent
space is taken in full.  `foliation._split_rays` splits the plane into
those two rays, and d lies on the one that is not the ray of a.  The
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
from untensor.foliation import _split_rays
from untensor.linalg import (
    Scaled,
    Vector,
    first_nonzero_index,
    is_zero_vector,
    proportionality_ratio,
    linear_combination,
    successive_null_vectors,
    to_integers,
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


# The orders of the corners (a, b, c, d) that move a given corner to the
# place of a: the square conditions are invariant under swapping rows,
# swapping columns, or both.
_ORIENTATIONS = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))


def _read_corners(inst: TensorSpace, corners: Sequence[Sequence], *, nonzero: bool):
    """The corners as integer vectors, taken in order up to the first one of
    the wrong length (or, when nonzero is set, the first zero one), and one
    `polar2_table` of them against themselves.

    Returns (vectors, table, simple, failure): simple says whether every
    corner read is simple, from the diagonal, which holds 2Q(x); failure is
    the message for the corner that stopped the reading, or None.  For
    simple x and y, Q(x + y) = 2B(x, y), so an off-diagonal entry that
    vanishes says that x and y share a sheet.
    """
    vectors, failure = [], None
    for corner in corners:
        if len(corner) != inst.dim:
            failure = "corner has the wrong ambient length"
        elif nonzero and is_zero_vector(corner):
            failure = "corners must be nonzero"
        if failure:
            break
        vectors.append(to_integers(corner))
    table = inst.polar2_table(vectors, vectors)
    simple = not any(any(table[i][i].ints) for i in range(len(vectors)))
    return vectors, table, simple, failure


def is_square(inst: TensorSpace, sq: Square) -> bool:
    """Validate the square conditions exactly, from one `polar2_table` of
    the four corners.

    A non-simple corner before the first corner of the wrong length fails
    the square; a wrong length raises PreconditionViolated.  The
    proportional forms are checked next, on the square turned so that its
    corner a is nonzero.  In the generic case the sheet pattern is read off
    the table: the rows and the columns share sheets and the diagonals do
    not (which pins the two foliations as genuinely distinct).  The total
    sum is simple when the six pair values sum to zero, since every Q_k
    vanishes on the corners.
    """
    corners = (sq.a, sq.b, sq.c, sq.d)
    _, table, simple, failure = _read_corners(inst, corners, nonzero=False)
    if not simple:
        return False
    if failure:
        raise PreconditionViolated(failure)

    def shared(i: int, j: int) -> bool:
        return not any(table[i][j].ints)

    order = next((o for o in _ORIENTATIONS if not is_zero_vector(corners[o[0]])), None)
    if order is None:
        return True  # the all-zero square
    ia, ib, ic, _ = order
    a, b, c, d = (corners[i] for i in order)
    mu = proportionality_ratio(a, b)
    lam = proportionality_ratio(a, c)
    if mu is not None and lam is not None:
        return d == vscale(lam * mu, a)
    if mu is not None:
        return d == vscale(mu, c) and shared(ia, ic)
    if lam is not None:
        return d == vscale(lam, b) and shared(ia, ib)
    # Every turn keeps the rows, columns and diagonals as pairs, so the table
    # is read unturned; a zero corner shares a sheet with all, so it fails.
    return (
        all(shared(i, j) for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)))
        and not shared(0, 3)
        and not shared(1, 2)
        and not any(linear_combination([table[i][j] for i in range(4) for j in range(i + 1, 4)], (1,) * 6).ints)
    )


def _plane_partners(inst: TensorSpace, a: Scaled, b: Scaled, c: Scaled) -> list[list[int]]:
    """The null vectors, zero at the lead coordinate of a, of the polar rows
    of b and c: row k of b then row k of c, after the unit row of that
    coordinate (`successive_null_vectors`).

    When a lies in T(b) ∩ T(c), as the corner table shows before the
    generic branch runs, the plane is spanned by a and these vectors, so
    the plane has dimension one more than their count.
    """
    unit = [0] * inst.dim
    unit[first_nonzero_index(a.ints)] = 1
    (rows_b, _), (rows_c, _) = inst.polar2_rows(b).integer_rows(), inst.polar2_rows(c).integer_rows()
    return successive_null_vectors([unit, *(row for pair in zip(rows_b, rows_c) for row in pair)], inst.dim)


def complete_square_details(inst: TensorSpace, a: Sequence, b: Sequence, c: Sequence) -> Completion:
    """The unique d making ((a, b), (c, d)) a square, with diagnostics.

    Generic path: the tangent spaces of b and c meet in a plane, and a lies
    in it, since row k of `polar2_rows(b)` applied to a is 2B_k(b, a) and
    the corner table has shown 2B(a, b) = 2B(a, c) = 0.  The plane is
    therefore span(a, p), with p the one null vector, zero at a's lead
    coordinate, of the polar rows of b and c, row k of b then row k of c
    (`_plane_partners`).  `_split_rays(a, p)` splits the plane into two
    rays, which are the same for any basis of the plane.  Since
    Q_k(a) = 0, every quadric restricts to (0, 2 B_k(a, p), Q_k(p)), so
    the rays are those of a and of 2 B(a, p) p - Q(p) a, and the second
    is the ray of d.  With u its canonical generator (first nonzero
    coordinate 1) and s = a + b + c, every quadric imposes
    Q_k(s) + t * 2 B_k(s, u) = 0 on d = t u, and the system must have one
    consistent solution; both terms come from one `polar2_table` of [s]
    against [s, u], its first column halved.

    A plane of dimension other than 2 (a count of null vectors other than
    one) raises Degenerate, and so does every failure of `_split_rays`:
    quadrics that all vanish on the plane, that are not proportional
    there, or that do not split into two rays.

    Every simplicity and `same_sheet` test on the corners reads one
    `polar2_table` of the corners against themselves: its diagonal holds
    2Q(x), and for simple x and y, Q(x + y) = 2B(x, y).  The corners are
    checked in order, each for its length, for zero, then for simplicity.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    corners, table, simple, failure = _read_corners(inst, (a, b, c), nonzero=True)
    if not simple:
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
    partners = _plane_partners(inst, a_ints, b_ints, c_ints)
    if len(partners) != 1:
        raise Degenerate(f"tangent intersection has dimension {len(partners) + 1}, need 2")
    u = next(g for g in _split_rays(inst, a_ints, Scaled(partners[0], 1)) if proportionality_ratio(a_ints, g) is None)
    s = linear_combination(corners, (1, 1, 1))
    [[ss, su]] = inst.polar2_table([s], [s, u])
    t = common_root(Scaled(ss.ints, 2 * ss.den), su)
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
