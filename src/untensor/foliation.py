"""Foliation structure of the rank-one cone.

For a nonzero simple vector v the cone S contains exactly two maximal
linear subspaces through v (its "sheets"), one per foliation; sheets of
the same foliation are disjoint, sheets of different foliations meet in a
ray.  None of that structure is visible in the raw coordinates, but it can
be dug out of S alone:

* `tangent_space(v)` linearizes the quadrics at v: T(v) is the kernel of
  `polar2_rows(v)`, one `kernel`.  It has dimension m + n - 1 and
  equals the span of the two sheets through v.  It is a plain `Subspace`:
  a caller that meets it with several partners holds on to it.
* `tangent_intersection(v, s)` restricts the polar rows of s to T(v):
  with K a basis of T(v), T(v) ∩ T(s) = K · kernel(polar2_rows(s) · K)
  (`Subspace.meet_kernel`).  Only the anchor v is eliminated in full; s
  costs a quadric-count by (m + n - 1) system.  Recovery takes the same
  meet through the form instead: polar2_rows(s) · K is the table
  2B(s, k_i) over the basis vectors k_i, one `polar2_table` query, so
  the polar rows of s are never built (`Subspace.meet_values`);
  `tangent_intersection` stays on the rows as the reference.
  `cross_rays(v, s)` splits the intersection for two generic simple
  vectors: it is a plane whose trace on S is exactly two rational rays,
  one in each sheet through v.
* `sheets_through(v)` needs no sample: a fixed candidate t of T(v) in
  neither sheet splits into one ray g_i per sheet, each sheet is
  T(v) ∩ T(g_i) with T(v) taken once, and the pair is certified with
  `subspace_in_S` (one `polar2_table` of a sheet's basis against itself)
  and one rank.  The meets with t and with both rays take one table
  each.
* `transport` carries vectors between two sheets of one foliation along
  the ray correspondence, normalized by a chosen pair of reference
  vectors; it is realized by square completion.

Degenerate configurations are always detected exactly (this is the payoff
of rational arithmetic): they raise Degenerate, or send `sheets_through`
on to its next candidate, and no tolerance is ever tuned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from untensor.errors import (
    Degenerate,
    MalformedSheets,
    NotSimpleVector,
    PreconditionViolated,
    RetryExhausted,
    TrivialShape,
    ZeroVector,
)
from untensor.linalg import (
    Matrix,
    Subspace,
    Vector,
    integer_sqrt_exact,
    is_zero_vector,
    kernel,
    proportionality_ratio,
    ray_generator,
    linear_combination,
    to_integers,
    vadd,
)
from untensor.tensor_space import TensorSpace


@dataclass(frozen=True)
class Sheet:
    """A maximal linear subspace of S."""

    subspace: Subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def contains(self, v: Sequence) -> bool:
        return self.subspace.contains(v)


@dataclass(frozen=True)
class SheetPair:
    """The two sheets through one simple vector, canonically ordered."""

    first: Sheet
    second: Sheet

    @property
    def dims(self) -> tuple[int, int]:
        return (self.first.dim, self.second.dim)

    def subspaces(self) -> tuple[Subspace, Subspace]:
        return (self.first.subspace, self.second.subspace)


def subspace_in_S(inst: TensorSpace, sub: Subspace) -> bool:
    """Complete test that a subspace lies inside S.

    A quadric vanishes identically on a subspace iff it vanishes on every
    basis vector and every polarized basis pair, so the check is exact:
    one `polar2_table` of the basis against itself, whose diagonal is
    2*Q(b).  The basis and the answers stay integers.
    """
    if sub.ambient_dim != inst.dim:
        raise PreconditionViolated("ambient dimensions differ")
    basis = sub.basis.scaled_rows()
    return not any(any(ints) for row in inst.polar2_table(basis, basis) for ints, _ in row)


def _tangent_point(inst: TensorSpace, v: Sequence) -> Vector:
    """v as a tuple, once it is known to be a nonzero simple vector."""
    v = tuple(v)
    if is_zero_vector(v):
        raise ZeroVector("tangent space needs a nonzero vector")
    if not inst.is_simple(v):
        raise NotSimpleVector("tangent space is defined at simple vectors only")
    return v


def tangent_space(inst: TensorSpace, v: Sequence) -> Subspace:
    """Kernel of the quadric linearizations w -> B_k(v, w) at a simple v.

    Contains both sheets through v; dimension m + n - 1 (for a trivial
    shape the quadric list is empty and the tangent space is all of V,
    which agrees with the formula).
    """
    return kernel(inst.polar2_rows(_tangent_point(inst, v)))


def tangent_intersection(inst: TensorSpace, v: Sequence, s: Sequence) -> Subspace:
    """T(v) ∩ T(s): the vectors of T(v) on which the polar rows of s vanish.

    Both v and s are checked like any tangent point, but the polar rows
    of s are only restricted to T(v).
    """
    return tangent_space(inst, v).meet_kernel(inst.polar2_rows(_tangent_point(inst, s)))


def same_sheet(inst: TensorSpace, x: Sequence, y: Sequence) -> bool:
    """Generically correct test that two simple vectors share a sheet.

    Two simple vectors sharing a sheet always have a simple sum; the
    converse fails only on a measure-zero set, which downstream users
    guard against with full subspace certification.
    """
    return inst.is_simple(vadd(tuple(x), tuple(y)))


def _split_rays(inst: TensorSpace, d1: Sequence, d2: Sequence) -> tuple[Vector, Vector]:
    """The two rays of S in span{d1, d2}, as sorted canonical generators
    (first nonzero coordinate 1).  Every quadric restricted to the plane
    must be a multiple of one binary quadratic A x^2 + B2 xy + C y^2 with
    two distinct rational roots; anything else raises Degenerate.  It is
    the one root test for a plane of the cone: `cross_rays` and
    `sheets_through` split planes with it, and
    `squares.complete_square_details` takes the ray of d as the root of
    span{a, p} that is not the ray of a.

    The three answers of `binary_restriction` have their own denominators
    DA, DB and DC; multiplying each form by DA * DB * DC > 0 makes it
    integral without moving its roots, so every test below is on integers.
    d1 and d2 are cleared to integers once, for the query and both rays.
    """
    d1, d2 = to_integers(d1), to_integers(d2)
    (a_ints, da), (b_ints, db), (c_ints, dc) = inst.binary_restriction(d1, d2)
    forms = [(a * db * dc, b * da * dc, c * da * db) for a, b, c in zip(a_ints, b_ints, c_ints) if a or b or c]
    if not forms:
        raise Degenerate("every quadric vanishes on the plane")
    a, b2, c = forms[0]
    for a1, b1, c1 in forms[1:]:
        if a * b1 != a1 * b2 or a * c1 != a1 * c or b2 * c1 != b1 * c:
            raise Degenerate("restricted quadrics are not proportional")
    disc = b2 * b2 - 4 * a * c
    root = integer_sqrt_exact(disc) if disc > 0 else None
    if a != 0 and root is not None:
        roots = ((-b2 + root, 2 * a), (-b2 - root, 2 * a))
    elif a == 0 and b2 != 0:
        roots = ((1, 0), (-c, b2))
    else:
        raise Degenerate("restricted quadric does not split over the rationals")
    g1, g2 = sorted(ray_generator(linear_combination((d1, d2), xy)) for xy in roots)
    return (g1, g2)


def cross_rays(inst: TensorSpace, v: Sequence, s: Sequence) -> tuple[Vector, Vector]:
    """The two rays where the tangent planes of v and s pierce S, split by
    `_split_rays`.  For generic simple v and s, T(v) ∩ T(s) is a plane
    whose trace on S is one rational ray in each sheet through v; any
    other outcome raises Degenerate.
    """
    plane = tangent_intersection(inst, v, s)
    if plane.dim != 2:
        raise Degenerate(f"tangent intersection has dimension {plane.dim}, need 2")
    return _split_rays(inst, *plane.basis.rows)


def sheets_through(inst: TensorSpace, v: Sequence) -> SheetPair:
    """Both maximal linear subspaces of S through the simple vector v, read
    off T(v) alone.

    On T(v) = W1 + W2 every quadric is bilinear across the two sheets:
    Q(x + y + c v) = 2B(x, y) for x in W1 and y in W2, since Q vanishes on
    each sheet and B(v, .) on T(v).  So for a t = x + y + c v in neither
    sheet, T(v) ∩ ker polar2_rows(t) is the plane span(v, x - y); with u
    any vector of it off the ray of v, every quadric on span(t, u) is a
    multiple of (a + μb)(a - μb), and the two rational roots give a ray
    g_i in each sheet.  T(v) ∩ T(g_i) is then the sheet that holds g_i.

    The candidates are t_i = K·(1, i, i², …, i^(D-1)) for i = 1 … D + 2,
    with K the canonical basis of T(v) and D = dim T(v) = m + n - 1.  Any
    D of their coefficient vectors are independent (Vandermonde), so at
    most m candidates lie in W1 and at most n in W2: one of the D + 2
    lies in neither.  A candidate whose meet is not a plane, or whose
    plane does not split, is skipped.

    A pair is accepted when d1 * d2 == dim V, d1 + d2 == D + 1, both
    sheets pass `subspace_in_S`, and the stacked bases have rank D (given
    the sum, the same as meeting in a ray).  Only an oracle that is not a
    Segre cone gets past the last candidate; then RetryExhausted is
    raised.

    `tangent_space` makes the only check that v is nonzero and simple.  The
    rays g_i need none: `_split_rays` roots restricted forms it has checked
    to be proportional, so every quadric vanishes on them exactly.
    """
    if inst.quadric_count == 0:
        raise TrivialShape("foliation discovery needs both factors of dimension >= 2")
    anchor = tangent_space(inst, v)
    tangent_dim = anchor.dim
    basis = anchor.basis.scaled_rows()
    for i in range(1, tangent_dim + 3):
        t = linear_combination(basis, [i**j for j in range(tangent_dim)])
        meet = anchor.meet_values(inst.polar2_table([t], basis)[0])
        if meet.dim != 2:
            continue
        u = next(r for r in meet.basis.scaled_rows() if proportionality_ratio(v, r) is None)
        try:
            rays = _split_rays(inst, t, u)
        except Degenerate:
            continue
        first, second = (anchor.meet_values(row) for row in inst.polar2_table(rays, basis))
        if (
            first.dim * second.dim == inst.dim
            and first.dim + second.dim == tangent_dim + 1
            and subspace_in_S(inst, first)
            and subspace_in_S(inst, second)
            and Matrix.from_integer_rows(
                first.basis.integer_rows()[0] + second.basis.integer_rows()[0], 1, inst.dim
            ).rank()
            == tangent_dim
        ):
            ordered = sorted((first, second), key=lambda s: (-s.dim, s.basis.rows))
            return SheetPair(first=Sheet(ordered[0]), second=Sheet(ordered[1]))
    raise RetryExhausted(f"no certified sheet pair among {tangent_dim + 2} candidates")


def same_foliation(inst: TensorSpace, m: Sheet, n: Sheet) -> bool:
    """Sheets of one foliation are equal or disjoint; across foliations they
    meet in a ray.  Any larger intersection means the inputs are not sheets."""
    if m.subspace == n.subspace:
        return True
    overlap = m.subspace.intersect(n.subspace).dim
    if overlap == 0:
        return True
    if overlap == 1:
        return False
    raise MalformedSheets(f"sheets overlap in dimension {overlap}")


def transport(
    inst: TensorSpace,
    m: Sheet,
    m_prime: Sheet,
    v0: Sequence,
    v0_prime: Sequence,
    v: Sequence,
) -> Vector:
    """Carry v from sheet m to sheet m_prime along the ray correspondence.

    The correspondence maps each ray of m to the ray of m_prime met by the
    common transversal sheet; the linear lift is pinned by sending v0 to
    v0_prime.  Requires m and m_prime in one foliation, v0, v in m,
    v0_prime in m_prime, and v0_prime in the cross sheet of v0.
    """
    v0 = tuple(v0)
    v0_prime = tuple(v0_prime)
    v = tuple(v)
    if is_zero_vector(v0) or is_zero_vector(v0_prime):
        raise PreconditionViolated("reference vectors must be nonzero")
    if not same_foliation(inst, m, m_prime):
        raise PreconditionViolated("target sheet is not in the source sheet's foliation")
    if not (m.contains(v0) and m.contains(v)):
        raise PreconditionViolated("v0 and v must lie in the source sheet")
    if not m_prime.contains(v0_prime):
        raise PreconditionViolated("v0' must lie in the target sheet")
    if not same_sheet(inst, v0, v0_prime):
        raise PreconditionViolated("v0' must lie in the cross sheet of v0")
    if is_zero_vector(v):
        return v
    from untensor.squares import complete_square

    return complete_square(inst, v0, v0_prime, v)
