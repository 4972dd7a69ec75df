"""Foliation structure of the rank-one cone.

For a nonzero simple vector v the cone S contains exactly two maximal
linear subspaces through v (its "sheets"), one per foliation; sheets of
the same foliation are disjoint, sheets of different foliations meet in a
ray.  None of that structure is visible in the raw coordinates, but it can
be dug out of S alone:

* `tangent_space(v)` linearizes the quadrics at v: T(v) is the kernel of
  `polar2_rows(v)`, one elimination.  It has dimension m + n - 1 and
  equals the span of the two sheets through v.  A tangent cache (a dict
  passed as `cache`) maps `tuple(v)` to T(v), so an anchor is eliminated
  once however many intersections it enters.
* `tangent_equations(v)` is the reduced echelon basis of the row space of
  `polar2_rows(v)`, one equation per independent linear condition.
* `tangent_intersection(v, s)` restricts the polar rows of s to T(v):
  with K a basis of T(v), T(v) ∩ T(s) = K · kernel(polar2_rows(s) · K).
  Only the anchor v is eliminated in full; s costs a quadric-count by
  (m + n - 1) system and is neither eliminated in full nor cached.
  `cross_rays(v, s)` splits the intersection for two generic simple
  vectors: it is a plane whose trace on S is exactly two rational rays,
  one in each sheet through v.
* `sheets_through(v)` takes the two cross rays g1, g2 of v and one random
  sample; each sheet through v is then T(v) ∩ T(g_i), and the pair is
  certified with `subspace_in_S` and one rank.  Its tangent cache holds
  the one anchor v for the call.
* `transport` carries vectors between two sheets of one foliation along
  the ray correspondence, normalized by a chosen pair of reference
  vectors; it is realized by square completion.

Degenerate samples are always detected exactly (this is the payoff of
rational arithmetic) and answered by resampling, never by tolerance
tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
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
    fraction_sqrt_exact,
    is_zero_vector,
    kernel,
    ray_generator,
    vadd,
    vscale,
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
    basis vector and every polarized basis pair, so the check is exact.
    """
    if sub.ambient_dim != inst.dim:
        raise PreconditionViolated("ambient dimensions differ")
    basis = sub.basis.rows
    for i, b in enumerate(basis):
        if any(x != 0 for x in inst.minor_values(b)):
            return False
        for a in basis[:i]:
            if any(x != 0 for x in inst.polar2_values(a, b)):
                return False
    return True


def _tangent_point(inst: TensorSpace, v: Sequence) -> Vector:
    """v as a tuple, once it is known to be a nonzero simple vector."""
    v = tuple(v)
    if is_zero_vector(v):
        raise ZeroVector("tangent space needs a nonzero vector")
    if not inst.is_simple(v):
        raise NotSimpleVector("tangent space is defined at simple vectors only")
    return v


def tangent_equations(inst: TensorSpace, v: Sequence) -> tuple[Vector, ...]:
    """Reduced equations of the tangent space at a simple v.

    The rows are the canonical echelon basis of the span of the quadric
    linearizations w -> B_k(v, w); there are dim V - (m + n - 1) of them
    (none for a trivial shape).
    """
    return Subspace.row_space(inst.polar2_rows(_tangent_point(inst, v))).basis.rows


def tangent_space(inst: TensorSpace, v: Sequence, cache: dict | None = None) -> Subspace:
    """Kernel of the quadric linearizations w -> B_k(v, w) at a simple v.

    Contains both sheets through v; dimension m + n - 1 (for a trivial
    shape the quadric list is empty and the tangent space is all of V,
    which agrees with the formula).  `cache` keeps it under tuple(v).
    """
    key = tuple(v)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    out = kernel(inst.polar2_rows(_tangent_point(inst, key)))
    if cache is not None:
        cache[key] = out
    return out


def tangent_intersection(inst: TensorSpace, v: Sequence, s: Sequence, cache: dict | None = None) -> Subspace:
    """T(v) ∩ T(s): the vectors of T(v) on which the polar rows of s vanish.

    T(v) comes from `tangent_space` and its cache; s is checked like any
    tangent point, but its polar rows are only restricted to T(v).
    """
    anchor = tangent_space(inst, v, cache)
    return anchor.meet_kernel(inst.polar2_rows(_tangent_point(inst, s)))


def same_sheet(inst: TensorSpace, x: Sequence, y: Sequence) -> bool:
    """Generically correct test that two simple vectors share a sheet.

    Two simple vectors sharing a sheet always have a simple sum; the
    converse fails only on a measure-zero set, which downstream users
    guard against with full subspace certification.
    """
    return inst.is_simple(vadd(tuple(x), tuple(y)))


def _binary_form_roots(a, b2, c) -> tuple[tuple, tuple] | None:
    """Distinct projective rational roots of A x^2 + B2 xy + C y^2.

    Returns a pair of (x, y) tuples or None when the roots are absent,
    coincident, or irrational.
    """
    if a == 0:
        if b2 == 0:
            return None
        return ((1, 0), (-c, b2))
    disc = b2 * b2 - 4 * a * c
    if disc <= 0:
        return None
    root = fraction_sqrt_exact(Fraction(disc))
    if root is None:
        return None
    return (((-b2 + root) / (2 * a), 1), ((-b2 - root) / (2 * a), 1))


def cross_rays(inst: TensorSpace, v: Sequence, s: Sequence, cache: dict | None = None) -> tuple[Vector, Vector]:
    """The two rays where the tangent planes of v and s pierce S, as their
    canonical generators (first nonzero coordinate 1) in sorted order.

    For generic simple v and s the intersection D of their tangent spaces
    is a plane, every quadric restricted to D is a multiple of one binary
    quadratic, and that quadratic splits into two distinct rational rays.
    Any other outcome raises Degenerate and the caller resamples.
    """
    plane = tangent_intersection(inst, v, s, cache)
    if plane.dim != 2:
        raise Degenerate(f"tangent intersection has dimension {plane.dim}, need 2")
    d1, d2 = plane.basis.rows
    forms = [f for f in inst.binary_restriction(d1, d2) if any(x != 0 for x in f)]
    if not forms:
        raise Degenerate("every quadric vanishes on the intersection plane")
    a0, b0, c0 = forms[0]
    for a1, b1, c1 in forms[1:]:
        if a0 * b1 != a1 * b0 or a0 * c1 != a1 * c0 or b0 * c1 != b1 * c0:
            raise Degenerate("restricted quadrics are not proportional")
    roots = _binary_form_roots(a0, b0, c0)
    if roots is None:
        raise Degenerate("restricted quadric does not split over the rationals")
    g1, g2 = sorted(ray_generator(vadd(vscale(x, d1), vscale(y, d2))) for x, y in roots)
    return (g1, g2)


def sheets_through(inst: TensorSpace, v: Sequence, rng: Random) -> SheetPair:
    """Both maximal linear subspaces of S through the simple vector v.

    A random sample s gives the two cross rays g1, g2 of v and s, one in
    each sheet through v.  Since T(v) is the span of those two sheets and
    sheets of different foliations meet in a ray, T(v) ∩ T(g) is exactly the
    sheet through v that holds g.  The pair is accepted when its dimensions
    satisfy d1 * d2 == dim V and d1 + d2 == m + n, both sheets pass
    `subspace_in_S`, and they meet in a ray; otherwise (for instance when a
    cross ray is the ray of v, whose intersection is all of T(v)) the next
    sample is drawn.  Given d1 + d2 == dim T(v) + 1, meeting in a ray is
    the same as spanning T(v), which one rank of the stacked bases decides.
    The tangent cache lives for this one call and holds T(v) only, which
    every intersection restricts to.
    """
    v = tuple(v)
    if inst.quadric_count == 0:
        raise TrivialShape("foliation discovery needs both factors of dimension >= 2")
    if is_zero_vector(v):
        raise ZeroVector("sheets are anchored at a nonzero vector")
    if not inst.is_simple(v):
        raise NotSimpleVector("sheets exist through simple vectors only")
    cache: dict = {}
    tangent_dim = tangent_space(inst, v, cache).dim
    # tangent_dim + 1 == m + n, read off the cone instead of the hidden shape.
    budget = 64 * (tangent_dim + 1)
    for _ in range(budget):
        sample = inst.sample_simple(rng)
        try:
            rays = cross_rays(inst, v, sample, cache)
        except Degenerate:
            continue
        first, second = (tangent_intersection(inst, v, g, cache) for g in rays)
        if (
            first.dim * second.dim == inst.dim
            and first.dim + second.dim == tangent_dim + 1
            and subspace_in_S(inst, first)
            and subspace_in_S(inst, second)
            and Matrix(first.basis.rows + second.basis.rows, inst.dim).rank() == tangent_dim
        ):
            ordered = sorted((first, second), key=lambda s: (-s.dim, s.basis.rows))
            return SheetPair(first=Sheet(ordered[0]), second=Sheet(ordered[1]))
    raise RetryExhausted(f"no certified sheet pair within {budget} samples")


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
