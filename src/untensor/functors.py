"""Functorial layer: the product functor, the decomposition functor, and
their naturality checks.

Objects on one side are pairs of (pointed) coordinate spaces, acted on by
pairs of invertible matrices; on the other side they are `TensorSpace`
instances, acted on by invertible linear maps that carry the rank-one cone
of the source onto that of the target.  `tensor_morphism` realizes the
product functor on morphisms, `is_cone_morphism` certifies cone
preservation by exact degree-two ideal membership, read through the
public polar form of both oracles, and
`induced_factor_maps` realizes the decomposition functor on morphisms by
restricting to the recovered sheets.

The two naturality checks are exact matrix identities.  On the pair side
the bridge sends a factor vector to its product with the opposite base
factor.  On the product side the bridge is the reconstruction's product
map; without matched base points its commutation holds only up to one
global scalar, which `product_commutation_scale` extracts with one
`proportionality_ratio` over the flattened matrices, and which is
the same obstruction that makes the product functor many-to-one on
morphism pairs (`gl1_demo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from untensor.errors import (
    DimensionMismatch,
    PreconditionViolated,
    RankDeficient,
    SheetNotPreserved,
)
from untensor.linalg import (
    Matrix,
    Scaled,
    Vector,
    _solve_columns,
    frac,
    proportionality_ratio,
)
from untensor.reconstruct import Reconstruction, _flattened
from untensor.tensor_space import TensorSpace


@dataclass(frozen=True)
class VecPairMorphism:
    """A pair of invertible matrices acting on the two factor spaces."""

    g: Matrix
    h: Matrix

    def __post_init__(self):
        if self.g.nrows != self.g.ncols or self.h.nrows != self.h.ncols:
            raise DimensionMismatch("factor maps must be square")

    def scaled(self, lam) -> "VecPairMorphism":
        lam = frac(lam)
        if lam == 0:
            raise PreconditionViolated("the exchanged scalar must be nonzero")
        return VecPairMorphism(self.g.scale(lam), self.h.scale(1 / lam))


@dataclass(frozen=True)
class LinearMorphism:
    """An invertible linear map between two instances' ambient spaces."""

    source: TensorSpace
    target: TensorSpace
    matrix: Matrix

    def apply(self, v: Sequence) -> Vector:
        return self.matrix.apply(tuple(v))


def identity_morphism(inst: TensorSpace) -> LinearMorphism:
    return LinearMorphism(inst, inst, Matrix.identity(inst.dim))


def compose(f: LinearMorphism, g: LinearMorphism) -> LinearMorphism:
    """f after g."""
    if g.target is not f.source:
        raise PreconditionViolated("morphisms do not chain")
    return LinearMorphism(g.source, f.target, f.matrix @ g.matrix)


def tensor_morphism(inst_a: TensorSpace, inst_b: TensorSpace, pm: VecPairMorphism) -> LinearMorphism:
    """The product of a factor-map pair, conjugated into visible coordinates."""
    if inst_a.shape != inst_b.shape:
        raise DimensionMismatch.of(inst_a.shape, inst_b.shape)
    if pm.g.nrows != inst_a.shape.m or pm.h.nrows != inst_a.shape.n:
        raise DimensionMismatch.of((inst_a.shape.m, inst_a.shape.n), (pm.g.nrows, pm.h.nrows))
    if pm.g.rank() < pm.g.nrows or pm.h.rank() < pm.h.nrows:
        raise PreconditionViolated("factor maps must be invertible")
    hidden = pm.g.kron(pm.h)
    return LinearMorphism(inst_a, inst_b, inst_b.scramble @ hidden @ inst_a.scramble_inverse)


def is_cone_morphism(f: LinearMorphism) -> bool:
    """Certify that f carries the source cone exactly onto the target cone.

    Each target quadric pulled back through f must lie in the span of the
    source quadrics; the two spans have the minors as bases, so equal
    counts plus one-way containment plus invertibility force equality of
    the cones.  A quadratic form is fixed by its polar values on the unit
    pairs (e_p, e_q), p <= q, and the pullback of a target form takes the
    values of the form itself on (f e_p, f e_q).  So S holds the source's
    form values on the unit pairs, T holds the target's on their images
    (one `polar2_table` query per side), one column per quadric, and
    containment is rank(S) == rank([S | T]).  The answers stay integers: the row of pair (p, q) is
    [s / Ds | t / Dt], and scaling it by Ds * Dt > 0 gives the integer row
    [s Dt | t Ds] with the same ranks.
    """
    if f.source.dim != f.target.dim:
        return False
    if f.matrix.shape != (f.target.dim, f.source.dim) or f.matrix.rank() < f.source.dim:
        return False
    if f.source.quadric_count != f.target.quadric_count:
        return False
    if f.source.quadric_count == 0:
        return True
    dim, count = f.source.dim, f.source.quadric_count
    units = [Scaled([int(p == q) for q in range(dim)], 1) for p in range(dim)]
    rows, den = f.matrix.integer_rows()
    images = [Scaled([row[p] for row in rows], den) for p in range(dim)]
    pairs = [(p, q) for q in range(dim) for p in range(q + 1)]
    source_table = f.source.polar2_table(units, units)
    target_table = f.target.polar2_table(images, images)
    source = [source_table[p][q] for p, q in pairs]
    target = [target_table[p][q] for p, q in pairs]
    both = [[x * dt for x in s] + [x * ds for x in t] for (s, ds), (t, dt) in zip(source, target)]
    rank = Matrix.from_integer_rows([s for s, _ in source], 1, count).rank()
    return rank == Matrix.from_integer_rows(both, 1, 2 * count).rank()


def preserves_cone_empirically(f: LinearMorphism, rng, trials: int = 50) -> bool:
    """Sampling cross-check of cone preservation, via the hidden oracle."""
    for _ in range(trials):
        s = f.source.sample_simple(rng)
        if not f.target.is_simple(f.apply(s)):
            return False
    return True


def _coordinate_map(basis: Sequence[Sequence], images: Sequence[Vector]) -> Matrix | None:
    """The matrix whose columns are the coordinates of the images in the
    basis of a sheet, or None unless the images span that sheet.

    The basis is independent, so the coordinates are unique; every image
    has them exactly when the images lie in the sheet, and the matrix then
    has full row rank exactly when they span it."""
    coords = _solve_columns(Matrix.from_columns(basis), images)
    if None in coords:
        return None
    part = Matrix.from_columns(coords)
    return part if part.rank() == len(basis) else None


def _factor_maps(
    f: LinearMorphism,
    recon_s: Reconstruction,
    recon_t: Reconstruction,
    *,
    require_pointed: bool = True,
) -> tuple[Matrix, Matrix, bool]:
    """Restrictions of f to the recovered sheets, in the recon bases.

    Returns (f1, f2, crossed); crossed means the image of the first source
    sheet is the second target sheet.  The images of a source sheet's basis
    map onto a target sheet exactly when `_coordinate_map` finds their
    coordinates there with full row rank, so the sheet test and the
    restriction are one solve and one rank.  Given full row rank, a
    restriction is invertible exactly when it is square.
    """
    image_w0 = f.apply(recon_s.w0)
    if require_pointed:
        if image_w0 != recon_t.w0:
            raise PreconditionViolated("f does not carry the source base point to the target one")
    elif proportionality_ratio(recon_t.w0, image_w0) is None:
        raise PreconditionViolated("f does not carry the base ray to the target base ray")

    images_e = [f.matrix.apply(e) for e in recon_s.rows_e]
    images_f = [f.matrix.apply(v) for v in recon_s.rows_f]
    targets = (recon_t.rows_e, recon_t.rows_f)
    f1 = _coordinate_map(targets[0], images_e)
    crossed = f1 is None
    if crossed:
        targets = targets[::-1]
        f1 = _coordinate_map(targets[0], images_e)
        if f1 is None:
            raise SheetNotPreserved("first sheet image is not a sheet of the target pair")
    f2 = _coordinate_map(targets[1], images_f)
    if f2 is None:
        raise SheetNotPreserved("second sheet image is not the matching target sheet")
    if len(images_e) != f1.nrows or len(images_f) != f2.nrows:
        raise RankDeficient("a restricted factor map is singular")
    return f1, f2, crossed


def induced_factor_maps(
    f: LinearMorphism, recon_s: Reconstruction, recon_t: Reconstruction
) -> tuple[Matrix, Matrix]:
    """The decomposition functor on a morphism: the two sheet restrictions.

    When f lands on the opposite members of the target pair the crossed
    restrictions are computed all the same but reported through
    `SheetNotPreserved.crossed_pair`, surfacing the equal-dimension swap
    instead of hiding it.
    """
    f1, f2, crossed = _factor_maps(f, recon_s, recon_t)
    if crossed:
        raise SheetNotPreserved(
            "f exchanges the two foliations; crossed restrictions attached",
            crossed_pair=(f1, f2),
        )
    return f1, f2


def check_pair_side_naturality(inst_a: TensorSpace, inst_b: TensorSpace, pm: VecPairMorphism) -> bool:
    """Exact commutation of the factor-to-sheet bridge with a morphism pair.

    The bridge maps a first-factor vector x to its product with the base
    second factor, and symmetrically.  Returns False on any violation,
    including mismatched base points, which is how a deliberately broken
    bridge shows up.
    """
    if inst_a.base_factors is None or inst_b.base_factors is None:
        raise PreconditionViolated("pointed instances required")
    alpha_a, beta_a = inst_a.base_factors
    alpha_b, beta_b = inst_b.base_factors
    morphism = tensor_morphism(inst_a, inst_b, pm)
    if pm.g.apply(alpha_a) != alpha_b or pm.h.apply(beta_a) != beta_b:
        return False
    if not is_cone_morphism(morphism):
        return False
    m, n = inst_a.shape.m, inst_a.shape.n
    rows_m = Matrix.identity(m).rows
    rows_n = Matrix.identity(n).rows
    bridge_first_a = Matrix.from_columns([inst_a.embed_simple(e, beta_a) for e in rows_m])
    bridge_first_b = Matrix.from_columns([inst_b.embed_simple(e, beta_b) for e in rows_m])
    bridge_second_a = Matrix.from_columns([inst_a.embed_simple(alpha_a, e) for e in rows_n])
    bridge_second_b = Matrix.from_columns([inst_b.embed_simple(alpha_b, e) for e in rows_n])
    return (
        morphism.matrix @ bridge_first_a == bridge_first_b @ pm.g
        and morphism.matrix @ bridge_second_a == bridge_second_b @ pm.h
    )


def product_commutation_scale(
    f: LinearMorphism,
    recon_s: Reconstruction,
    recon_t: Reconstruction,
    *,
    require_pointed: bool = False,
) -> Fraction | None:
    """The single scalar relating f composed with the source product map to
    the target product map composed with the restricted factor maps.

    Both sides are integer matrix products: f·φ_s, and φ_t·(f1 ⊗ f2), whose
    column (j, k) is the target product of the images of e_j and f_k; when
    the sheets cross, f2 ⊗ f1 with its columns reordered once.  One
    `proportionality_ratio` over the two flattened products reads the
    scalar.  Matched base points force the scalar to 1; a rescaled target
    base point shows up here as a nontrivial scalar.  Returns None when no
    single scalar works.
    """
    f1, f2, crossed = _factor_maps(f, recon_s, recon_t, require_pointed=require_pointed)
    if crossed:
        # Pair (j, k) takes column k * d1 + j of f2.kron(f1), which is f2_k x f1_j.
        d1, d2 = recon_s.dims
        rows, den = f2.kron(f1).integer_rows()
        order = [k * d1 + j for j in range(d1) for k in range(d2)]
        pairs = Matrix.from_integer_rows([[row[c] for c in order] for row in rows], den, len(order))
    else:
        pairs = f1.kron(f2)
    rhs = _flattened(recon_t.product_matrix @ pairs)
    if not any(rhs.ints):
        return None
    return proportionality_ratio(rhs, _flattened(f.matrix @ recon_s.product_matrix))


def check_product_side_naturality(
    f: LinearMorphism, recon_s: Reconstruction, recon_t: Reconstruction
) -> bool:
    """Exact commutation of the product bridge for base-point-matched data."""
    return product_commutation_scale(f, recon_s, recon_t, require_pointed=True) == 1


def gl1_demo(inst_a: TensorSpace, inst_b: TensorSpace, pm: VecPairMorphism, lam) -> bool:
    """Exhibit the scalar collapse of the product functor on morphisms.

    The pairs (g, h) and (lam*g, h/lam) differ whenever lam != 1, yet their
    products are the same morphism; both facts are asserted.
    """
    lam = frac(lam)
    exchanged = pm.scaled(lam)
    same_product = (
        tensor_morphism(inst_a, inst_b, pm).matrix
        == tensor_morphism(inst_a, inst_b, exchanged).matrix
    )
    pairs_differ = exchanged != pm
    return same_product and (pairs_differ == (lam != 1))
