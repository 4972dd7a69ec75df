from fractions import Fraction as F
from random import Random

import pytest

from untensor.errors import DimensionMismatch, PreconditionViolated, SheetNotPreserved
from untensor.functors import (
    LinearMorphism,
    VecPairMorphism,
    check_pair_side_naturality,
    check_product_side_naturality,
    compose,
    gl1_demo,
    identity_morphism,
    induced_factor_maps,
    is_cone_morphism,
    preserves_cone_empirically,
    product_commutation_scale,
    recovered_pair,
    tensor_morphism,
)
from untensor.linalg import Matrix, kernel, vscale
from untensor.reconstruct import recover_factors
from untensor.tensor_space import TensorSpace, build_instance, generate_instance, inject_quadric_fault


def rand_invertible(rng, n, bound=3):
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def compatible_pair(shape, seed):
    """Pointed source, a factor-map pair, and a base-compatible target."""
    rng = Random(seed)
    inst_a = generate_instance(shape, seed, pointed=True)
    g = rand_invertible(rng, shape[0])
    h = rand_invertible(rng, shape[1])
    scr = generate_instance(shape, seed + 1).scramble
    alpha, beta = inst_a.base_factors
    inst_b = TensorSpace(inst_a.shape, scr, base_factors=(g.apply(alpha), h.apply(beta)))
    return inst_a, VecPairMorphism(g, h), inst_b


class WithProductMatrix:
    """A reconstruction whose product matrix is replaced by `phi`."""

    def __init__(self, recon, phi):
        self._recon = recon
        self.product_matrix = phi

    def __getattr__(self, name):
        return getattr(self._recon, name)


class TestTensorMorphism:
    def test_identity_pair(self):
        inst_a, _, inst_b = compatible_pair((2, 3), 1)
        pm = VecPairMorphism(Matrix.identity(2), Matrix.identity(3))
        f = tensor_morphism(inst_a, inst_b, pm)
        assert f.matrix == inst_b.scramble @ inst_a.scramble_inverse

    def test_diagonal_kronecker_structure(self):
        inst = build_instance((2, 2))
        pm = VecPairMorphism(Matrix([[2, 0], [0, 3]]), Matrix.identity(2))
        f = tensor_morphism(inst, inst, pm)
        assert f.matrix == Matrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])

    def test_images_of_samples_are_simple(self):
        inst_a, pm, inst_b = compatible_pair((3, 3), 2)
        f = tensor_morphism(inst_a, inst_b, pm)
        assert preserves_cone_empirically(f, Random(3), 50)

    @pytest.mark.parametrize("side", ["g", "h", "both"])
    def test_rejects_singular_factor_maps(self, side):
        inst_a, pm, inst_b = compatible_pair((2, 3), 3)
        singular = {"g": Matrix([[1, 2], [2, 4]]), "h": Matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])}
        maps = {"g": pm.g, "h": pm.h} | ({side: singular[side]} if side != "both" else singular)
        with pytest.raises(PreconditionViolated, match="factor maps must be invertible"):
            tensor_morphism(inst_a, inst_b, VecPairMorphism(maps["g"], maps["h"]))
        # The shapes are checked before invertibility.
        with pytest.raises(DimensionMismatch):
            tensor_morphism(inst_a, inst_b, VecPairMorphism(maps["h"], maps["g"]))


class TestCertification:
    def test_accepts_tensor_morphisms(self):
        for shape, seed in [((2, 2), 4), ((2, 3), 5), ((3, 3), 6)]:
            inst_a, pm, inst_b = compatible_pair(shape, seed)
            assert is_cone_morphism(tensor_morphism(inst_a, inst_b, pm))

    @pytest.mark.parametrize("shape,count", [((2, 2), 50), ((2, 3), 50)])
    def test_rejects_generic_invertible_maps(self, shape, count):
        inst_a = generate_instance(shape, 7)
        inst_b = generate_instance(shape, 8)
        rng = Random(9)
        for _ in range(count):
            candidate = LinearMorphism(inst_a, inst_b, rand_invertible(rng, inst_a.dim, 2))
            if is_cone_morphism(candidate):
                # acceptance is only believed if the hidden oracle agrees
                assert preserves_cone_empirically(candidate, Random(1), 200)

    def test_rejects_a_faulted_target(self):
        for shape, seed in [((2, 2), 4), ((2, 3), 5), ((3, 3), 6)]:
            inst_a, pm, inst_b = compatible_pair(shape, seed)
            faulted = inject_quadric_fault(inst_b)
            assert not is_cone_morphism(tensor_morphism(inst_a, faulted, pm))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_rejects_every_random_invertible_map(self, shape):
        inst_a = generate_instance(shape, 7)
        inst_b = generate_instance(shape, 8)
        rng = Random(10)
        for _ in range(20):
            assert not is_cone_morphism(LinearMorphism(inst_a, inst_b, rand_invertible(rng, inst_a.dim, 2)))

    def test_rejects_a_singular_map_into_the_cone(self):
        # x -> x_0 s sends every vector onto the ray of a simple s, so every
        # pulled-back quadric vanishes and only the rank check refuses it.
        inst = generate_instance((2, 3), 7)
        s = inst.embed_simple((1, 2), (0, 1, -1))
        squash = Matrix([[x] + [0] * (inst.dim - 1) for x in s])
        assert not is_cone_morphism(LinearMorphism(inst, inst, squash))

    def test_swap_map_preserves_cone(self):
        inst = generate_instance((3, 3), 10, pointed=True)
        n = 3
        perm_rows = []
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                row[j * n + i] = 1
                perm_rows.append(row)
        swap_hidden = Matrix(perm_rows)
        swap = LinearMorphism(inst, inst, inst.scramble @ swap_hidden @ inst.scramble_inverse)
        assert is_cone_morphism(swap)

    def test_swap_map_crosses_foliations(self):
        inst = generate_instance((2, 2), 11)
        base = (1, 2)
        inst = TensorSpace(inst.shape, inst.scramble, base_factors=(base, base))
        perm_rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        swap = LinearMorphism(
            inst, inst, inst.scramble @ Matrix(perm_rows) @ inst.scramble_inverse
        )
        assert is_cone_morphism(swap)
        recon = recover_factors(inst, Random(12))
        with pytest.raises(SheetNotPreserved) as excinfo:
            induced_factor_maps(swap, recon, recon)
        assert excinfo.value.crossed_pair is not None
        # the crossed restrictions still satisfy the commutation up to scale 1
        assert product_commutation_scale(swap, recon, recon, require_pointed=True) == 1


class TestDecomposition:
    def test_recovered_pair_passthrough(self):
        inst = generate_instance((2, 3), 13, pointed=True)
        recon = recover_factors(inst, Random(14))
        w1, w2, w0 = recovered_pair(inst, recon)
        assert w1 is recon.sheet_w1 and w2 is recon.sheet_w2 and w0 == recon.w0

    def test_identity_restricts_to_identities(self):
        inst = generate_instance((2, 3), 15, pointed=True)
        recon = recover_factors(inst, Random(16))
        f1, f2 = induced_factor_maps(identity_morphism(inst), recon, recon)
        assert f1 == Matrix.identity(f1.nrows)
        assert f2 == Matrix.identity(f2.nrows)

    def test_restrictions_conjugate_to_factor_maps(self):
        # behind the curtain, the restriction to a sheet is the matching
        # factor map conjugated by the sheet-basis decompositions, up to one
        # scalar absorbed by the base-factor gauge
        from untensor.functors import _factor_maps
        from untensor.linalg import rank_one_split, ray_generator
        from untensor.reconstruct import _side_vector

        inst_a, pm, inst_b = compatible_pair((2, 3), 43)
        f = tensor_morphism(inst_a, inst_b, pm)
        recon_a = recover_factors(inst_a, Random(44))
        recon_b = recover_factors(inst_b, Random(45))
        f1, f2, crossed = _factor_maps(f, recon_a, recon_b)
        assert not crossed  # the factor dimensions differ, so sheets cannot cross

        def decomposition(inst, recon, basis, side):
            ahat, row = rank_one_split(inst.hidden_coordinates(recon.w0))
            bhat = ray_generator(row)
            parts = []
            for v in basis:
                grid = inst.hidden_coordinates(v)
                part = _side_vector(grid, bhat) if side == "row" else _side_vector(grid.transpose(), ahat)
                assert part is not None
                parts.append(part)
            return Matrix.from_columns(parts)

        def single_scale(lhs, rhs):
            ratio = None
            for l_row, r_row in zip(lhs.rows, rhs.rows):
                for x, y in zip(l_row, r_row):
                    if y != 0:
                        ratio = x / y
                        break
                if ratio is not None:
                    break
            assert ratio is not None and lhs == rhs.scale(ratio)

        # on shape (2, 3) the first sheet is the 3-dimensional column side
        q_a = decomposition(inst_a, recon_a, recon_a.basis_e, "col")
        q_b = decomposition(inst_b, recon_b, recon_b.basis_e, "col")
        single_scale(q_b @ f1, pm.h @ q_a)
        p_a = decomposition(inst_a, recon_a, recon_a.basis_f, "row")
        p_b = decomposition(inst_b, recon_b, recon_b.basis_f, "row")
        single_scale(p_b @ f2, pm.g @ p_a)

    def test_composition_law(self):
        inst_a, pm1, inst_b = compatible_pair((2, 3), 17)
        rng = Random(18)
        g2 = rand_invertible(rng, 2)
        h2 = rand_invertible(rng, 3)
        alpha_b, beta_b = inst_b.base_factors
        inst_c = TensorSpace(
            inst_b.shape,
            generate_instance((2, 3), 19).scramble,
            base_factors=(g2.apply(alpha_b), h2.apply(beta_b)),
        )
        pm2 = VecPairMorphism(g2, h2)
        first = tensor_morphism(inst_a, inst_b, pm1)
        second = tensor_morphism(inst_b, inst_c, pm2)
        composite = compose(second, first)
        direct = tensor_morphism(inst_a, inst_c, VecPairMorphism(g2 @ pm1.g, h2 @ pm1.h))
        assert composite.matrix == direct.matrix

        recon_a = recover_factors(inst_a, Random(20))
        recon_b = recover_factors(inst_b, Random(21))
        recon_c = recover_factors(inst_c, Random(22))
        a1, a2 = induced_factor_maps(first, recon_a, recon_b)
        b1, b2 = induced_factor_maps(second, recon_b, recon_c)
        c1, c2 = induced_factor_maps(composite, recon_a, recon_c)
        assert c1 == b1 @ a1 and c2 == b2 @ a2

    @pytest.mark.parametrize(
        "fixed,message",
        [("w0", "first sheet"), ("basis_e", "second sheet"), ("collapse", "second sheet")],
    )
    def test_rejects_maps_that_move_a_sheet(self, fixed, message):
        # f = I + u zᵀ fixes every vector orthogonal to z.  Fixing only w0
        # moves the first sheet off both target sheets; fixing the whole
        # first sheet moves the second one.  With u in the second sheet and
        # z·u = -1, f kills u: it maps the second sheet into itself but not
        # onto it.
        inst = generate_instance((2, 3), 5, pointed=True)
        recon = recover_factors(inst, Random(1))
        vectors = [recon.w0] if fixed == "w0" else recon.basis_e
        z = kernel(Matrix([list(v) for v in vectors])).basis.rows[0]
        u = tuple(range(1, inst.dim + 1))
        if fixed == "collapse":
            u = recon.basis_f[0]
            z = vscale(-1 / sum(a * b for a, b in zip(z, u)), z)
        rows = [[int(i == j) + u[i] * z[j] for j in range(inst.dim)] for i in range(inst.dim)]
        f = LinearMorphism(inst, inst, Matrix(rows))
        with pytest.raises(SheetNotPreserved, match=message) as excinfo:
            induced_factor_maps(f, recon, recon)
        assert excinfo.value.crossed_pair is None


class TestNaturality:
    def test_pair_side_exact(self):
        for shape, seed in [((2, 2), 23), ((2, 3), 24), ((3, 3), 25)]:
            inst_a, pm, inst_b = compatible_pair(shape, seed)
            assert check_pair_side_naturality(inst_a, inst_b, pm)

    def test_pair_side_detects_broken_bridge(self):
        inst_a, pm, inst_b = compatible_pair((2, 3), 26)
        alpha_b, beta_b = inst_b.base_factors
        broken = TensorSpace(
            inst_b.shape, inst_b.scramble, base_factors=(alpha_b, vscale(2, beta_b))
        )
        assert not check_pair_side_naturality(inst_a, broken, pm)

    def test_product_side_exact(self):
        inst_a, pm, inst_b = compatible_pair((2, 3), 27)
        f = tensor_morphism(inst_a, inst_b, pm)
        recon_a = recover_factors(inst_a, Random(28))
        recon_b = recover_factors(inst_b, Random(29))
        assert check_product_side_naturality(f, recon_a, recon_b)

    def test_identity_commutes(self):
        inst = generate_instance((2, 2), 30, pointed=True)
        recon = recover_factors(inst, Random(31))
        assert check_product_side_naturality(identity_morphism(inst), recon, recon)

    def test_unpointed_scale_reported(self):
        inst_a, pm, inst_b = compatible_pair((2, 3), 32)
        f = tensor_morphism(inst_a, inst_b, pm)
        recon_a = recover_factors(inst_a, Random(33))
        scaled_w0 = vscale(F(3), f.apply(recon_a.w0))
        recon_b = recover_factors(inst_b, Random(34), w0=scaled_w0)
        assert product_commutation_scale(f, recon_a, recon_b) == 3

    def test_perturbed_product_has_no_scale(self):
        inst_a, pm, inst_b = compatible_pair((2, 3), 27)
        f = tensor_morphism(inst_a, inst_b, pm)
        recon_a = recover_factors(inst_a, Random(28))
        recon_b = recover_factors(inst_b, Random(29))
        columns = recon_b.product_matrix.columns()
        columns[-1] = (columns[-1][0] + 1,) + columns[-1][1:]
        perturbed = WithProductMatrix(recon_b, Matrix.from_columns(columns))
        assert product_commutation_scale(f, recon_a, perturbed) is None


class TestGl1:
    def test_collapse(self):
        inst_a, pm, inst_b = compatible_pair((2, 2), 35)
        for lam in (F(1), F(3), F(-2, 5), F(7, 2)):
            assert gl1_demo(inst_a, inst_b, pm, lam)

    def test_pair_inequality_when_nontrivial(self):
        inst_a, pm, inst_b = compatible_pair((2, 2), 36)
        assert pm.scaled(F(3)) != pm
        assert pm.scaled(F(1)) == pm
