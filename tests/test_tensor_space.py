from fractions import Fraction as F
from random import Random

import pytest

from untensor.errors import DimensionMismatch
from untensor.linalg import Matrix, is_zero_vector, vadd, vector, vscale
from untensor.reconstruct import recover_factors, verify_round_trip
from untensor.tensor_space import (
    FactorShape,
    build_instance,
    generate_instance,
    inject_quadric_fault,
    instance_from_payload,
    instance_payload,
    verify_rule,
    with_base_factors,
)


@pytest.fixture
def ident22():
    return build_instance((2, 2))


class TestGeneration:
    def test_single_quadric_on_2x2(self, ident22):
        assert ident22.quadric_count == 1
        q = ident22.quadrics[0]
        # v1*v4 - v2*v3 on the nose for the identity scramble
        assert q.evaluate((1, 0, 0, 1)) == 1
        assert q.evaluate((1, 2, 3, 6)) == 0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_one_dimensional_factor_has_no_quadrics(self, k):
        assert build_instance((1, k)).quadric_count == 0

    def test_quadric_count_4x3(self):
        assert FactorShape(4, 3).quadric_count == 18
        assert generate_instance((4, 3), 0).quadric_count == 18

    def test_same_seed_same_instance(self):
        a = generate_instance((3, 3), 42, pointed=True)
        b = generate_instance((3, 3), 42, pointed=True)
        assert a.scramble == b.scramble
        assert a.base_point == b.base_point

    @pytest.mark.parametrize("bad", [0, -1])
    def test_sampler_range_below_one_rejected(self, bad):
        with pytest.raises(ValueError):
            generate_instance((3, 2), 1, pointed=True, sampler_range=bad)
        with pytest.raises(ValueError):
            build_instance((3, 2), sampler_range=bad)

    def test_scramble_invertible(self):
        inst = generate_instance((2, 3), 9)
        assert inst.scramble @ inst.scramble_inverse == Matrix.identity(6)


class TestMembership:
    def test_zero_vector_is_simple(self, ident22):
        assert ident22.is_simple((0, 0, 0, 0))

    def test_unit_determinant_not_simple(self, ident22):
        assert not ident22.is_simple((1, 0, 0, 1))

    def test_embedded_vectors_are_simple(self):
        inst = generate_instance((3, 4), 5)
        rng = Random(1)
        for _ in range(50):
            s = inst.sample_simple(rng)
            assert inst.is_simple(s)

    def test_length_mismatch(self, ident22):
        with pytest.raises(DimensionMismatch):
            ident22.is_simple((1, 0, 0))

    def test_rational_scramble(self):
        # a p/q scramble makes the adjugate rational; membership and recovery stay exact
        base = generate_instance((3, 3), 41).scramble
        scramble = Matrix([[x / (i + 2) for x in row] for i, row in enumerate(base.rows)])
        inst = build_instance((3, 3), scramble, base_factors=((1, -2, 3), (F(1, 2), 0, 5)))
        rng = Random(2)
        for i in range(200):
            v = inst.sample_simple(rng) if i % 2 else vector([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(9)])
            assert inst.is_simple(v) == (inst.hidden_rank(v) <= 1)
        recon = recover_factors(inst, Random(3))
        assert verify_round_trip(inst, recon).success

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
    def test_membership_matches_hidden_rank(self, shape):
        # the quadric zero locus is exactly the rank-<=1 locus
        inst = generate_instance(shape, 31)
        rng = Random(7)
        simple_seen = 0
        for i in range(1000):
            if i % 3 == 0:
                v = inst.sample_simple(rng)
            else:
                v = vector([rng.randint(-6, 6) for _ in range(inst.dim)])
            expected = inst.hidden_rank(v) <= 1
            assert inst.is_simple(v) == expected
            simple_seen += expected
        assert simple_seen >= 300


class TestEmbed:
    def test_zero_factor(self, ident22):
        assert is_zero_vector(ident22.embed_simple((0, 0), (1, 2)))

    def test_unit_grid_flattening(self, ident22):
        assert ident22.embed_simple((1, 0), (0, 1)) == (F(0), F(1), F(0), F(0))

    def test_bilinearity_spot_check(self):
        inst = generate_instance((3, 2), 8)
        a1, a2, b = (1, 2, -1), (0, 3, 4), (5, -2)
        left = inst.embed_simple(vadd(vector(a1), vector(a2)), b)
        right = vadd(inst.embed_simple(a1, b), inst.embed_simple(a2, b))
        assert left == right

    def test_sampler_determinism(self):
        inst = generate_instance((2, 3), 77)
        assert inst.sample_simple(Random(5)) == inst.sample_simple(Random(5))

    def test_generic_pair_sum_not_simple(self):
        inst = generate_instance((3, 3), 13)
        rng = Random(3)
        non_simple = 0
        for _ in range(100):
            u, v = inst.sample_simple(rng), inst.sample_simple(rng)
            non_simple += not inst.is_simple(vadd(u, v))
        assert non_simple >= 95


class TestQuadricConsistency:
    def test_fast_values_equal_gram_values(self):
        inst = generate_instance((3, 3), 19)
        rng = Random(2)
        for _ in range(20):
            v = vector([rng.randint(-5, 5) for _ in range(9)])
            w = vector([rng.randint(-5, 5) for _ in range(9)])
            assert list(inst.quadric_values(v)) == [q.evaluate(v) for q in inst.quadrics]
            scaled = inst.polar2_values(v, w)
            exact = [2 * q.polarize(v, w) for q in inst.quadrics]
            assert [x / inst._det2 for x in scaled] == exact

    def test_polarization_identity(self):
        inst = generate_instance((2, 3), 23)
        rng = Random(4)
        v = vector([rng.randint(-4, 4) for _ in range(6)])
        w = vector([rng.randint(-4, 4) for _ in range(6)])
        for q in inst.quadrics:
            assert q.evaluate(vadd(v, w)) == q.evaluate(v) + q.evaluate(w) + 2 * q.polarize(v, w)

    def test_injected_fault_breaks_soundness(self):
        inst = inject_quadric_fault(generate_instance((2, 2), 3))
        rng = Random(6)
        assert any(not inst.is_simple(inst.sample_simple(rng)) for _ in range(20))


class TestRule:
    def test_zero_legs(self):
        inst = generate_instance((2, 3), 41)
        zeros = (0, 0, 0)
        assert verify_rule(inst, [(1, 0), (0, 1)], [zeros, zeros])

    def test_independent_with_nonzero_leg(self):
        inst = generate_instance((2, 3), 41)
        assert verify_rule(inst, [(1, 0), (0, 1)], [(1, 2, 3), (0, 0, 0)])

    def test_dependent_with_cancelling_legs(self):
        inst = generate_instance((2, 3), 41)
        assert verify_rule(inst, [(1, 2), (2, 4)], [(1, 1, 1), vscale(F(-1, 2), (1, 1, 1))])

    def test_random_sweep(self):
        inst = generate_instance((3, 3), 43)
        rng = Random(9)
        for _ in range(100):
            a_list = [vector([rng.randint(-4, 4) for _ in range(3)]) for _ in range(3)]
            b_list = [vector([rng.randint(-4, 4) for _ in range(3)]) for _ in range(3)]
            assert verify_rule(inst, a_list, b_list)


class TestSerialization:
    def test_round_trip(self):
        inst = generate_instance((3, 4), 55, pointed=True)
        payload = instance_payload(inst)
        again = instance_from_payload(payload)
        assert again.scramble == inst.scramble
        assert again.base_point == inst.base_point
        assert instance_payload(again) == payload

    def test_sampler_range_survives_reload(self):
        inst = generate_instance((2, 3), 12, pointed=True, sampler_range=3)
        again = instance_from_payload(instance_payload(inst))
        assert again.sampler_range == 3
        assert "sampler_range" not in instance_payload(generate_instance((2, 3), 12, pointed=True))

    def test_base_point_survives_reload(self):
        inst = generate_instance((2, 2), 10, pointed=True)
        again = instance_from_payload(instance_payload(inst))
        assert again.base_point == inst.base_point
        assert again.is_simple(again.base_point)

    def test_with_base_factors(self):
        inst = generate_instance((2, 3), 11)
        pointed = with_base_factors(inst, (1, 2), (3, 0, 1))
        assert pointed.base_point == inst.embed_simple((1, 2), (3, 0, 1))
        assert pointed.scramble == inst.scramble
