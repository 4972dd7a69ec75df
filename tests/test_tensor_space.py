import ast
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import untensor
from untensor import linalg
from untensor.errors import DimensionMismatch
from untensor.linalg import Matrix, Scaled, is_zero_vector, to_integers, vadd, vector, vscale
from untensor.reconstruct import recover_factors, verify_round_trip
from untensor.tensor_space import (
    FactorShape,
    build_instance,
    generate_instance,
    inject_quadric_fault,
    instance_from_payload,
    instance_payload,
    verify_rule,
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


class TestOracleForms:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_each_query_is_one_counted_gram_answer(self, data):
        """Every form query of a generated instance, or of a sign-faulted
        copy, against the Gram matrices of `quadrics`: its values, the
        denominator it holds (2 q^2 for minor_values, q_x q_y for a polar
        answer, with q that of the hidden coordinates) and exactly one
        counted call, with no sample."""
        shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        inst = generate_instance(shape, data.draw(st.integers(0, 10**6)))
        if inst.quadric_count and data.draw(st.booleans()):
            inst = inject_quadric_fault(inst, data.draw(st.integers(0, inst.quadric_count - 1)))
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)

        def point():
            """A vector as Fractions, and as the query is given it: the same
            Fractions or a `Scaled` over a multiple of their denominator."""
            if data.draw(st.booleans()):
                v = inst.sample_simple(Random(data.draw(st.integers(0, 10**6))))
            else:
                v = vector(data.draw(st.lists(entry, min_size=inst.dim, max_size=inst.dim)))
            k = data.draw(st.integers(0, 4))
            ints, den = to_integers(v)
            return v, v if k == 0 else Scaled([k * x for x in ints], k * den)

        def q(arg):
            return to_integers(arg).den * inst._inv_den

        def minor_answer(answer, v, arg):
            assert type(answer) is Scaled and answer.den == 2 * q(arg) ** 2
            return list(answer.fractions()) == [form.evaluate(v) for form in inst.quadrics]

        def polar_answer(answer, v, varg, w, warg):
            assert type(answer) is Scaled and answer.den == q(varg) * q(warg)
            return list(answer.fractions()) == [2 * form.polarize(v, w) for form in inst.quadrics]

        def one_call(query, *args):
            counts = (inst.stats.oracle_calls + 1, inst.stats.samples)
            answer = query(*args)
            assert (inst.stats.oracle_calls, inst.stats.samples) == counts
            return answer

        points = [point() for _ in range(3)]
        (x, xa), (y, ya) = points[:2]
        assert one_call(inst.is_simple, xa) == (not any(form.evaluate(x) for form in inst.quadrics))
        assert minor_answer(one_call(inst.minor_values, xa), x, xa)
        assert polar_answer(one_call(inst.polar2_values, xa, ya), x, xa, y, ya)
        assert one_call(inst.polar2_rows, xa).apply(y) == tuple(2 * form.polarize(x, y) for form in inst.quadrics)
        first, middle, last = one_call(inst.binary_restriction, xa, ya)
        assert minor_answer(first, x, xa) and polar_answer(middle, x, xa, y, ya) and minor_answer(last, y, ya)
        xs = points[: data.draw(st.integers(0, 3))]
        ys = xs if data.draw(st.booleans()) else points[data.draw(st.integers(0, 3)) :]
        x_args = [arg for _, arg in xs]
        table = one_call(inst.polar2_table, x_args, x_args if ys is xs else [arg for _, arg in ys])
        assert len(table) == len(xs) and all(len(row) == len(ys) for row in table)
        for (v, varg), row in zip(xs, table):
            for (w, warg), answer in zip(ys, row):
                assert polar_answer(answer, v, varg, w, warg)
        inst.stats.reset()
        assert (inst.stats.oracle_calls, inst.stats.samples) == (0, 0)


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

    def test_table_refuses_a_short_vector_before_counting(self, ident22):
        # a short vector anywhere in either list is refused before the batch counts
        short, full = (1, 0, 0), (0, 0, 0, 1)
        for xs, ys in [([full, short], [full]), ([full], [full, full, short]), ([short], [])]:
            with pytest.raises(DimensionMismatch):
                ident22.polar2_table(xs, ys)
        assert ident22.stats.oracle_calls == 0
        ident22.polar2_table([full] * 3, [full] * 4)
        assert ident22.stats.oracle_calls == 1

    @pytest.mark.parametrize("query", ["is_simple", "minor_values", "polar2_rows", "polar2_values", "binary_restriction"])
    def test_length_mismatch(self, ident22, query):
        # a short vector is refused in any position, never answered on a truncated zip
        short, full = (1, 0, 0), (0, 0, 0, 1)
        pairs = query in ("polar2_values", "binary_restriction")
        for args in [(short, full), (full, short)] if pairs else [(short,)]:
            with pytest.raises(DimensionMismatch):
                getattr(ident22, query)(*args)
        assert ident22.stats.oracle_calls == 0

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
        # every oracle method's one integer form against the Gram matrices of
        # `quadrics`, on an integer, a p/q and a sign-faulted scramble
        base = generate_instance((3, 2), 31).scramble
        rational = build_instance((3, 2), Matrix([[x / (i + 2) for x in row] for i, row in enumerate(base.rows)]))
        faulted = inject_quadric_fault(generate_instance((3, 3), 19), index=4)
        for inst in (generate_instance((3, 3), 19), rational, faulted):
            quadrics = inst.quadrics
            rng = Random(5)
            unit = vector([1] + [0] * (inst.shape.m - 1))
            on_cone = 0
            for i in range(30):
                if i % 3 == 0:
                    v = inst.sample_simple(rng)
                elif i % 3 == 1:
                    # one nonzero hidden row: every minor vanishes, faulted or not
                    v = inst.embed_simple(unit, [rng.randint(-4, 4) for _ in range(inst.shape.n)])
                else:
                    v = vector([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(inst.dim)])
                w = vector([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(inst.dim)])
                reference = [q.evaluate(v) for q in quadrics]
                assert list(inst.minor_values(v).fractions()) == reference
                assert inst.is_simple(v) == all(x == 0 for x in reference)
                on_cone += inst.is_simple(v)
                polar = inst.polar2_values(v, w)
                assert list(polar.fractions()) == [2 * q.polarize(v, w) for q in quadrics]
                assert inst.polar2_rows(v).apply(w) == polar.fractions()
                assert inst.binary_restriction(v, w) == (inst.minor_values(v), polar, inst.minor_values(w))
            assert 0 < on_cone < 30

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_answers_equal_gram_values(self, data):
        """The `Scaled` answers of minor_values, polar2_values and
        binary_restriction against the Gram matrices of `quadrics`: inputs in either form, determinants of either sign,
        p/q scrambles and sign-faulted minors."""
        shape = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
        rows = [list(row) for row in generate_instance(shape, data.draw(st.integers(0, 10**6))).scramble.rows]
        negative = data.draw(st.booleans())
        if (Matrix(rows).det() < 0) != negative:
            rows[0], rows[1] = rows[1], rows[0]
        if data.draw(st.booleans()):
            rows = [[x / (i + 2) for x in row] for i, row in enumerate(rows)]
        inst = build_instance(shape, Matrix(rows))
        if data.draw(st.booleans()):
            inst = inject_quadric_fault(inst, data.draw(st.integers(0, inst.quadric_count - 1)))
        assert (inst.scramble.det() < 0) == negative

        fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)

        def point():
            if data.draw(st.booleans()):
                return inst.sample_simple(Random(data.draw(st.integers(0, 10**6))))
            return vector(data.draw(st.lists(fractions, min_size=inst.dim, max_size=inst.dim)))

        def form(v):
            """v as Fractions, or as a Scaled over a multiple of its denominator."""
            if not data.draw(st.booleans()):
                return v
            ints, den = to_integers(v)
            k = data.draw(st.integers(1, 5))
            return Scaled([k * x for x in ints], k * den)

        def values(answer):
            assert type(answer) is Scaled and answer.den > 0 and len(answer.ints) == inst.quadric_count
            return list(answer.fractions())

        v, w = point(), point()
        q_v = [q.evaluate(v) for q in inst.quadrics]
        q_w = [q.evaluate(w) for q in inst.quadrics]
        polar = [2 * q.polarize(v, w) for q in inst.quadrics]
        assert values(inst.minor_values(form(v))) == q_v
        assert values(inst.polar2_values(form(v), form(w))) == polar
        assert [values(x) for x in inst.binary_restriction(form(v), form(w))] == [q_v, polar, q_w]
        assert inst.is_simple(form(v)) == (not any(q_v))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_table_entries_equal_pair_answers(self, data):
        """Entry [i][j] of polar2_table(xs, ys) holds the values of
        polar2_values(xs[i], ys[j]): vectors in either form, zero vectors,
        empty lists, and ys given as xs itself."""
        shape = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
        inst = generate_instance(shape, data.draw(st.integers(0, 10**6)))
        if data.draw(st.booleans()):
            inst = inject_quadric_fault(inst, data.draw(st.integers(0, inst.quadric_count - 1)))
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)

        def point():
            kind = data.draw(st.sampled_from(["sample", "fractions", "zero"]))
            if kind == "sample":
                v = inst.sample_simple(Random(data.draw(st.integers(0, 10**6))))
            elif kind == "fractions":
                v = vector(data.draw(st.lists(entry, min_size=inst.dim, max_size=inst.dim)))
            else:
                v = vector([0] * inst.dim)
            if data.draw(st.booleans()):
                ints, den = to_integers(v)
                k = data.draw(st.integers(1, 5))
                return Scaled([k * x for x in ints], k * den)
            return v

        xs = [point() for _ in range(data.draw(st.integers(0, 3)))]
        ys = xs if data.draw(st.booleans()) else [point() for _ in range(data.draw(st.integers(0, 3)))]
        table = inst.polar2_table(xs, ys)
        assert len(table) == len(xs) and all(len(row) == len(ys) for row in table)
        for x, row in zip(xs, table):
            for y, answer in zip(ys, row):
                assert type(answer) is Scaled and answer.den > 0
                assert answer.fractions() == inst.polar2_values(x, y).fractions()

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

    def test_pointed_load_eliminates_the_scramble_once(self, monkeypatch):
        payload = instance_payload(generate_instance((3, 3), 13, pointed=True))
        calls = []
        eliminate = linalg._eliminate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        again = instance_from_payload(payload)
        assert calls == [18]  # one pass over [scramble | I]
        assert instance_payload(again) == payload

    def test_loaded_scramble_stays_integer_through_recovery(self):
        inst = instance_from_payload(instance_payload(generate_instance((3, 3), 15, pointed=True)))
        assert verify_round_trip(inst, recover_factors(inst, Random(0))).success
        assert inst.scramble._rows is None

    def test_rejects_base_point_off_the_cone(self):
        payload = instance_payload(generate_instance((2, 3), 14, pointed=True))
        inst = instance_from_payload(payload)
        payload["base_point"] = [str(x) for x in vadd(inst.base_point, inst.embed_simple((1, 0), (0, 0, 1)))]
        with pytest.raises(ValueError, match="base_point is not a nonzero simple vector"):
            instance_from_payload(payload)
        payload["base_point"] = ["0"] * 6
        with pytest.raises(ValueError, match="base_point is not a nonzero simple vector"):
            instance_from_payload(payload)


class TestOracleBoundary:
    # The single-underscore names of a live pointed instance and of its class,
    # so a private attribute or helper added to the oracle is covered at once.
    _inst = generate_instance((2, 3), 1, pointed=True)
    PRIVATE = frozenset(
        name
        for name in [*vars(_inst), *vars(type(_inst))]
        if name.startswith("_") and not name.startswith("__")
    )

    def test_private_names_are_read_off_the_instance(self):
        assert {"_minors", "_inv_rows", "_inv_den", "_quadrics", "_forms", "_scaled_hidden", "_point_at"} <= self.PRIVATE
        assert not any(name.startswith("__") for name in self.PRIVATE)

    def test_private_oracle_names_stay_in_tensor_space(self):
        package = Path(untensor.__file__).parent
        modules = sorted(p for p in package.glob("*.py") if p.name != "tensor_space.py")
        assert len(modules) > 5
        reads = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr in self.PRIVATE:
                    reads.append(f"{path.name}:{node.lineno} uses {node.attr}")
        assert reads == []
