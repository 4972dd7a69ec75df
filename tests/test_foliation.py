from fractions import Fraction as F
from random import Random

import pytest

from untensor import foliation, linalg
from untensor.errors import (
    Degenerate,
    MalformedSheets,
    NotSimpleVector,
    RetryExhausted,
    TrivialShape,
    ZeroVector,
)
from untensor.foliation import (
    Sheet,
    _split_rays,
    cross_rays,
    same_foliation,
    same_sheet,
    sheets_through,
    subspace_in_S,
    tangent_intersection,
    tangent_space,
    transport,
)
from untensor.linalg import Matrix, Subspace, kernel, proportionality_ratio, vadd, vector, vscale
from untensor.reconstruct import recover_factors
from untensor.tensor_space import build_instance, generate_instance, inject_quadric_fault


@pytest.fixture
def ident22():
    return build_instance((2, 2))


def hidden_sheet(inst, *, beta=None, alpha=None):
    """Sheet built from behind the curtain, for comparison in tests."""
    m, n = inst.shape.m, inst.shape.n
    if beta is not None:
        members = [inst.embed_simple(row, beta) for row in Matrix.identity(m).rows]
    else:
        members = [inst.embed_simple(alpha, row) for row in Matrix.identity(n).rows]
    return Sheet(Subspace(members, inst.dim))


class TestSubspaceInS:
    def test_zero_subspace(self):
        inst = generate_instance((2, 3), 1)
        assert subspace_in_S(inst, Subspace((), 6))

    def test_span_of_two_generic_samples(self):
        inst = generate_instance((3, 3), 2)
        rng = Random(0)
        u, v = inst.sample_simple(rng), inst.sample_simple(rng)
        assert not subspace_in_S(inst, Subspace([u, v], 9))

    def test_hidden_sheet_passes(self):
        inst = generate_instance((3, 4), 3)
        assert subspace_in_S(inst, hidden_sheet(inst, beta=(1, -2, 0, 5)).subspace)


class TestTangentSpace:
    def test_single_minor_by_hand(self, ident22):
        t = tangent_space(ident22, (1, 0, 0, 0))
        assert t == Subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
        assert t.dim == 3

    @pytest.mark.parametrize("shape,expected", [((4, 3), 6), ((2, 6), 7)])
    def test_distinguishes_equal_ambient_dimensions(self, shape, expected):
        inst = generate_instance(shape, 4)
        rng = Random(1)
        for _ in range(5):
            assert tangent_space(inst, inst.sample_simple(rng)).dim == expected

    def test_dimension_law_random_shapes(self):
        rng = Random(2)
        for m, n in [(2, 2), (3, 2), (3, 3), (1, 4), (5, 1)]:
            inst = generate_instance((m, n), 5)
            for _ in range(3):
                assert tangent_space(inst, inst.sample_simple(rng)).dim == m + n - 1

    def test_dimension_law_thousand_trials(self):
        # 40 points on each shape up to 5x5: 1000 trials in all
        rng = Random(6)
        for m in range(1, 6):
            for n in range(1, 6):
                inst = generate_instance((m, n), 6)
                for _ in range(40):
                    v = inst.sample_simple(rng)
                    assert tangent_space(inst, v).dim == m + n - 1

    def test_rejects_zero_and_nonsimple(self, ident22):
        with pytest.raises(ZeroVector):
            tangent_space(ident22, (0, 0, 0, 0))
        with pytest.raises(NotSimpleVector):
            tangent_space(ident22, (1, 0, 0, 1))

    def test_trivial_shape_is_the_whole_space(self):
        inst = generate_instance((1, 4), 3)
        assert tangent_space(inst, inst.sample_simple(Random(0))) == Subspace.full(4)


def stacked_meet(inst, v, s):
    """T(v) ∩ T(s) as one kernel of both polar row sets stacked."""
    return kernel(Matrix(inst.polar2_rows(v).rows + inst.polar2_rows(s).rows, inst.dim))


class TestTangentIntersection:
    def test_meet_of_the_anchor_tangent_space(self):
        inst = generate_instance((3, 4), 8)
        rng = Random(4)
        v, s = inst.sample_simple(rng), inst.sample_simple(rng)
        anchor = tangent_space(inst, v)
        assert anchor == kernel(inst.polar2_rows(v))
        assert anchor.dim == 3 + 4 - 1
        meet = tangent_intersection(inst, v, s)
        assert meet == kernel(inst.polar2_rows(v)).intersect(kernel(inst.polar2_rows(s)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4)])
    def test_form_meet_equals_the_row_meet(self, shape):
        # T(v) ∩ T(s) through the form (2B(s, k) on the basis k of T(v)) against the row route,
        # for random simple pairs, partners on either sheet through v, and the ray of v.
        inst = generate_instance(shape, 40)
        rng = Random(41)
        m, n = shape

        def draw(length):
            while True:
                x = [rng.randint(-5, 5) for _ in range(length)]
                if any(x):
                    return x

        for _ in range(3):
            alpha, beta = draw(m), draw(n)
            v = inst.embed_simple(alpha, beta)
            anchor = tangent_space(inst, v)
            basis = anchor.basis.scaled_rows()
            partners = [inst.sample_simple(rng), inst.embed_simple(draw(m), beta), inst.embed_simple(alpha, draw(n))]
            for s in partners + [vscale(F(5, 3), v)]:
                meet = anchor.meet_values(inst.polar2_table([s], basis)[0])
                assert meet == tangent_intersection(inst, v, s)
                assert meet.basis == Subspace(meet.basis.rows, inst.dim).basis

    def test_only_the_anchor_is_eliminated_in_full(self, monkeypatch):
        inst = generate_instance((3, 3), 9)
        rng = Random(5)
        v, s = inst.sample_simple(rng), inst.sample_simple(rng)
        dim = tangent_space(inst, v).dim
        queries, eliminated = [], []

        def recording(name, method):
            def call(*args):
                queries.append((name, *args))
                return method(*args)

            return call

        for name in ("is_simple", "polar2_rows", "minor_values", "polar2_values", "binary_restriction"):
            monkeypatch.setattr(inst, name, recording(name, getattr(inst, name)))
        eliminate, null_vectors = linalg._eliminate, linalg.null_vectors
        systems = []

        def counted(rows, ncols, **kwargs):
            eliminated.append(ncols)
            return eliminate(rows, ncols, **kwargs)

        def reading(rows, ncols):
            rows, read = list(rows), []

            def reader():
                for row in rows:
                    read.append(row)
                    yield row

            null = null_vectors(reader(), ncols)
            systems.append((len(rows), ncols, len(read), len(null)))
            return null

        monkeypatch.setattr(linalg, "_eliminate", counted)
        monkeypatch.setattr(linalg, "null_vectors", reading)
        calls = inst.stats.oracle_calls
        meet = tangent_intersection(inst, v, s)
        # Both points are checked and their polar rows read.  The 9 rows of v are read in full,
        # with 9 columns, and leave the 5 null vectors of T(v); those of s only in the restricted
        # system, one column per basis vector of T(v), whose 9 rows leave 2 null vectors.  Every
        # row is read, as null vectors are left, and nothing goes through `_eliminate`.
        assert queries == [("is_simple", v), ("polar2_rows", v), ("is_simple", s), ("polar2_rows", s)]
        assert inst.stats.oracle_calls == calls + 4
        assert eliminated == []
        assert systems == [(9, inst.dim, 9, dim), (9, dim, 9, 2)]
        assert meet == kernel(inst.polar2_rows(v)).intersect(kernel(inst.polar2_rows(s)))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)])
    def test_restricted_meet_equals_stacked_kernels(self, shape):
        inst = generate_instance(shape, 30)
        rng = Random(31)
        m, n = shape

        def draw(length):
            while True:
                x = [rng.randint(-5, 5) for _ in range(length)]
                if any(x):
                    return x

        alpha, beta = draw(m), draw(n)
        v = inst.embed_simple(alpha, beta)
        partners = [inst.sample_simple(rng) for _ in range(3)]
        # on the sheet through v of each foliation, and on the ray of v
        partners += [inst.embed_simple(draw(m), beta), inst.embed_simple(alpha, draw(n)), vscale(F(-3, 2), v)]
        for s in partners:
            assert tangent_intersection(inst, v, s) == stacked_meet(inst, v, s)
        assert tangent_intersection(inst, v, vscale(7, v)) == tangent_space(inst, v)

    def test_rejects_zero_and_nonsimple_partner(self, ident22):
        with pytest.raises(ZeroVector):
            tangent_intersection(ident22, (1, 0, 0, 0), (0, 0, 0, 0))
        with pytest.raises(NotSimpleVector):
            tangent_intersection(ident22, (1, 0, 0, 0), (1, 0, 0, 1))


class TestCrossRays:
    def test_hand_example(self, ident22):
        g1, g2 = cross_rays(ident22, (1, 0, 0, 0), (0, 0, 0, 1))
        assert g1 == (F(0), F(0), F(1), F(0))
        assert g2 == (F(0), F(1), F(0), F(0))

    def test_proportional_inputs_degenerate(self, ident22):
        with pytest.raises(Degenerate):
            cross_rays(ident22, (1, 0, 0, 0), (2, 0, 0, 0))

    def test_same_sheet_inputs_degenerate(self, ident22):
        # both in the row sheet through e1: intersection plane lies inside S
        with pytest.raises(Degenerate):
            cross_rays(ident22, (1, 0, 0, 0), (1, 1, 0, 0))

    def test_rays_are_simple_and_adjacent(self):
        inst = generate_instance((3, 4), 6)
        rng = Random(3)
        checked = 0
        while checked < 10:
            v, s = inst.sample_simple(rng), inst.sample_simple(rng)
            try:
                rays = cross_rays(inst, v, s)
            except Degenerate:
                continue
            checked += 1
            for g in rays:
                assert inst.is_simple(g)
                assert inst.is_simple(vadd(v, g))


class TestSameSheet:
    def test_shared_hidden_leg(self):
        inst = generate_instance((3, 3), 7)
        x = inst.embed_simple((1, 2, 0), (1, 1, 1))
        y = inst.embed_simple((0, 1, 5), (1, 1, 1))
        assert same_sheet(inst, x, y)

    def test_crossed_legs(self):
        inst = generate_instance((3, 3), 7)
        x = inst.embed_simple((1, 2, 0), (1, 1, 1))
        y = inst.embed_simple((1, 1, 1), (2, 0, 1))
        assert not same_sheet(inst, x, y)

    def test_negation(self):
        inst = generate_instance((3, 3), 7)
        x = inst.embed_simple((1, 2, 0), (1, 1, 1))
        assert same_sheet(inst, x, vscale(-1, x))


def no_samples(rng):
    raise AssertionError("sheet discovery drew a sample")


def first_candidate_rays(inst, v):
    """The rays that the first candidate t = K·(1, 1, …, 1) of T(v) splits into."""
    anchor = tangent_space(inst, v)
    t = tuple(sum(column) for column in zip(*anchor.basis.rows))
    meet = anchor.meet_kernel(inst.polar2_rows(t))
    assert meet.dim == 2
    (u, *_) = [r for r in meet.basis.rows if proportionality_ratio(v, r) is None]
    return _split_rays(inst, t, u)


class TestSheetsThrough:
    def test_hand_example(self, ident22):
        pair = sheets_through(ident22, (1, 0, 0, 0))
        row_sheet = Subspace([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
        col_sheet = Subspace([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
        assert pair.first.subspace == row_sheet
        assert pair.second.subspace == col_sheet

    def test_matches_hidden_sheets(self):
        for shape, alpha, beta in [
            ((4, 3), (1, 0, 2, -1), (2, 1, 1)),
            ((2, 5), (3, -1), (1, 0, 2, -1, 1)),
            ((5, 2), (0, 1, 1, -2, 3), (2, -1)),
            ((4, 4), (1, 2, 0, -1), (0, 3, 1, 1)),
        ]:
            inst = generate_instance(shape, 8)
            w0 = inst.embed_simple(alpha, beta)
            pair = sheets_through(inst, w0)
            expected = {
                hidden_sheet(inst, beta=beta).subspace,
                hidden_sheet(inst, alpha=alpha).subspace,
            }
            assert set(pair.subspaces()) == expected, shape
            assert pair.dims == tuple(sorted(shape, reverse=True)), shape

    def test_seed_independent_result(self):
        # A pointed recovery never samples, so its rng does not matter.
        inst = generate_instance((3, 3), 9, pointed=True)
        inst.sample_simple = no_samples
        a = recover_factors(inst, Random(10))
        b = recover_factors(inst, Random(999))
        assert a.pair == b.pair == sheets_through(inst, inst.base_point)
        assert inst.stats.samples == 0

    def test_intersection_is_base_ray(self):
        inst = generate_instance((3, 4), 12)
        w0 = inst.sample_simple(Random(4))
        pair = sheets_through(inst, w0)
        meet = pair.first.subspace.intersect(pair.second.subspace)
        assert meet == Subspace([w0], inst.dim)

    def test_trivial_shape_rejected(self):
        inst = generate_instance((1, 4), 13)
        with pytest.raises(TrivialShape):
            sheets_through(inst, inst.sample_simple(Random(0)))

    def test_budget_exhaustion(self):
        # The budget is the D + 2 fixed candidates.  With one minor's sign
        # flipped the cone is no longer a Segre cone, though it still accepts
        # this base point, and every candidate is refused.
        inst = inject_quadric_fault(generate_instance((3, 3), 5), 0)
        w0 = inst.embed_simple((1, 0, 0), (1, 2, 3))
        assert inst.is_simple(w0)
        inst.sample_simple = no_samples
        with pytest.raises(RetryExhausted):
            sheets_through(inst, w0)
        assert inst.stats.samples == 0

    def test_base_point_candidate_is_skipped(self, ident22):
        # w0 = (1,1)⊗(1,1); the echelon basis of T(w0) sums to w0 itself.
        w0 = (1, 1, 1, 1)
        anchor = tangent_space(ident22, w0)
        assert anchor.meet_kernel(ident22.polar2_rows(w0)) == anchor
        fetched, tables = [], []
        polar2_rows, polar2_table = ident22.polar2_rows, ident22.polar2_table

        def recording_rows(v):
            fetched.append(linalg.to_integers(v).fractions())
            return polar2_rows(v)

        def recording_table(xs, ys):
            tables.append([linalg.to_integers(x).fractions() for x in xs])
            return polar2_table(xs, ys)

        ident22.polar2_rows = recording_rows
        ident22.polar2_table = recording_table
        pair = sheets_through(ident22, w0)
        # T(w0) from its polar rows; then through the form: candidate 1 = w0, whose meet is all
        # of T(w0), candidate 2, its two rays, and one certification table per sheet.
        assert fetched == [w0]
        assert tables[:2] == [[w0], [(1, 2, 4, 5)]] and [len(xs) for xs in tables[2:]] == [2, 2, 2]
        expected = {
            hidden_sheet(ident22, beta=(1, 1)).subspace,
            hidden_sheet(ident22, alpha=(1, 1)).subspace,
        }
        assert set(pair.subspaces()) == expected

    def test_pointed_recovery_checks_w0_once_and_restricts_the_rays(self, monkeypatch):
        inst = generate_instance((3, 3), 9, pointed=True)
        w0 = inst.base_point
        anchor = tangent_space(inst, w0).basis.scaled_rows()
        asked, fetched, full, tables, restricted = [], [], [], [], []
        is_simple, polar2_rows, polar2_table = inst.is_simple, inst.polar2_rows, inst.polar2_table
        meet_values = Subspace.meet_values

        def recording_is_simple(v):
            asked.append(tuple(v))
            return is_simple(v)

        def recording_rows(v):
            fetched.append(linalg.to_integers(v).fractions())
            return polar2_rows(v)

        def recording_kernel(m):
            full.append(fetched[-1])
            return kernel(m)

        def recording_table(xs, ys):
            tables.append(([linalg.to_integers(x).fractions() for x in xs], ys))
            return polar2_table(xs, ys)

        def recording_meet(sub, values):
            restricted.append(sub.dim)
            return meet_values(sub, values)

        monkeypatch.setattr(inst, "is_simple", recording_is_simple)
        monkeypatch.setattr(inst, "polar2_rows", recording_rows)
        monkeypatch.setattr(inst, "polar2_table", recording_table)
        monkeypatch.setattr(foliation, "kernel", recording_kernel)
        monkeypatch.setattr(Subspace, "meet_values", recording_meet)
        recon = recover_factors(inst, Random(0))
        # is_simple is asked once, about w0 and never about a ray; polar2_rows(w0) is the only
        # fetch of polar rows and the only full elimination.  Every other point, the two rays
        # included, is met with T(w0) through the form on its basis; then each sheet is
        # certified by one table of its basis against itself.
        assert asked == [w0]
        assert fetched == [w0] and full == [w0]
        meets = [xs for xs, ys in tables if ys == anchor]
        certified = [ys for xs, ys in tables if ys != anchor]
        assert len(restricted) == sum(map(len, meets)) and set(restricted) == {3 + 3 - 1}
        assert {Subspace(ys, inst.dim) for ys in certified} == set(recon.pair.subspaces())
        for sheet in (recon.sheet_w1, recon.sheet_w2):
            (g,) = [g for g in meets[-1] if sheet.contains(g)]
            assert sheet.subspace == tangent_intersection(inst, w0, g)

    @pytest.mark.parametrize("shape, seed", [((3, 3), 21), ((3, 4), 22), ((4, 4), 23)])
    def test_one_candidate_gives_two_tangent_intersections(self, shape, seed):
        inst = generate_instance(shape, seed, pointed=True)
        v = inst.base_point
        inst.sample_simple = no_samples
        pair = sheets_through(inst, v)
        rays = first_candidate_rays(inst, v)
        for sheet in (pair.first, pair.second):
            (g,) = [g for g in rays if sheet.contains(g)]
            assert sheet.subspace == tangent_intersection(inst, v, g)


class TestSameFoliation:
    def test_equal_sheets(self):
        inst = generate_instance((3, 3), 14)
        sheet = hidden_sheet(inst, beta=(1, 2, 3))
        assert same_foliation(inst, sheet, sheet)

    def test_pair_members_cross(self):
        inst = generate_instance((3, 3), 14)
        w0 = inst.embed_simple((1, 0, 1), (2, 1, 0))
        pair = sheets_through(inst, w0)
        assert not same_foliation(inst, pair.first, pair.second)

    def test_disjoint_same_family(self):
        inst = generate_instance((3, 3), 14)
        a = hidden_sheet(inst, beta=(1, 2, 3))
        b = hidden_sheet(inst, beta=(0, 1, 1))
        assert same_foliation(inst, a, b)

    def test_malformed_overlap(self):
        inst = generate_instance((2, 2), 15)
        fat = Sheet(Subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4))
        other = Sheet(Subspace([(1, 0, 0, 0), (0, 1, 0, 0)], 4))
        with pytest.raises(MalformedSheets):
            same_foliation(inst, fat, other)


class TestTransport:
    @pytest.fixture
    def setting(self):
        inst = generate_instance((4, 3), 16)
        beta0, beta1 = (1, 0, 2), (0, 1, 1)
        alpha0 = (1, 2, 0, 1)
        m = hidden_sheet(inst, beta=beta0)
        m_prime = hidden_sheet(inst, beta=beta1)
        v0 = inst.embed_simple(alpha0, beta0)
        v0p = inst.embed_simple(alpha0, beta1)
        return inst, m, m_prime, v0, v0p, beta0, beta1

    def test_reference_maps_to_reference(self, setting):
        inst, m, mp, v0, v0p, *_ = setting
        assert transport(inst, m, mp, v0, v0p, v0) == v0p

    def test_scaling(self, setting):
        inst, m, mp, v0, v0p, *_ = setting
        assert transport(inst, m, mp, v0, v0p, vscale(3, v0)) == vscale(3, v0p)

    def test_hidden_form(self, setting):
        inst, m, mp, v0, v0p, beta0, beta1 = setting
        a = (0, 1, -1, 2)
        got = transport(inst, m, mp, v0, v0p, inst.embed_simple(a, beta0))
        assert got == inst.embed_simple(a, beta1)

    def test_linearity(self, setting):
        inst, m, mp, v0, v0p, beta0, _ = setting
        rng = Random(5)
        for _ in range(5):
            x = inst.embed_simple([rng.randint(-4, 4) for _ in range(4)], beta0)
            y = inst.embed_simple([rng.randint(-4, 4) for _ in range(4)], beta0)
            fx = transport(inst, m, mp, v0, v0p, x)
            fy = transport(inst, m, mp, v0, v0p, y)
            assert transport(inst, m, mp, v0, v0p, vadd(x, y)) == vadd(fx, fy)
            lam = F(rng.randint(1, 5), rng.randint(1, 5))
            assert transport(inst, m, mp, v0, v0p, vscale(lam, x)) == vscale(lam, fx)

    def test_composition_with_matched_references(self, setting):
        inst, m, mp, v0, v0p, beta0, beta1 = setting
        beta2 = (1, 1, 0)
        mpp = hidden_sheet(inst, beta=beta2)
        v0pp = inst.embed_simple((1, 2, 0, 1), beta2)
        v = inst.embed_simple((2, -1, 3, 0), beta0)
        step = transport(inst, mp, mpp, v0p, v0pp, transport(inst, m, mp, v0, v0p, v))
        direct = transport(inst, m, mpp, v0, v0pp, v)
        assert step == direct
