from fractions import Fraction as F
from random import Random

import pytest

from untensor import linalg, squares
from untensor.errors import Degenerate, InconsistentSquare, PreconditionViolated
from untensor.linalg import Scaled, Subspace, proportionality_ratio, vadd, vscale
from untensor.squares import Completion, Square, complete_square, complete_square_details, is_square
from untensor.tensor_space import build_instance, generate_instance


@pytest.fixture
def ident22():
    return build_instance((2, 2))


E11, E12, E21, E22 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


class TestIsSquare:
    def test_constant_square(self):
        inst = generate_instance((3, 3), 1)
        v = inst.sample_simple(Random(0))
        assert is_square(inst, Square.of(v, v, v, v))

    def test_unit_square(self, ident22):
        assert is_square(ident22, Square.of(E11, E12, E21, E22))

    def test_scaled_corner_fails(self, ident22):
        assert not is_square(ident22, Square.of(E11, E12, E21, vscale(2, E22)))

    def test_nonsimple_corner_fails(self, ident22):
        assert not is_square(ident22, Square.of(E11, E12, E21, (1, 0, 0, 1)))

    def test_all_zero(self, ident22):
        z = (0, 0, 0, 0)
        assert is_square(ident22, Square.of(z, z, z, z))

    def test_zero_row(self, ident22):
        z = (0, 0, 0, 0)
        assert is_square(ident22, Square.of(E11, E12, z, z))
        assert not is_square(ident22, Square.of(E11, E12, z, E22))

    def test_single_sheet_spread_is_not_a_square(self):
        # four generic vectors of one sheet pass every pairwise sum test but
        # fail the cross conditions
        inst = generate_instance((3, 3), 2)
        beta = (1, 2, 1)
        a = inst.embed_simple((1, 0, 0), beta)
        b = inst.embed_simple((0, 1, 0), beta)
        c = inst.embed_simple((0, 0, 1), beta)
        d = inst.embed_simple((1, 1, 1), beta)
        assert not is_square(inst, Square.of(a, b, c, d))


class TestCompleteSquare:
    def test_doubly_proportional(self):
        inst = generate_instance((3, 3), 3)
        v = inst.sample_simple(Random(1))
        assert complete_square(inst, v, v, v) == v

    def test_unit_completion(self, ident22):
        details = complete_square_details(ident22, E11, E12, E21)
        assert details.d == (F(0), F(0), F(0), F(1))
        assert details.case == "generic"
        assert details.scale == 1
        # plain int corners: the scale 1/3 is exact, not a rounded float
        assert complete_square(ident22, (3, 0, 0, 0), E11, E21) == (0, 0, F(1, 3), 0)
        assert is_square(ident22, Square.of((3, 0, 0, 0), E11, E21, (0, 0, F(1, 3), 0)))

    def test_generic_completion_asks_about_each_corner_once(self, ident22, monkeypatch):
        asked, tables = [], []
        is_simple, polar2_table = ident22.is_simple, ident22.polar2_table

        def recording_is_simple(v):
            asked.append(tuple(v))
            return is_simple(v)

        def recording_table(xs, ys):
            tables.append(([linalg.to_integers(x).fractions() for x in xs], ys is xs))
            return polar2_table(xs, ys)

        monkeypatch.setattr(ident22, "is_simple", recording_is_simple)
        monkeypatch.setattr(ident22, "polar2_table", recording_table)
        calls = ident22.stats.oracle_calls
        assert complete_square_details(ident22, E11, E12, E21).case == "generic"
        # One table of the corners against themselves decides their simplicity and the
        # sheets they share; then c against the basis of T(b).  Nothing asks is_simple.
        assert asked == []
        assert tables[0] == ([E11, E12, E21], True) and tables[1][0] == [E21] and len(tables) == 2
        # The corner table, one polar2_rows, the table of c, one binary_restriction,
        # one minor_values, one polar2_values.
        assert ident22.stats.oracle_calls == calls + 6

    def test_row_and_column_cases(self):
        inst = generate_instance((3, 4), 4)
        a = inst.embed_simple((1, 0, 2), (1, 1, 0, 1))
        b = inst.embed_simple((1, 0, 2), (0, 2, 1, 1))
        c = inst.embed_simple((2, 1, 0), (1, 1, 0, 1))
        lam, mu = F(3, 2), F(-5)
        assert complete_square(inst, a, vscale(mu, a), c) == vscale(mu, c)
        assert complete_square(inst, a, b, vscale(lam, a)) == vscale(lam, b)
        assert complete_square(inst, a, vscale(mu, a), vscale(lam, a)) == vscale(lam * mu, a)

    def test_matches_hidden_product(self):
        rng = Random(5)
        for shape in [(2, 2), (3, 3), (4, 3)]:
            inst = generate_instance(shape, 6)
            m, n = shape
            for _ in range(10):
                alpha0 = tuple(rng.randint(-5, 5) for _ in range(m))
                beta0 = tuple(rng.randint(-5, 5) for _ in range(n))
                alpha = tuple(rng.randint(-5, 5) for _ in range(m))
                beta = tuple(rng.randint(-5, 5) for _ in range(n))
                try:
                    d = complete_square(
                        inst,
                        inst.embed_simple(alpha0, beta0),
                        inst.embed_simple(alpha0, beta),
                        inst.embed_simple(alpha, beta0),
                    )
                except PreconditionViolated:
                    continue  # degenerate draw (zero or proportional factors)
                assert d == inst.embed_simple(alpha, beta)

    def test_unique_scale_by_brute_force(self, ident22):
        # parameterize the candidate ray and scan scales: only the solved one
        # keeps the total sum on the cone
        a, b, c = E11, E12, E21
        details = complete_square_details(ident22, a, b, c)
        u = (0, 0, 0, 1)
        solutions = []
        for t in sorted({F(t) for t in range(-3, 4)} | {details.scale}):
            total = vadd(vadd(vadd(a, b), c), vscale(t, u))
            if ident22.is_simple(total):
                solutions.append(t)
        assert solutions == [details.scale]

    def test_rejects_zero_corner(self, ident22):
        with pytest.raises(PreconditionViolated):
            complete_square(ident22, E11, (0, 0, 0, 0), E21)

    @pytest.mark.parametrize(
        "corners, message",
        [
            ((E11, (0, 0, 0, 0), E21), "corners must be nonzero"),
            ((E11, (0, 0, 0, 0), (1, 0, 0)), "corners must be nonzero"),  # b is checked before c
            (((1, 0, 0, 1), (0, 0, 0, 0), E21), "corners must be simple"),  # a is checked before b
            ((E11, (1, 0, 0), E21), "corner has the wrong ambient length"),
            ((E11, E12, (1, 0, 0, 1)), "corners must be simple"),
            ((E11, (2, 0, 0, 0), E22), "a and c do not share a sheet"),
            ((E11, E22, (3, 0, 0, 0)), "a and b do not share a sheet"),
            ((E11, E22, E21), "a must share a sheet with b and with c"),
            ((E11, E12, (1, 1, 0, 0)), "b and c lie across the square and must not share a sheet"),
        ],
    )
    def test_corner_checks_in_order(self, ident22, corners, message):
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            complete_square_details(ident22, *corners)

    def test_rejects_cross_sheet_pair(self, ident22):
        # b and c share a sheet here, so the corners cannot brace a square
        with pytest.raises(PreconditionViolated):
            complete_square(ident22, E11, E12, (0, 1, 1, 0))

    def test_row_additivity(self):
        inst = generate_instance((3, 3), 7)
        beta0, beta = (1, 0, 2), (0, 1, 1)
        alpha0, alpha, alpha_p = (1, 1, 0), (0, 2, 1), (1, 0, 1)
        c = inst.embed_simple(alpha, beta0)
        d = inst.embed_simple(alpha, beta)
        rows = []
        for al in (alpha0, alpha_p):
            rows.append((inst.embed_simple(al, beta0), inst.embed_simple(al, beta)))
        (a1, b1), (a2, b2) = rows
        assert is_square(inst, Square.of(a1, b1, c, d))
        assert is_square(inst, Square.of(a2, b2, c, d))
        assert is_square(inst, Square.of(vadd(a1, a2), vadd(b1, b2), c, d))


def _independent_pair(rng, length):
    while True:
        u = tuple(rng.randint(-5, 5) for _ in range(length))
        w = tuple(rng.randint(-5, 5) for _ in range(length))
        if any(u) and proportionality_ratio(u, w) is None:
            return u, w


class TestGenericCompletion:
    @pytest.mark.parametrize("shape,seed", [((3, 3), 11), ((4, 3), 12)])
    def test_scale_is_measured_against_the_canonical_generator(self, shape, seed):
        # d = t * u with u's first nonzero coordinate 1, so t is that coordinate of d
        inst = generate_instance(shape, seed)
        rng = Random(seed)
        for _ in range(5):
            alpha0, alpha = _independent_pair(rng, shape[0])
            beta0, beta = _independent_pair(rng, shape[1])
            details = complete_square_details(
                inst,
                inst.embed_simple(alpha0, beta0),
                inst.embed_simple(alpha0, beta),
                inst.embed_simple(alpha, beta0),
            )
            assert details.case == "generic"
            assert details.d == inst.embed_simple(alpha, beta)
            assert details.scale == next(x for x in details.d if x != 0)

    def test_generic_4x4_plane_work(self, monkeypatch):
        # The plane T(b) ∩ T(c) in square blocks: the 36x16 polar rows of b
        # as a 16-row block and its 4 nonzero restricted rows, then the 36x7
        # form values of c on T(b) as blocks of 7 and 3 rows; the rows left
        # after those all restrict to zero, so no empty block is eliminated.
        # No elimination has more rows than columns.
        inst = generate_instance((4, 4), 3)
        alpha0, alpha, beta0, beta = (1, 2, 0, -1), (3, -1, 1, 0), (2, 0, 1, 1), (0, 1, -1, 3)
        eliminated = []
        eliminate = linalg._eliminate

        def counted(rows, ncols, **kwargs):
            eliminated.append((len(rows), ncols))
            return eliminate(rows, ncols, **kwargs)

        monkeypatch.setattr(linalg, "_eliminate", counted)
        details = complete_square_details(
            inst, inst.embed_simple(alpha0, beta0), inst.embed_simple(alpha0, beta), inst.embed_simple(alpha, beta0)
        )
        assert eliminated == [(16, 16), (4, 8), (7, 7), (3, 3)]
        assert details == Completion(inst.embed_simple(alpha, beta), "generic", F(-38))


class TestGenericFailures:
    """Each exact check of the generic path raises its own class."""

    @pytest.fixture
    def corners(self):
        return build_instance((2, 2)), E11, E12, E21

    def test_plane_of_wrong_dimension(self, corners, monkeypatch):
        inst, a, b, c = corners
        monkeypatch.setattr(squares, "_corner_plane", lambda *args: Subspace([a, b, c], 4))
        with pytest.raises(Degenerate):
            complete_square_details(inst, a, b, c)

    def test_plane_missing_a(self, corners, monkeypatch):
        inst, a, b, c = corners
        monkeypatch.setattr(squares, "_corner_plane", lambda *args: Subspace([b, c], 4))
        with pytest.raises(PreconditionViolated):
            complete_square_details(inst, a, b, c)

    @pytest.mark.parametrize(
        "forms",
        [
            ((0, 1, 2), (0, 1, 3)),  # quadrics disagree on the second root
            ((0, 0, 0),),  # every quadric vanishes on the plane
            ((0, 0, 0), (0, 0, 5)),  # double root at a
        ],
    )
    def test_root_step_degenerate(self, corners, monkeypatch, forms):
        inst, a, b, c = corners
        # The three answers (A, B2, C), each over all quadrics.
        monkeypatch.setattr(inst, "binary_restriction", lambda *args: tuple(Scaled(list(x), 1) for x in zip(*forms)))
        with pytest.raises(Degenerate):
            complete_square_details(inst, a, b, c)

    @pytest.mark.parametrize(
        "constants,slopes,error",
        [
            ((1, 1), (1, 2), InconsistentSquare),  # quadrics disagree on the scale
            ((1,), (0,), InconsistentSquare),  # a quadric forbids every scale
            ((0,), (0,), Degenerate),  # no quadric pins the scale
        ],
    )
    def test_scale_step(self, corners, monkeypatch, constants, slopes, error):
        inst, a, b, c = corners
        monkeypatch.setattr(inst, "minor_values", lambda v: Scaled(list(constants), 1))
        monkeypatch.setattr(inst, "polar2_values", lambda x, y: Scaled(list(slopes), 1))
        with pytest.raises(error):
            complete_square_details(inst, a, b, c)
