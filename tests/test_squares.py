from fractions import Fraction as F
from random import Random

import pytest

from untensor import linalg, squares
from untensor.errors import Degenerate, InconsistentSquare, PreconditionViolated
from untensor.foliation import same_sheet, tangent_intersection
from untensor.linalg import (
    Matrix,
    Scaled,
    Subspace,
    is_zero_vector,
    kernel,
    proportionality_ratio,
    to_integers,
    vadd,
    vector,
    vscale,
)
from untensor.squares import Completion, Square, complete_square, complete_square_details, is_square
from untensor.tensor_space import build_instance, generate_instance, inject_quadric_fault


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


def _is_square_by_pairs(inst, sq):
    """The square conditions by their definition: is_simple per corner, with
    each corner's length checked before it is asked, same_sheet per pair
    and is_simple of the total, on the square turned so that a is nonzero."""
    for corner in (sq.a, sq.b, sq.c, sq.d):
        if len(corner) != inst.dim:
            raise PreconditionViolated("corner has the wrong ambient length")
        if not inst.is_simple(corner):
            return False
    turns = [(sq.a, sq.b, sq.c, sq.d), (sq.c, sq.d, sq.a, sq.b), (sq.b, sq.a, sq.d, sq.c), (sq.d, sq.c, sq.b, sq.a)]
    turned = next((t for t in turns if not is_zero_vector(t[0])), None)
    if turned is None:
        return True
    a, b, c, d = turned
    mu, lam = proportionality_ratio(a, b), proportionality_ratio(a, c)
    if mu is not None and lam is not None:
        return d == vscale(lam * mu, a)
    if mu is not None:
        return d == vscale(mu, c) and same_sheet(inst, a, c)
    if lam is not None:
        return d == vscale(lam, b) and same_sheet(inst, a, b)
    if is_zero_vector(d):
        return False
    return (
        same_sheet(inst, a, b)
        and same_sheet(inst, a, c)
        and same_sheet(inst, b, d)
        and same_sheet(inst, c, d)
        and not same_sheet(inst, a, d)
        and not same_sheet(inst, b, c)
        and inst.is_simple(vadd(vadd(a, b), vadd(c, d)))
    )


def _candidate_squares(inst, rng):
    """Valid squares of every case, and squares that break them: perturbed,
    with zero, non-simple or short corners in each place."""
    m, n = inst.shape.m, inst.shape.n
    alpha0, alpha = (tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(2))
    beta0, beta = (tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2))
    hidden = ((alpha0, beta0), (alpha0, beta), (alpha, beta0), (alpha, beta))
    a, b, c, d = (inst.embed_simple(x, y) for x, y in hidden)
    lam, mu = F(rng.randint(-5, 5), rng.randint(1, 3)), F(rng.randint(-5, 5), rng.randint(1, 3))
    zero = vector([0] * inst.dim)
    valid = (a, b, c, d)
    yield valid
    yield a, c, b, d
    yield a, vscale(mu, a), c, vscale(mu, c)
    yield a, b, vscale(lam, a), vscale(lam, b)
    yield a, vscale(mu, a), vscale(lam, a), vscale(lam * mu, a)
    yield a, vscale(mu, a), c, vscale(lam, c)
    yield a, b, c, vscale(2, d)
    yield a, d, c, b
    yield a, b, c, vadd(d, a)
    yield vscale(lam, a), vscale(lam, b), c, d
    for place in range(4):
        for bad in (zero, vadd(a, d), vadd(b, c), valid[place][:-1]):
            yield tuple(bad if i == place else x for i, x in enumerate(valid))
        yield tuple(vadd(a, d) if i < place else valid[i][:-1] if i == place else x for i, x in enumerate(valid))
    for mask in range(1, 16):
        yield tuple(zero if mask >> i & 1 else x for i, x in enumerate(valid))


class TestIsSquareByPairs:
    # A faulty copy flips the sign of one minor; the 1x3 shape has none to flip.
    CASES = [(shape, faulty) for shape in [(2, 2), (2, 3), (3, 2), (3, 3)] for faulty in (0, 1)] + [((1, 3), 0)]

    @pytest.mark.parametrize("shape, faulty", CASES)
    def test_one_table_agrees_with_the_pairwise_definition(self, shape, faulty):
        inst = generate_instance(shape, 17)
        if faulty:
            inst = inject_quadric_fault(inst, inst.quadric_count - 1)
        rng = Random(31)
        verdicts = set()
        for _ in range(8):
            for corners in _candidate_squares(inst, rng):
                sq = Square.of(*corners)
                try:
                    expected = _is_square_by_pairs(inst, sq)
                except PreconditionViolated as exc:
                    expected = str(exc)
                calls = inst.stats.oracle_calls
                try:
                    got = is_square(inst, sq)
                except PreconditionViolated as exc:
                    got = str(exc)
                assert got == expected, corners
                if all(len(x) == inst.dim for x in corners):
                    assert inst.stats.oracle_calls == calls + 1
                verdicts.add(got)
        assert verdicts == {True, False, "corner has the wrong ambient length"}


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
        asked, tables, rows = [], [], []
        is_simple, polar2_table, polar2_rows = ident22.is_simple, ident22.polar2_table, ident22.polar2_rows

        def recording_is_simple(v):
            asked.append(tuple(v))
            return is_simple(v)

        def recording_table(xs, ys):
            tables.append(([linalg.to_integers(x).fractions() for x in xs], ys is xs))
            return polar2_table(xs, ys)

        def recording_rows(v):
            rows.append(linalg.to_integers(v).fractions())
            return polar2_rows(v)

        monkeypatch.setattr(ident22, "is_simple", recording_is_simple)
        monkeypatch.setattr(ident22, "polar2_table", recording_table)
        monkeypatch.setattr(ident22, "polar2_rows", recording_rows)
        calls = ident22.stats.oracle_calls
        assert complete_square_details(ident22, E11, E12, E21).case == "generic"
        # One table of the corners against themselves decides their simplicity and the
        # sheets they share; the polar rows of b and c give the plane; one table of the
        # total sum s against s and the ray of d gives the scale.  Nothing asks is_simple.
        assert asked == []
        assert tables == [([E11, E12, E21], True), ([(1, 1, 1, 0)], False)]
        assert rows == [E12, E21]
        # The corner table, two polar2_rows, one binary_restriction, the table of s.
        assert ident22.stats.oracle_calls == calls + 5

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
        # The plane T(b) ∩ T(c) from one pass over the stacked polar rows: the unit row at
        # a's lead coordinate, then row k of b and row k of c, 1 + 2 * 36 rows of 16 columns.
        # The system has rank 15, so 15 of its rows each remove one of the 16 unit vectors
        # and one null vector is left; nothing goes through the elimination core.
        inst = generate_instance((4, 4), 3)
        alpha0, alpha, beta0, beta = (1, 2, 0, -1), (3, -1, 1, 0), (2, 0, 1, 1), (0, 1, -1, 3)
        a, b, c = inst.embed_simple(alpha0, beta0), inst.embed_simple(alpha0, beta), inst.embed_simple(alpha, beta0)
        eliminated, systems = [], []
        eliminate, successive = linalg._eliminate, squares.successive_null_vectors

        def counted(rows, ncols, **kwargs):
            eliminated.append((len(rows), ncols))
            return eliminate(rows, ncols, **kwargs)

        def recording(rows, ncols):
            rows = list(rows)
            null = successive(rows, ncols)
            systems.append((rows, ncols, null))
            return null

        monkeypatch.setattr(linalg, "_eliminate", counted)
        monkeypatch.setattr(squares, "successive_null_vectors", recording)
        details = complete_square_details(inst, a, b, c)
        assert eliminated == []
        [(rows, ncols, null)] = systems
        lead = next(i for i, x in enumerate(a) if x)
        rows_b, _ = inst.polar2_rows(b).integer_rows()
        rows_c, _ = inst.polar2_rows(c).integer_rows()
        assert ncols == 16 and rows[0] == [int(i == lead) for i in range(16)]
        assert rows[1::2] == rows_b and rows[2::2] == rows_c and len(rows) == 73
        assert Matrix.from_integer_rows(rows, 1, 16).rank() == 15 and len(null) == 1
        assert details == Completion(inst.embed_simple(alpha, beta), "generic", F(-38))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4)])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_partners_span_the_corner_plane(self, shape, faulty):
        # span(a, p) is T(b) ∩ T(c) whenever a lies in it (as the corner table shows before
        # the plane is taken); otherwise the partners span its meet with x[lead(a)] = 0.
        inst = generate_instance(shape, 50 + shape[0] * shape[1])
        if faulty:
            inst = inject_quadric_fault(inst, inst.quadric_count - 1)
        rng = Random(shape[0] * 10 + shape[1])
        dim = inst.dim
        for _ in range(4):
            alpha0, alpha = _independent_pair(rng, shape[0])
            beta0, beta = _independent_pair(rng, shape[1])
            a, b, c = (inst.embed_simple(x, y) for x, y in ((alpha0, beta0), (alpha0, beta), (alpha, beta0)))
            if inst.is_simple(b) and inst.is_simple(c):
                plane = tangent_intersection(inst, b, c)
            else:  # a faulted minor can leave a corner off the cone; T(x) is still ker polar2_rows(x)
                plane = kernel(Matrix(inst.polar2_rows(b).rows + inst.polar2_rows(c).rows, dim))
            a = to_integers(a)
            partners = squares._plane_partners(inst, a, to_integers(b), to_integers(c))
            if plane.contains(a.ints):
                assert Subspace([a, *partners], dim) == plane
                assert faulty or len(partners) == 1
            else:
                lead = next(i for i, x in enumerate(a.ints) if x)
                unit = Matrix.from_integer_rows([[int(i == lead) for i in range(dim)]], 1, dim)
                assert Subspace(partners, dim) == plane.meet_kernel(unit)


class TestGenericFailures:
    """Each exact check of the generic path raises its own class."""

    @pytest.fixture
    def corners(self):
        return build_instance((2, 2)), E11, E12, E21

    def test_plane_of_wrong_dimension(self, corners, monkeypatch):
        inst, a, b, c = corners
        for count in (0, 2):
            monkeypatch.setattr(squares, "_plane_partners", lambda *args: [list(E22), list(E12)][:count])
            with pytest.raises(Degenerate, match=f"^tangent intersection has dimension {count + 1}, need 2$"):
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
        polar2_table = inst.polar2_table

        def scale_table(xs, ys):
            # The corner table is asked with ys as xs; the scale table holds 2Q(s) and 2B(s, u).
            if ys is xs:
                return polar2_table(xs, ys)
            return [[Scaled([2 * x for x in constants], 1), Scaled(list(slopes), 1)]]

        monkeypatch.setattr(inst, "polar2_table", scale_table)
        with pytest.raises(error):
            complete_square_details(inst, a, b, c)
