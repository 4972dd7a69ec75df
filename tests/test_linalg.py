from fractions import Fraction as F
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from untensor.errors import DimensionMismatch
from untensor.linalg import (
    Matrix,
    Subspace,
    determinant,
    factor_rank_one,
    format_scalar,
    fraction_sqrt_exact,
    integer_sqrt_exact,
    kernel,
    linear_combination,
    parse_scalar,
    proportionality_ratio,
    rank_one_gauge,
    ray_generator,
    rref,
    solve_linear,
    vadd,
    vector,
    vscale,
)

small_ints = st.integers(min_value=-9, max_value=9)
fractions = st.builds(F, small_ints, st.integers(min_value=1, max_value=9))


def random_matrix(rng, rows, cols, bound=5):
    return Matrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions: (all rows, pivot columns)."""
    rows = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(row) for row in rows], pivots


def reference_determinant(rows):
    """Leibniz expansion: a sum over permutations, independent of any elimination."""
    n = len(rows)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def rational_matrices(draw, square=False, ncols=None):
    """Small rational matrices, biased toward zero rows, zero columns and rank deficiency."""
    nrows = draw(st.integers(min_value=0, max_value=4 if square else 5))
    if square:
        ncols = nrows
    elif ncols is None:
        ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(F(0)), fractions)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [F(0)] * ncols
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = F(0)
    if nrows >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(nrows)))[:2]
        t = draw(fractions)
        rows[i] = [t * x for x in rows[j]]
    return Matrix(rows, ncols)


class TestIntegerCoreAgainstReference:
    """The integer elimination core against textbook Fraction Gauss-Jordan."""

    @given(rational_matrices())
    def test_rref_rank_kernel(self, m):
        reduced, pivots = reference_rref(m.rows, m.ncols)
        assert rref(m).rows == tuple(reduced)
        assert m.rank() == len(pivots)
        free = [f for f in range(m.ncols) if f not in pivots]
        null_vectors = []
        for f in free:
            x = [F(0)] * m.ncols
            x[f] = F(1)
            for row, c in zip(reduced, pivots):
                x[c] = -row[f]
            null_vectors.append(x)
        expected, _ = reference_rref(null_vectors, m.ncols)
        assert kernel(m).basis.rows == tuple(expected[: len(free)])
        assert Subspace(m.rows, m.ncols).basis.rows == tuple(reduced[: len(pivots)])

    @given(rational_matrices(square=True))
    def test_inverse_and_determinant(self, m):
        n = m.nrows
        det = determinant(m)
        assert det == reference_determinant(m.rows)
        if det == 0:
            with pytest.raises(ValueError):
                m.inverse()
            return
        aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
        reduced, _ = reference_rref(aug, 2 * n)
        assert m.inverse().rows == tuple(row[n:] for row in reduced)

    @given(rational_matrices(), st.data())
    def test_solve_linear(self, m, data):
        rhs = [data.draw(st.one_of(st.just(F(0)), fractions)) for _ in range(m.nrows)]
        reduced, pivots = reference_rref([row + (b,) for row, b in zip(m.rows, rhs)], m.ncols + 1)
        if pivots and pivots[-1] == m.ncols:
            assert solve_linear(m, rhs) is None
            return
        x = [F(0)] * m.ncols
        for row, c in zip(reduced, pivots):
            x[c] = row[m.ncols]
        assert solve_linear(m, rhs) == tuple(x)

    @given(rational_matrices(), st.data())
    def test_intersect(self, a, data):
        b = data.draw(rational_matrices(ncols=a.ncols))
        sa, sb = Subspace(a.rows, a.ncols), Subspace(b.rows, b.ncols)
        meet = sa.intersect(sb)
        assert all(sa.contains(v) and sb.contains(v) for v in meet.basis_vectors())
        assert meet.dim == sa.dim + sb.dim - sa.add(sb).dim


class TestRref:
    def test_diagonal_scaling(self):
        assert rref(Matrix([[2, 0], [0, 3]])) == Matrix([[1, 0], [0, 1]])

    def test_dependent_rows(self):
        assert rref(Matrix([[1, 2], [2, 4]])) == Matrix([[1, 2], [0, 0]])

    def test_invertible_reduces_to_identity(self):
        # independent oracle: invertibility certified by fraction-free elimination
        rng = Random(11)
        found = 0
        while found < 10:
            m = random_matrix(rng, 5, 5)
            if determinant(m) == 0:
                continue
            found += 1
            assert rref(m) == Matrix.identity(5)

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_idempotent(self, rows):
        m = Matrix(rows)
        assert rref(rref(m)) == rref(m)


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix.zeros(3, 3)) == Subspace.full(3)

    def test_identity(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_members_annihilated(self):
        m = Matrix([[1, 1, 0]])
        k = kernel(m)
        assert k.dim == 2
        for b in k.basis_vectors():
            assert m.apply(b) == (F(0),)

    @given(st.lists(st.lists(small_ints, min_size=4, max_size=4), min_size=1, max_size=5))
    def test_rank_nullity(self, rows):
        m = Matrix(rows)
        assert m.rank() + kernel(m).dim == m.ncols


class TestSubspace:
    def test_intersect_spans(self):
        e = Matrix.identity(3).rows
        s1 = Subspace([e[0], e[1]], 3)
        s2 = Subspace([e[1], e[2]], 3)
        assert s1.intersect(s2) == Subspace([e[1]], 3)

    def test_intersect_idempotent(self):
        rng = Random(5)
        u = Subspace(random_matrix(rng, 3, 6).rows, 6)
        assert u.intersect(u) == u

    def test_intersect_commutative_associative(self):
        rng = Random(7)
        for _ in range(10):
            a = Subspace(random_matrix(rng, 3, 5).rows, 5)
            b = Subspace(random_matrix(rng, 3, 5).rows, 5)
            c = Subspace(random_matrix(rng, 4, 5).rows, 5)
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))

    def test_dimension_formula(self):
        # generic 3-dim and 4-dim inside 6-dim meet in dimension 1
        rng = Random(13)
        ones = 0
        for _ in range(20):
            a = Subspace(random_matrix(rng, 3, 6).rows, 6)
            b = Subspace(random_matrix(rng, 4, 6).rows, 6)
            expected = a.dim + b.dim - a.add(b).dim
            got = a.intersect(b).dim
            assert got == expected
            ones += got == 1 and a.dim == 3 and b.dim == 4
        assert ones >= 15

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.full(2).intersect(Subspace.full(3))

    def test_contains_and_coordinates(self):
        s = Subspace([(1, 0, 2), (0, 1, 3)], 3)
        v = vadd(vscale(2, (1, 0, 2)), vscale(-1, (0, 1, 3)))
        assert s.contains(v)
        coords = s.coordinates(v)
        assert linear_combination(s.basis_vectors(), coords) == v
        assert not s.contains((0, 0, 1))
        assert s.coordinates((0, 0, 1)) is None


class TestSolve:
    def test_identity(self):
        rhs = vector([3, 4])
        assert solve_linear(Matrix.identity(2), rhs) == rhs

    def test_inconsistent(self):
        assert solve_linear(Matrix([[1, 0], [0, 0]]), (F(0), F(1))) is None

    def test_residual_zero_on_consistent(self):
        rng = Random(3)
        for _ in range(20):
            a = random_matrix(rng, 4, 3)
            x = vector([rng.randint(-5, 5) for _ in range(3)])
            rhs = a.apply(x)
            sol = solve_linear(a, rhs)
            assert sol is not None
            assert a.apply(sol) == rhs


class TestScalars:
    def test_integer_sqrt(self):
        assert integer_sqrt_exact(0) == 0
        assert integer_sqrt_exact(49) == 7
        assert integer_sqrt_exact(50) is None
        with pytest.raises(ValueError):
            integer_sqrt_exact(-1)

    def test_fraction_sqrt(self):
        assert fraction_sqrt_exact(F(9, 4)) == F(3, 2)
        assert fraction_sqrt_exact(F(2)) is None
        assert fraction_sqrt_exact(F(-4)) is None

    @given(fractions)
    def test_serialization_round_trip(self, q):
        assert parse_scalar(format_scalar(q)) == q

    def test_format_omits_unit_denominator(self):
        assert format_scalar(F(5)) == "5"
        assert format_scalar(F(-3, 4)) == "-3/4"


class TestRankOne:
    def test_gauge_and_factor(self):
        rng = Random(17)
        for _ in range(20):
            col = vector([rng.randint(-4, 4) for _ in range(3)])
            row = vector([rng.randint(-4, 4) for _ in range(4)])
            m = Matrix([[a * b for b in row] for a in col])
            split = factor_rank_one(m)
            assert split is not None
            c, r = split
            assert Matrix([[a * b for b in r] for a in c]) == m
            if any(x != 0 for x in col) and any(x != 0 for x in row):
                gauge = rank_one_gauge(m)
                assert gauge is not None
                ahat, bhat, scale = gauge
                assert scale * next(x for x in ahat if x != 0) != 0
                assert proportionality_ratio(ahat, col) is not None

    def test_rank_two_rejected(self):
        assert factor_rank_one(Matrix.identity(2)) is None
        assert rank_one_gauge(Matrix.identity(3)) is None

    def test_zero_matrix(self):
        c, r = factor_rank_one(Matrix.zeros(2, 3))
        assert all(x == 0 for x in c) and all(x == 0 for x in r)


class TestMatrixOps:
    def test_kron_layout(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        k = a.kron(b)
        assert k.shape == (4, 4)
        assert k.rows[0] == (F(0), F(1), F(0), F(2))

    def test_inverse(self):
        rng = Random(23)
        for _ in range(10):
            m = random_matrix(rng, 4, 4)
            if determinant(m) == 0:
                continue
            assert m @ m.inverse() == Matrix.identity(4)

    def test_determinant_matches_rank(self):
        rng = Random(29)
        for _ in range(20):
            m = random_matrix(rng, 4, 4)
            assert (determinant(m) != 0) == (m.rank() == 4)

    def test_ray_generator_normalized(self):
        r = Subspace([(0, 3, 6)], 3)
        assert ray_generator(r) == (F(0), F(1), F(2))
