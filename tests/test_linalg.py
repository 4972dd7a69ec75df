import ast
from fractions import Fraction as F
from itertools import permutations
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import untensor
from untensor import linalg
from untensor.errors import DimensionMismatch
from untensor.linalg import (
    Matrix,
    Scaled,
    Subspace,
    _solve_columns,
    determinant,
    format_scalar,
    integer_sqrt_exact,
    inverse,
    kernel,
    linear_combination,
    null_vectors,
    parse_integers,
    parse_matrix,
    parse_vector,
    proportionality_ratio,
    rank_one_split,
    ray_generator,
    solve_linear,
    to_integers,
    vadd,
    vector,
    vscale,
)
from untensor.tensor_space import generate_instance

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
def rational_matrices(draw, square=False, ncols=None, nrows=None):
    """Small rational matrices, biased toward zero rows, zero columns and rank deficiency."""
    if nrows is None:
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


@st.composite
def integer_form(draw, m):
    """m rebuilt in integer form: each row over its own nonzero denominator,
    a multiple of either sign of the lcm of the row's denominators."""
    cleared = []
    for row in m.rows:
        ints, den = linalg.to_integers(row)
        k = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        cleared.append(([k * x for x in ints], k * den))
    return Matrix._trusted(cleared, m.ncols)


@st.composite
def either_form(draw, **shape):
    """A rational matrix, built from Fractions or from integer rows."""
    m = draw(rational_matrices(**shape))
    return draw(integer_form(m)) if draw(st.booleans()) else m


def reference_product(a, b):
    return tuple(
        tuple(sum((x * y for x, y in zip(row, b.column(j))), F(0)) for j in range(b.ncols)) for row in a.rows
    )


class TestMatrixForms:
    """A matrix keeps the form it was built in; results built from integer
    rows agree with Fraction arithmetic on the entries, whatever the form
    of the operands."""

    @given(rational_matrices(), st.data())
    def test_forms_compare_equal(self, m, data):
        twin = data.draw(integer_form(m))
        assert m._ints is None and twin._rows is None
        assert twin == m and m == twin and hash(twin) == hash(m)
        # Equality and hashing read the integer rows in lowest terms.
        assert twin._rows is None
        assert twin.rows == m.rows and twin.shape == m.shape

    @given(rational_matrices(), st.data())
    def test_integer_forms_compare_without_fractions(self, m, data):
        a, b = data.draw(integer_form(m)), data.draw(integer_form(m))
        doubled = data.draw(integer_form(m.scale(2)))
        assert a == b and hash(a) == hash(b)
        assert (a == doubled) == all(x == 0 for row in m.rows for x in row)
        assert a._rows is None and b._rows is None and doubled._rows is None

    @given(either_form(), st.data())
    def test_matmul(self, a, data):
        b = data.draw(either_form(nrows=a.ncols))
        product = a @ b
        assert product.shape == (a.nrows, b.ncols)
        assert product.rows == reference_product(a, b)
        assert Matrix.identity(a.nrows) @ a == a == a @ Matrix.identity(a.ncols)

    @given(either_form(), st.one_of(st.just(0), small_ints, fractions))
    def test_scale(self, m, t):
        scaled = m.scale(t)
        assert scaled.shape == m.shape
        assert scaled.rows == tuple(tuple(t * x for x in row) for row in m.rows)

    @given(either_form(), st.data())
    def test_kron_and_transpose(self, a, data):
        b = data.draw(either_form())
        k = a.kron(b)
        assert k.shape == (a.nrows * b.nrows, a.ncols * b.ncols)
        assert k.rows == tuple(tuple(x * y for x in ra for y in rb) for ra in a.rows for rb in b.rows)
        t = a.transpose()
        assert t.shape == (a.ncols, a.nrows)
        assert t.rows == tuple(tuple(row[j] for row in a.rows) for j in range(a.ncols))
        assert t.transpose() == a

    @given(st.integers(min_value=0, max_value=5))
    def test_identity(self, n):
        unit = Matrix([[F(int(i == j)) for j in range(n)] for i in range(n)], n)
        assert Matrix.identity(n) == unit and hash(Matrix.identity(n)) == hash(unit)
        assert Matrix.identity(n).rows == unit.rows

    @given(rational_matrices(square=True), st.data())
    def test_eliminations_agree_across_forms(self, m, data):
        twin = data.draw(integer_form(m))
        assert twin.rank() == m.rank() and kernel(twin) == kernel(m)
        assert inverse(twin) == inverse(m) and determinant(twin) == determinant(m)
        rhs = data.draw(st.lists(fractions, min_size=m.nrows, max_size=m.nrows))
        assert solve_linear(twin, rhs) == solve_linear(m, rhs)
        assert twin.apply(rhs) == m.apply(rhs)


class TestMatrixBoundary:
    PRIVATE = frozenset({"_rows", "_ints", "_cleared", "_elimination_rows", "_trusted"})

    def test_private_matrix_names_stay_in_linalg(self):
        """Which form a matrix holds is known to linalg alone."""
        package = Path(untensor.__file__).parent
        modules = sorted(p for p in package.glob("*.py") if p.name != "linalg.py")
        assert len(modules) > 5
        reads = []
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if isinstance(node, ast.Attribute) and node.attr in self.PRIVATE:
                    reads.append(f"{path.name}:{node.lineno} uses {node.attr}")
        assert reads == []


class TestEliminationCore:
    READERS = frozenset({"linalg.py:Subspace.__init__", "linalg.py:inverse", "linalg.py:determinant"})
    NULL_VECTOR_READERS = frozenset(
        {
            "linalg.py:Matrix.rank",
            "linalg.py:_solve_columns",
            "linalg.py:Subspace.meet_values",
            "linalg.py:kernel",
            "squares.py:_plane_partners",
        }
    )

    @staticmethod
    def readers(name):
        """Every function of the package that names `name`, as module:scope."""
        package = Path(untensor.__file__).parent
        found = set()

        def visit(node, scope, module):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name], module)
                    continue
                if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                    found.add(f"{module}:{'.'.join(scope)}")
                visit(child, scope, module)

        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [], path.name)
        return found

    def test_only_these_functions_eliminate(self):
        """Only the row-space jobs name `_eliminate`; every kernel, meet,
        rank, solve and the square plane read `null_vectors`, the one rule
        that builds a null-vector basis."""
        assert self.readers("_eliminate") == self.READERS
        assert self.readers("null_vectors") == self.NULL_VECTOR_READERS


class TestIntegerCoreAgainstReference:
    """The integer elimination core against textbook Fraction Gauss-Jordan."""

    @given(rational_matrices())
    def test_rref_rank_kernel(self, m):
        reduced, pivots = reference_rref(m.rows, m.ncols)
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
        inv = inverse(m)
        if det == 0:
            assert inv is None
            with pytest.raises(ValueError):
                m.inverse()
            return
        aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
        reduced, _ = reference_rref(aug, 2 * n)
        assert m.inverse().rows == tuple(row[n:] for row in reduced)
        assert inv == m.inverse()

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
    def test_solve_columns_one_elimination(self, m, data):
        """Every right-hand side of a batch gets the solution it gets alone,
        also after an inconsistent one, whose column is carried along."""
        entry = st.one_of(st.just(F(0)), fractions)
        columns = data.draw(st.lists(st.lists(entry, min_size=m.nrows, max_size=m.nrows), max_size=4))
        expected = []
        for rhs in columns:
            reduced, pivots = reference_rref([row + (b,) for row, b in zip(m.rows, rhs)], m.ncols + 1)
            if pivots and pivots[-1] == m.ncols:
                expected.append(None)
                continue
            x = [F(0)] * m.ncols
            for row, c in zip(reduced, pivots):
                x[c] = row[m.ncols]
            expected.append(tuple(x))
        assert [x if x is None else x.fractions() for x in _solve_columns(m, columns)] == expected

    @given(rational_matrices(), st.data())
    def test_apply_and_linear_combination(self, m, data):
        """Both work on cleared integers; the reference is Fraction arithmetic.
        apply is called twice, so the second call reads the kept integer rows."""
        entry = st.one_of(st.just(F(0)), fractions)
        for _ in range(2):
            v = data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols))
            assert m.apply(v) == tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in m.rows)
        if m.nrows:
            coeffs = data.draw(st.lists(st.one_of(entry, small_ints), min_size=m.nrows, max_size=m.nrows))
            expected = [F(0)] * m.ncols
            for c, row in zip(coeffs, m.rows):
                expected = [x + c * y for x, y in zip(expected, row)]
            combined = linear_combination(m.rows, coeffs)
            assert combined.fractions() == tuple(expected)
            assert gcd(combined.den, *combined.ints) == 1

    @given(rational_matrices(), st.data())
    def test_meet_kernel(self, a, data):
        """The restriction of m to a subspace against one kernel of the
        subspace's equations and m stacked; the result is canonical as built."""
        m = data.draw(rational_matrices(ncols=a.ncols))
        sub = Subspace(a.rows, a.ncols)
        meet = sub.meet_kernel(m)
        equations = kernel(sub.basis).basis.rows + m.rows
        assert meet == kernel(Matrix(equations, a.ncols))
        assert meet.basis == Subspace(meet.basis.rows, a.ncols).basis
        assert all(sub.contains(v) and not any(m.apply(v)) for v in meet.basis.rows)

    @given(rational_matrices(), st.data())
    def test_meet_values(self, a, data):
        """A map given by its values on the basis rows meets the subspace
        as its row matrix does; each value comes as Fractions or as a
        `Scaled` over a multiple of its denominator."""
        m = data.draw(rational_matrices(ncols=a.ncols))
        sub = Subspace(a.rows, a.ncols)
        values = []
        for k in sub.basis.rows:
            value = to_integers(m.apply(k)) if m.nrows else Scaled([], 1)
            t = data.draw(st.integers(min_value=1, max_value=6))
            values.append(value.fractions() if data.draw(st.booleans()) else Scaled([t * x for x in value.ints], t * value.den))
        meet = sub.meet_values(values)
        assert meet == sub.meet_kernel(m)
        assert meet.basis == Subspace(meet.basis.rows, a.ncols).basis
        with pytest.raises(DimensionMismatch):
            sub.meet_values(values + [values[0] if values else ()])

    def test_meet_values_reads_the_values_on_the_basis_rows(self):
        # The basis rows are (2, 0, 1)/2 and (0, 3, 1)/3, over unequal
        # denominators; x - y vanishes on their sum alone.
        sub = Subspace([(1, 0, F(1, 2)), (0, 1, F(1, 3))], 3)
        assert [den for _, den in sub.basis.scaled_rows()] == [2, 3]
        assert sub.meet_values([(F(1),), (F(-1),)]).basis.rows == ((1, 1, F(5, 6)),)

    @given(
        st.lists(st.lists(small_ints, min_size=3, max_size=3), max_size=4),
        st.integers(min_value=-12, max_value=12).filter(bool),
    )
    def test_from_integer_rows(self, rows, den):
        """Integer rows over a common denominator make the same matrix as their Fractions."""
        m = Matrix.from_integer_rows(rows, den, 3)
        reference = Matrix([[F(x, den) for x in row] for row in rows], 3)
        assert m == reference and hash(m) == hash(reference)
        assert m.rank() == reference.rank()
        assert kernel(m) == kernel(reference)
        assert Subspace(m.rows, 3) == Subspace(reference.rows, 3)
        v = (F(1), F(-2, 3), F(5))
        assert m.apply(v) == reference.apply(v)

    @given(rational_matrices(), st.data())
    def test_intersect(self, a, data):
        b = data.draw(rational_matrices(ncols=a.ncols))
        sa, sb = Subspace(a.rows, a.ncols), Subspace(b.rows, b.ncols)
        meet = sa.intersect(sb)
        assert all(sa.contains(v) and sb.contains(v) for v in meet.basis.rows)
        assert meet.dim == sa.dim + sb.dim - Subspace(sa.basis.rows + sb.basis.rows, a.ncols).dim


class TestRref:
    def test_diagonal_scaling(self):
        assert Subspace([[2, 0], [0, 3]], 2).basis == Matrix([[1, 0], [0, 1]])

    def test_dependent_rows(self):
        assert Subspace([[1, 2], [2, 4]], 2).basis == Matrix([[1, 2]])

    def test_invertible_reduces_to_identity(self):
        # independent oracle: invertibility certified by fraction-free elimination
        rng = Random(11)
        found = 0
        while found < 10:
            m = random_matrix(rng, 5, 5)
            if determinant(m) == 0:
                continue
            found += 1
            assert Subspace(m.rows, 5).basis == Matrix.identity(5)

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_idempotent(self, rows):
        basis = Subspace(rows, 3).basis
        assert Subspace(basis.rows, 3).basis == basis


class TestKernel:
    def test_zero_matrix(self):
        assert kernel(Matrix([[0, 0, 0]] * 3)) == Subspace.full(3)

    def test_identity(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_members_annihilated(self):
        m = Matrix([[1, 1, 0]])
        k = kernel(m)
        assert k.dim == 2
        for b in k.basis.rows:
            assert m.apply(b) == (F(0),)

    @given(st.lists(st.lists(small_ints, min_size=4, max_size=4), min_size=1, max_size=5))
    def test_rank_nullity(self, rows):
        m = Matrix(rows)
        assert m.rank() + kernel(m).dim == m.ncols

    def test_one_elimination(self, monkeypatch):
        # One pass of `null_vectors` over the 3 rows of 4 columns, and no `_eliminate`:
        # two null vectors are left, so every row is read.
        calls, eliminated = [], []
        eliminate = linalg._eliminate

        def counted(rows, ncols, **kwargs):
            eliminated.append(ncols)
            return eliminate(rows, ncols, **kwargs)

        def recording(rows, ncols):
            rows = list(rows)
            null = null_vectors(rows, ncols)
            calls.append((rows, ncols, len(null)))
            return null

        monkeypatch.setattr(linalg, "_eliminate", counted)
        monkeypatch.setattr(linalg, "null_vectors", recording)
        k = kernel(Matrix([[1, 2, 3, 4], [2, 4, 6, 9], [0, 0, 0, 1]]))
        assert eliminated == []
        assert calls == [([[1, 2, 3, 4], [2, 4, 6, 9], [0, 0, 0, 1]], 4, 2)]
        assert k == Subspace([(-2, 1, 0, 0), (-3, 0, 1, 0)], 4)
        assert k.basis.rows == ((1, 0, F(-1, 3), 0), (0, 1, F(-2, 3), 0))

    def test_polar_rows_stay_integer_through_eliminations(self):
        inst = generate_instance((3, 3), 4)
        v = inst.sample_simple(Random(2))
        rows = inst.polar2_rows(v)
        tangent = kernel(rows)
        assert tangent.meet_kernel(rows) == tangent
        assert Subspace.full(inst.dim).meet_kernel(rows) == tangent
        assert rows._rows is None
        # Column p of the polar rows is the polar form of v against e_p.
        columns = [inst.polar2_values(v, e).fractions() for e in Matrix.identity(inst.dim).rows]
        assert rows.rows == tuple(zip(*columns))


@st.composite
def tall_integer_rows(draw):
    """(rows, ncols) with more rows than columns, up to 3 ncols: all zero,
    or combinations of a few generator rows (full column rank when the
    generators are unit triangular rows placed among them), with zero rows."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    nrows = draw(st.integers(min_value=ncols + 1, max_value=max(3 * ncols, ncols + 1)))
    kind = draw(st.sampled_from(["zero", "planted", "full"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)], ncols
    if kind == "full":
        gens = [[1 if j == i else draw(small_ints) if j > i else 0 for j in range(ncols)] for i in range(ncols)]
    else:
        gens = draw(st.lists(st.lists(small_ints, min_size=ncols, max_size=ncols), max_size=ncols))
    coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=len(gens), max_size=len(gens))
    rows = list(gens) if kind == "full" else []
    while len(rows) < nrows:
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            rows.append([0] * ncols)
        else:
            cs = draw(coeffs)
            rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(ncols)])
    order = draw(st.permutations(range(nrows)))
    return [rows[i] for i in order], ncols


class TestTallKernels:
    """Systems with more rows than columns: the kernel and the rank agree
    with a row elimination, and the null vectors are the canonical basis."""

    @settings(max_examples=200)
    @given(tall_integer_rows())
    def test_block_rule(self, system):
        rows, ncols = system
        m = Matrix.from_integer_rows(rows, 1, ncols)
        rank = len(linalg._eliminate([list(r) for r in rows], ncols)[0])
        k = kernel(m)
        assert all(not any(m.apply(v)) for v in k.basis.rows)
        assert k.dim == ncols - rank
        assert k.basis == Subspace(k.basis.rows, ncols).basis
        assert m.rank() == rank
        null = null_vectors(rows, ncols)
        free = [f for _, f in null]
        assert free == sorted(free)
        for z, f in null:
            assert z[f] > 0 and not any(z[:f]) and not any(z[g] for g in free if g != f)
            assert gcd(*z) == 1


def reference_kernel_basis(rows, ncols):
    """The canonical reduced basis of the kernel, by textbook Gauss-Jordan
    twice: the null vectors read off the reduced rows, then reduced
    themselves.  Returns (basis rows, their pivot columns)."""
    reduced, pivots = reference_rref(rows, ncols)
    null = []
    for f in (f for f in range(ncols) if f not in pivots):
        x = [F(0)] * ncols
        x[f] = F(1)
        for row, c in zip(reduced, pivots):
            x[c] = -row[f]
        null.append(x)
    basis, leads = reference_rref(null, ncols)
    return basis[: len(leads)], leads


class TestSuccessiveNullVectors:
    """`null_vectors`, one row at a time, on tall, wide and square integer
    systems, rank-deficient ones and ones with zero rows included."""

    @settings(max_examples=200)
    @given(
        st.one_of(
            tall_integer_rows(),
            rational_matrices().map(lambda m: ([to_integers(row).ints for row in m.rows], m.ncols)),
        ),
        st.lists(st.lists(small_ints, min_size=8, max_size=8), max_size=2),
    )
    def test_spans_the_kernel(self, system, extra):
        """The output is the canonical kernel basis, each vector primitive
        and positive at its free column, and no row after the basis empties
        is read: rows after the full-rank prefix are never asked for."""
        rows, ncols = system
        rows = rows + [row[:ncols] for row in extra]
        read = []

        def reader():
            for row in rows:
                read.append(row)
                yield row

        null = null_vectors(reader(), ncols)
        basis, leads = reference_kernel_basis(rows, ncols)
        assert [f for _, f in null] == leads
        assert [tuple(F(x, z[f]) for x in z) for z, f in null] == basis
        assert all(z[f] > 0 and gcd(*z) == 1 for z, f in null)
        full = next((i for i in range(len(rows) + 1) if len(reference_rref(rows[:i], ncols)[1]) == ncols), None)
        assert len(read) == (len(rows) if full is None else full)

    def test_stops_reading_when_no_null_vector_is_left(self):
        read = []

        def rows():
            for row in ([1, 2], [0, 0], [3, 4], [5, 6]):
                read.append(row)
                yield row

        assert null_vectors(rows(), 2) == []
        assert read == [[1, 2], [0, 0], [3, 4]]


def reference_solution(a, rhs):
    """The solution of a·x = rhs with the free variables 0, by textbook
    Gauss-Jordan on [a | rhs]; None when rhs is outside the column space."""
    reduced, pivots = reference_rref([row + (b,) for row, b in zip(a.rows, rhs)], a.ncols + 1)
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [F(0)] * a.ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[a.ncols]
    return tuple(x)


@st.composite
def tall_solve_systems(draw):
    """(a, columns) with n columns in a, k right-hand sides and more than
    n + k rows, up to 3 (n + k), so [-b | a] is tall.  The rows of a are
    combinations of a few generator rows over one denominator of either
    sign; each b is consistent (a·x), drawn (outside the column space for
    almost every draw), a multiple of a drawn b, or zero."""
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=1, max_value=4))
    nrows = draw(st.integers(min_value=n + k + 1, max_value=3 * (n + k)))
    gens = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=1, max_size=max(n, 1)))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=len(gens), max_size=len(gens))
    rows = []
    for _ in range(nrows):
        cs = draw(coeffs)
        rows.append([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)])
    a = Matrix.from_integer_rows(rows, draw(st.sampled_from([1, 2, -3])), n)
    drawn, columns = [], []
    for _ in range(k):
        kind = draw(st.sampled_from(["consistent", "drawn", "multiple", "zero"]))
        if kind == "consistent":
            columns.append(a.apply(draw(st.lists(fractions, min_size=n, max_size=n))))
        elif kind == "zero":
            columns.append(vector([0] * nrows))
        elif kind == "multiple" and drawn:
            columns.append(vscale(draw(fractions.filter(bool)), draw(st.sampled_from(drawn))))
        else:
            drawn.append(vector(draw(st.lists(fractions, min_size=nrows, max_size=nrows))))
            columns.append(drawn[-1])
    order = draw(st.permutations(range(k)))
    return a, [columns[i] for i in order]


class TestTallSolves:
    """Solves whose system [-b | a] has more rows than columns, read one
    row at a time by `null_vectors`, as kernels are."""

    @settings(max_examples=200)
    @given(tall_solve_systems())
    def test_batch_against_reference(self, system):
        a, columns = system
        got = _solve_columns(a, columns)
        assert all(x is None or x.den > 0 for x in got)
        assert [x if x is None else x.fractions() for x in got] == [reference_solution(a, b) for b in columns]

    def test_consistent_beside_an_inconsistent_column_and_its_double(self):
        # 6 rows against 2 unknowns and 3 right-hand sides, in every order
        a = Matrix([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [0, 0]])
        b = vector([F(1, 2), 1, F(3, 2), F(-1, 2), 2, 0])
        c = vector([0, 0, 0, 0, 0, 1])
        batch, expected = [b, c, vscale(2, c)], [(F(1, 2), F(1)), None, None]
        for order in permutations(range(3)):
            got = _solve_columns(a, [batch[i] for i in order])
            assert [x if x is None else x.fractions() for x in got] == [expected[i] for i in order]


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
            expected = a.dim + b.dim - Subspace(a.basis.rows + b.basis.rows, 6).dim
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
        assert linear_combination(s.basis.rows, coords).fractions() == v
        assert not s.contains((0, 0, 1))
        assert s.coordinates((0, 0, 1)) is None

    def test_integer_coordinates_solve_against_the_basis(self):
        rng = Random(23)
        for _ in range(30):
            dim = rng.randint(1, 5)
            vectors = [vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]) for _ in range(rng.randint(0, dim))]
            s = Subspace(vectors, dim)
            v = vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
            reference = solve_linear(s.basis.transpose(), v) if s.dim else (() if not any(v) else None)
            coords = s.integer_coordinates(linear_combination([v], [1]))
            assert (None if coords is None else coords.fractions()) == reference == s.coordinates(v)
        with pytest.raises(DimensionMismatch):
            Subspace.full(2).integer_coordinates((1, 2, 3))


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

    @given(fractions)
    def test_serialization_round_trip(self, q):
        assert parse_integers([format_scalar(q)]).fractions() == (q,)

    def test_parse_reads_the_matched_integers(self):
        def parse(value):
            return parse_integers([value]).fractions()[0]

        assert parse("-4/6") == F(-2, 3)
        assert parse("+007") == 7 and parse("0/5") == 0
        assert type(parse("12")) is F and type(parse(12)) is F
        with pytest.raises(ZeroDivisionError, match=r"^Fraction\(1, 0\)$"):
            parse("1/0")
        for text in ("1e3", "1.5", "1/-2", "", "/2"):
            with pytest.raises(ValueError, match="is not of the form p or p/q"):
                parse(text)

    def test_integer_parse_reads_the_same_values(self):
        assert parse_integers(["-4/6", "+007", 3, "0/5"]) == Scaled([-20, 210, 90, 0], 30)
        assert parse_vector(["-4/6", 12]) == (F(-2, 3), F(12))
        assert parse_integers([]) == Scaled([], 1)
        m = parse_matrix([["1/2", "-2/3"], [3, "0/4"]], 2)
        assert m == Matrix([[F(1, 2), F(-2, 3)], [3, 0]]) and m._rows is None
        assert parse_matrix([], 3).shape == (0, 3)

    @pytest.mark.parametrize(
        "rows,error,message",
        [
            (5, TypeError, "'int' object is not iterable"),
            ("ab", TypeError, "a vector must be a list of scalars, not str"),
            ([[1, "x"], [0, 1]], ValueError, "scalar 'x' is not of the form p or p/q"),
            ([["-7/0", 1], [0, 1]], ZeroDivisionError, "Fraction(-7, 0)"),
            ([[1.5, 1], [0, 1]], TypeError, "scalar 1.5 is neither a JSON integer nor a p or p/q string"),
            ([[True, 1], [0, 1]], TypeError, "scalar True is neither a JSON integer nor a p or p/q string"),
            ([[1, 2], [3]], ValueError, "ragged rows"),
            ([[1, 2, 3], [4, 5, 6]], ValueError, "declared column count does not match rows"),
        ],
    )
    def test_integer_parse_keeps_the_fraction_errors(self, rows, error, message):
        for parse in (parse_matrix, lambda rows, n: Matrix([parse_vector(r) for r in rows], n)):
            with pytest.raises(error) as excinfo:
                parse(rows, 2)
            assert str(excinfo.value) == message
        with pytest.raises(ZeroDivisionError) as fraction_error:
            F(-7, 0)
        assert str(fraction_error.value) == "Fraction(-7, 0)"

    def test_format_omits_unit_denominator(self):
        assert format_scalar(F(5)) == "5"
        assert format_scalar(F(-3, 4)) == "-3/4"


sides = st.one_of(
    st.lists(fractions, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4).map(lambda n: [F(0)] * n),
)


def outer(col, row) -> Matrix:
    return Matrix([[a * b for b in row] for a in col])


def unit_vector(n: int, i: int) -> list[F]:
    return [F(j == i) for j in range(n)]


class TestRankOne:
    def test_gauge_and_factor(self):
        rng = Random(17)
        for _ in range(20):
            col = vector([rng.randint(-4, 4) for _ in range(3)])
            row = vector([rng.randint(-4, 4) for _ in range(4)])
            m = outer(col, row)
            split = rank_one_split(m)
            if not any(col) or not any(row):
                assert split is None
                continue
            assert split is not None
            c, r = (part.fractions() for part in split)
            assert outer(c, r) == m
            assert next(x for x in c if x) == 1
            assert proportionality_ratio(col, c) is not None

    def test_rank_two_rejected(self):
        assert rank_one_split(Matrix.identity(2)) is None
        assert rank_one_split(Matrix.identity(3)) is None

    def test_zero_matrix(self):
        assert rank_one_split(Matrix([[0, 0, 0]] * 2)) is None

    @given(sides, sides)
    def test_split_of_an_outer_product(self, col, row):
        m = outer(col, row)
        split = rank_one_split(m)
        assert (split is None) == (not any(col) or not any(row))
        if split is None:
            return
        c, r = (part.fractions() for part in split)
        assert outer(c, r) == m
        assert next(x for x in c if x) == 1
        assert proportionality_ratio(col, c) is not None
        if len(col) > 1 and len(row) > 1:
            # Adding outer(u, v) for unit vectors u, v off the rays of col
            # and row gives rank 2: e_0 unless x lies on the ray of e_0.
            u, v = (unit_vector(len(x), 0 if any(x[1:]) else 1) for x in (col, row))
            rank_two = Matrix([[x + y for x, y in zip(a, b)] for a, b in zip(m.rows, outer(u, v).rows)])
            assert rank_two.rank() == 2 and rank_one_split(rank_two) is None


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
        assert ray_generator(vector([0, 3, 6])) == (F(0), F(1), F(2))
        assert ray_generator(vector([0, F(-1, 2), 6])) == (F(0), F(1), F(-12))
        assert ray_generator(vector([0, 3, 6])) == Subspace([(0, 3, 6)], 3).basis.rows[0]
        with pytest.raises(ValueError):
            ray_generator(vector([0, 0, 0]))

    def test_plain_ints_divide_exactly(self):
        # true division of two ints is a float; the helpers must give the exact Fraction
        assert ray_generator((3, 1)) == (F(1), F(1, 3))
        assert proportionality_ratio((3, 0, 6), (1, 0, 2)) == F(1, 3)
        assert proportionality_ratio((3, 0, 6), (1, 0, 1)) is None
