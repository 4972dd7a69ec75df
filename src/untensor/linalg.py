"""Exact linear algebra over the rational numbers.

Values cross this module's boundary as `fractions.Fraction`, so no operation
ever rounds and equality of results is decidable.  Vectors are plain tuples
of Fractions; `Matrix` and `Subspace` are small immutable wrappers.  A
subspace is stored as its reduced row-echelon basis, which is the unique
canonical representative: two subspaces are equal iff their bases compare
equal, and a ray (one-dimensional subspace) has a canonical generator whose
first nonzero coordinate is 1.

Every elimination (`rank`, `rref`, `kernel`, `inverse`, `solve_linear`,
`determinant` and the `Subspace` reduction) runs through one integer core,
`_eliminate`: each row is scaled by the lcm of its denominators, rows are
combined fraction-free over Python `int` with their gcd content divided out
after every update (Bareiss 1968 keeps the same integrality with exact
quotients), and Fractions are built only from the final reduced rows.

Scalars serialize as "p/q" strings ("p" when the denominator is 1) and
round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from untensor.errors import DimensionMismatch

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def format_scalar(value: Fraction) -> str:
    return str(value)


def parse_scalar(text) -> Fraction:
    return Fraction(text)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def vzero(n: int) -> Vector:
    return (ZERO,) * n


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return tuple(a - b for a, b in zip(u, v))


def vscale(t, v: Vector) -> Vector:
    t = frac(t)
    return tuple(t * a for a in v)


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def first_nonzero_index(v: Sequence[Fraction]) -> int | None:
    for i, a in enumerate(v):
        if a != 0:
            return i
    return None


def linear_combination(vectors: Sequence[Vector], coeffs: Sequence) -> Vector:
    """Sum of coeffs[i] * vectors[i]; the vectors must share a length."""
    if not vectors:
        raise ValueError("empty vector list")
    acc = [ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        c = frac(c)
        if c != 0:
            acc = [x + c * y for x, y in zip(acc, v)]
    return tuple(acc)


def proportionality_ratio(base: Vector, candidate: Vector) -> Fraction | None:
    """Return t with candidate == t*base, or None if no such scalar exists.

    `base` must be nonzero; the zero candidate yields t == 0.
    """
    lead = first_nonzero_index(base)
    if lead is None:
        raise ValueError("base vector must be nonzero")
    t = candidate[lead] / base[lead]
    if all(c == t * b for b, c in zip(base, candidate)):
        return t
    return None


class Matrix:
    """Immutable rectangular matrix of Fractions.

    Instances are hashable and compare by entries.  An explicit column
    count is required when constructing a matrix with zero rows.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        materialized = tuple(tuple(frac(x) for x in row) for row in rows)
        if materialized:
            width = len(materialized[0])
            if any(len(r) != width for r in materialized):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("declared column count does not match rows")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.rows = materialized
        self.nrows = len(materialized)
        self.ncols = ncols

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(tuple((ZERO,) * ncols for _ in range(nrows)), ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [vector(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(nrows)), len(cols))

    # -- basic accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        return Matrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, t) -> "Matrix":
        t = frac(t)
        return Matrix(tuple(tuple(t * a for a in row) for row in self.rows), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        cols = [to_integers(other.column(j)) for j in range(other.ncols)]
        out = []
        for row in self.rows:
            ints, den = to_integers(row)
            out.append(tuple(Fraction(sum(map(mul, ints, col)), den * col_den) for col, col_den in cols))
        return Matrix(tuple(out), other.ncols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product, as integer dot products over cleared denominators."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        ints, den = to_integers(v)
        out = []
        for row in self.rows:
            row_ints, row_den = to_integers(row)
            out.append(Fraction(sum(map(mul, row_ints, ints)), row_den * den))
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)),
            self.nrows,
        )

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major block layout."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append(tuple(a * b for a in ra for b in rb))
        return Matrix(tuple(out), self.ncols * other.ncols)

    # -- elimination-based queries ------------------------------------------

    def rank(self) -> int:
        return len(_eliminate(_integer_rows(self.rows), self.ncols)[0])

    def det(self) -> Fraction:
        return determinant(self)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        n = self.nrows
        aug = []
        for i, row in enumerate(self.rows):
            ints, den = to_integers(row)
            aug.append(ints + [den if i == j else 0 for j in range(n)])
        pivots, _ = _eliminate(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix(tuple(from_integers(row[n:], row[c]) for row, c in zip(aug, pivots)), n)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def to_integers(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with values == ints / den: den is the lcm of the denominators."""
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def from_integers(ints: Sequence[int], den: int) -> Vector:
    """The integers divided by a nonzero common denominator, as Fractions."""
    if den == 1:
        return tuple(map(Fraction, ints))
    return tuple(Fraction(x, den) for x in ints)


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    return [to_integers(row)[0] for row in rows]


def _eliminate(rows: list[list[int]], ncols: int, *, track_det: bool = False) -> tuple[list[int], Fraction]:
    """Fraction-free Gauss-Jordan elimination over int, in place.

    A row update replaces a row by p*row - e*pivot_row (p the pivot entry,
    e the row's entry in the pivot column, both divided by their gcd) and
    divides out the gcd content of the result, so rows stay primitive.
    Afterwards rows[r] (r < len(pivots)) is nonzero at pivots[r] and zero in
    every other pivot column, the remaining rows are zero, and dividing each
    pivot row by its pivot entry gives the reduced row-echelon form.

    Returns the pivot columns and a factor: with track_det, the one by which
    the swaps, combinations and content divisions multiplied the determinant
    of a square input, so det(input) = prod(pivot entries) / factor.  It is
    1 otherwise, because its products grow with every update and would slow
    the tall kernels that never need it.
    """
    nrows = len(rows)
    pivots: list[int] = []
    scaled, divided = 1, 1
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
            if track_det:
                divided *= g
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            if track_det:
                scaled = -scaled
        lead = rows[r]
        p = lead[c]
        for i in range(nrows):
            e = rows[i][c]
            if e and i != r:
                g = gcd(p, e)
                pg, eg = p // g, e // g
                new = [pg * a - eg * b for a, b in zip(rows[i], lead)]
                g = gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                    if track_det:
                        divided *= g
                rows[i] = new
                if track_det:
                    scaled *= pg
        pivots.append(c)
        r += 1
    return pivots, Fraction(scaled, divided)


def _reduced_rows(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[list[Vector], list[int]]:
    """The nonzero rows of the reduced row-echelon form, and their pivot columns."""
    ints = _integer_rows(rows)
    pivots, _ = _eliminate(ints, ncols)
    return [from_integers(row, row[c]) for row, c in zip(ints, pivots)], pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row-echelon form; the shape (zero rows included) is kept."""
    reduced, _ = _reduced_rows(m.rows, m.ncols)
    zero_rows = [vzero(m.ncols)] * (m.nrows - len(reduced))
    return Matrix(tuple(reduced + zero_rows), m.ncols)


def determinant(m: Matrix) -> Fraction:
    """Determinant from the integer elimination core.

    The rows are cleared of denominators, eliminated, and the product of
    the resulting pivot entries is corrected by the factor the elimination
    and the clearing multiplied the determinant by.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant needs a square matrix")
    rows, cleared = [], 1
    for row in m.rows:
        ints, den = to_integers(row)
        rows.append(ints)
        cleared *= den
    pivots, factor = _eliminate(rows, m.ncols, track_det=True)
    if len(pivots) != m.nrows:
        return ZERO
    product = 1
    for row, c in zip(rows, pivots):
        product *= row[c]
    return product / (factor * cleared)


def solve_linear(a: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of a·x = rhs, or None when rhs is outside the column space."""
    if len(rhs) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    n = a.ncols
    reduced, pivots = _reduced_rows([row + (frac(b),) for row, b in zip(a.rows, rhs)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, c in zip(reduced, pivots):
        x[c] = row[n]
    return tuple(x)


class Subspace:
    """A linear subspace held by its canonical reduced-echelon basis."""

    __slots__ = ("basis", "ambient_dim")

    def __init__(self, vectors: Iterable[Sequence], ambient_dim: int):
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch.of(ambient_dim, len(r))
        self.basis = Matrix(_reduced_rows(rows, ambient_dim)[0], ambient_dim)
        self.ambient_dim = ambient_dim

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls((), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(Matrix.identity(ambient_dim).rows, ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.ambient_dim))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, len(v))
        residual = list(v)
        for row in self.basis.rows:
            lead = first_nonzero_index(row)
            coeff = residual[lead]
            if coeff != 0:
                residual = [a - coeff * b for a, b in zip(residual, row)]
        return all(a == 0 for a in residual)

    def coordinates(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v against the canonical basis, or None if outside."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, len(v))
        residual = list(v)
        coords = []
        for row in self.basis.rows:
            lead = first_nonzero_index(row)
            coeff = residual[lead]
            coords.append(coeff)
            if coeff != 0:
                residual = [a - coeff * b for a, b in zip(residual, row)]
        if any(a != 0 for a in residual):
            return None
        return tuple(coords)

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.basis.rows + other.basis.rows, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both.

        Stack both bases into M; a left-kernel vector y of M splits as
        (u, -w) with u'A = w'B, so u'A runs over the intersection.
        """
        self._check_ambient(other)
        a = self.basis.rows
        stacked = Matrix(a + other.basis.rows, self.ambient_dim)
        if stacked.nrows == 0:
            return Subspace.zero(self.ambient_dim)
        left_kernel = kernel(stacked.transpose())
        # Row i of A is ints_i / den_i.  Each member u'A is built as an
        # integer multiple of itself, which spans the same ray.
        scaled = [to_integers(row) for row in a]
        columns = [[ints[j] for ints, _ in scaled] for j in range(self.ambient_dim)]
        members = []
        for y in left_kernel.basis.rows:
            coeffs, _ = to_integers([c / den for c, (_, den) in zip(y, scaled)])
            members.append([sum(map(mul, coeffs, col)) for col in columns])
        return Subspace(members, self.ambient_dim)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, other.ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """The solution space {x : m·x = 0}; dimension = ncols - rank."""
    rows = _integer_rows(m.rows)
    pivots, _ = _eliminate(rows, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        x = [ZERO] * m.ncols
        x[f] = ONE
        for row, c in zip(rows, pivots):
            x[c] = Fraction(-row[f], row[c])
        basis.append(x)
    return Subspace(basis, m.ncols)


def ray_generator(sub: Subspace) -> Vector:
    """Canonical generator of a one-dimensional subspace."""
    if sub.dim != 1:
        raise ValueError("not a ray")
    return sub.basis.rows[0]


def integer_sqrt_exact(n: int) -> int | None:
    """The integer r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        raise ValueError("negative input")
    r = isqrt(n)
    return r if r * r == n else None


def fraction_sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact rational square root, or None if q is not a rational square."""
    if q < 0:
        return None
    num = integer_sqrt_exact(q.numerator)
    if num is None:
        return None
    den = integer_sqrt_exact(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


def rank_one_gauge(m: Matrix) -> tuple[Vector, Vector, Fraction] | None:
    """Write a rank-one matrix as scale * outer(col, row).

    Both returned vectors have leading coordinate 1 and the scale carries
    the rest, so the gauge is canonical.  Returns None when m has rank 0
    or at least 2.
    """
    lead = None
    for i, row in enumerate(m.rows):
        j = first_nonzero_index(row)
        if j is not None:
            lead = (i, j)
            break
    if lead is None:
        return None
    i0, j0 = lead
    scale = m.rows[i0][j0]
    col = tuple(m.rows[i][j0] / scale for i in range(m.nrows))
    row = tuple(m.rows[i0][j] / scale for j in range(m.ncols))
    for i in range(m.nrows):
        for j in range(m.ncols):
            if m.rows[i][j] != scale * col[i] * row[j]:
                return None
    return col, row, scale


def factor_rank_one(m: Matrix) -> tuple[Vector, Vector] | None:
    """Split a rank-one matrix as outer(col, row) with col leading 1.

    The zero matrix factors as (0, 0).  Returns None on rank >= 2.
    """
    gauge = rank_one_gauge(m)
    if gauge is None:
        if all(is_zero_vector(r) for r in m.rows):
            return vzero(m.nrows), vzero(m.ncols)
        return None
    col, row, scale = gauge
    return col, vscale(scale, row)
