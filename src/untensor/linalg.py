"""Exact linear algebra over the rational numbers.

No operation ever rounds, so equality of results is decidable.  A vector
comes in one of two forms: a plain tuple of Fractions (a `Vector`), or a
`Scaled` pair (ints, den) of integers over one positive common denominator.
`to_integers` turns either into the second and `Scaled.fractions` builds
the first.  `_solve_columns` and `linear_combination` return the `Scaled`
form, and they, `Matrix.apply`, `Matrix.from_columns`,
`proportionality_ratio` and `ray_generator` accept both, so values passed
between the stages of a computation are never turned into Fractions and
cleared back; Fractions are built where a caller reads a result.
`rank_one_split` writes a rank-one matrix as outer(col, row) with two
`Scaled` vectors, so every reader of a grid (factorization, verification,
loading a base point) stays on integers; it is the one owner of the
exchange (t col, row / t) that a rank-one split leaves free.  The
plain-tuple helpers (`vadd`, `vscale`, `is_zero_vector`, ...) take
Fractions only.  `Matrix` and `Subspace` are small immutable wrappers.  A
subspace is stored as its reduced row-echelon basis, which is the unique
canonical representative: two subspaces are equal iff their bases compare
equal, and a ray (one-dimensional subspace) has a canonical generator whose
first nonzero coordinate is 1.

Two integer rules do all the exact work, and both scale each row by the
lcm of its denominators and combine vectors fraction-free over Python `int`,
with their gcd content divided out after every update (Bareiss 1968 keeps
the same integrality with exact quotients).  `null_vectors` builds every
null-vector basis, one row at a time: every kernel, meet, solve, rank and
the square plane of `squares` read it.  `_eliminate` does the row-space
jobs alone: the `Subspace` reduction, `inverse` and `determinant`.

A `Matrix` holds its entries in one of two forms: Fraction rows, or integer
rows with one nonzero denominator per row.  The public constructor makes
the first; `Matrix.from_integer_rows` and every matrix this module computes
(products, scalings, Kronecker products, inverses, reduced bases) make the
second, straight from integer arithmetic.  Either form is built from the
other the first time it is read, and then kept, so no Fraction is made for
a matrix that is only eliminated, multiplied, applied or compared:
equality and hashing read the integer rows in lowest terms.  Integer rows are
never changed in place, so matrices may share them.  Rows that this module
built itself enter a `Matrix` or `Subspace` through private constructors
that skip the coercion and reduction of the public ones.

`null_vectors` starts from the unit vectors and restricts each row to the
null vectors of the rows before it; a row that does not vanish on them
removes the last one with a nonzero value and is combined into the
others.  The basis stays the canonical reduced one after every row, so
nothing is reduced or lifted afterwards.  A row costs one dot product per
null vector left, and reading stops once none is left.  `kernel` returns
that basis and `Matrix.rank` is the column count less its size.
`Subspace.meet_values` takes a subspace with a known basis K and a map L
given by its values L·K: it takes the null vectors of L·K, which has one
column per basis vector, instead of those of L, and lifts them through K.
`Subspace.meet_kernel` is the case of a row matrix m, with the values
m·K.  `_solve_columns` reads every solution off the null vectors of one
system, since solving a·x = b is finding the null vector of [-b | a]
that is 1 at the b column.

Scalars serialize as "p/q" strings ("p" when the denominator is 1) and
round-trip exactly.  `parse_integers` and `parse_matrix` read them from
outside input straight into integers over a common denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from untensor.errors import DimensionMismatch

Vector = tuple[Fraction, ...]


class Scaled(NamedTuple):
    """A vector as integers over one positive common denominator: the
    values ints[i] / den.  The denominator need not be the least one, so
    two pairs can hold the same values and still compare unequal as pairs.

    Two producers return lowest terms (gcd(den, *ints) == 1):
    `to_integers` of Fractions and `linear_combination`.  The others need
    not: the oracle's answers (built from hidden coordinates in lowest
    terms, but a product of two reduced coordinate vectors need not be in
    lowest terms), `parse_integers`, `_solve_columns`,
    `Subspace.integer_coordinates`, `rank_one_split` and
    `Matrix.scaled_rows`."""

    ints: list[int]
    den: int

    def fractions(self) -> Vector:
        return from_integers(self.ints, self.den)

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to a Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def format_scalar(value: Fraction) -> str:
    return str(value)


_SCALAR_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(value) -> tuple[int, int]:
    """Read a scalar from outside input as (p, q), q > 0: a JSON integer, or
    a "p" or "p/q" string.

    Anything else is refused before it reaches int, as Fraction would also
    accept decimal exponents (spending unbounded time on "1e100000000"),
    read a JSON boolean as 0 or 1, and read a JSON float such as 0.1 as its
    binary approximation.  A "p/0" raises ZeroDivisionError, with the
    message Fraction gives it.
    """
    if isinstance(value, str):
        match = _SCALAR_TEXT.fullmatch(value)
        if not match:
            raise ValueError(f"scalar {value!r} is not of the form p or p/q")
        num, den = match.groups()
        num, den = int(num), 1 if den is None else int(den)
        if den == 0:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        return num, den
    if type(value) is not int:
        raise TypeError(f"scalar {value!r} is neither a JSON integer nor a p or p/q string")
    return value, 1


def parse_integers(entries) -> Scaled:
    """Read a vector from outside input, a JSON list of scalars, as integers
    over the lcm of its denominators; no Fraction is built."""
    if not isinstance(entries, list):
        raise TypeError(f"a vector must be a list of scalars, not {type(entries).__name__}")
    ratios = [_parse_ratio(x) for x in entries]
    den = lcm(*[q for _, q in ratios])
    return Scaled([p * (den // q) for p, q in ratios], den)


def parse_vector(entries) -> Vector:
    """Read a vector from outside input: a JSON list of scalars."""
    return parse_integers(entries).fractions()


def parse_matrix(rows, ncols: int) -> Matrix:
    """Read a matrix from outside input, rows of `parse_integers`, as
    integer rows.  Its errors are those of `Matrix(rows, ncols)`."""
    cleared = [parse_integers(row) for row in rows]
    if cleared:
        width = len(cleared[0].ints)
        if any(len(ints) != width for ints, _ in cleared):
            raise ValueError("ragged rows")
        if ncols != width:
            raise ValueError("declared column count does not match rows")
    return Matrix._trusted(cleared, ncols)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def vzero(n: int) -> Vector:
    return (ZERO,) * n


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return tuple(a + b for a, b in zip(u, v))


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


def linear_combination(vectors: Sequence, coeffs: Sequence) -> Scaled:
    """Sum of coeffs[i] * vectors[i]; the vectors must share a length.
    Vectors and coefficients may come in either form.

    The sum is accumulated over the integers, on one common denominator,
    and returned in lowest terms: chained combinations (the bilinear fill
    of a product matrix, say) would otherwise carry every step's common
    factor in their integers.
    """
    if not vectors:
        raise ValueError("empty vector list")
    cints, cden = to_integers(coeffs)
    cleared = [to_integers(v) for v in vectors]
    acc, den = [0] * len(cleared[0].ints), 1
    for c, (ints, vden) in zip(cints, cleared):
        if c:
            common = lcm(den, vden)
            up, c = common // den, c * (common // vden)
            acc = [x * up + c * y for x, y in zip(acc, ints)]
            den = common
    den *= cden
    g = gcd(den, *acc)
    return Scaled(acc, den) if g == 1 else Scaled([x // g for x in acc], den // g)


def proportionality_ratio(base: Sequence, candidate: Sequence) -> Fraction | None:
    """Return t with candidate == t*base, or None if no such scalar exists.

    Both vectors may come in either form.  They are compared by integer
    cross-multiplication, candidate_i * base_lead == base_i * candidate_lead,
    and the one Fraction built is t.  `base` must be nonzero; the zero
    candidate yields t == 0.
    """
    b, bden = to_integers(base)
    c, cden = to_integers(candidate)
    lead = first_nonzero_index(b)
    if lead is None:
        raise ValueError("base vector must be nonzero")
    bl, cl = b[lead], c[lead]
    if all(y * bl == x * cl for x, y in zip(b, c)):
        return Fraction(cl * bden, bl * cden)
    return None


class Matrix:
    """Immutable rectangular matrix of rationals.

    It holds the form it was built in, Fraction rows or (ints, den) integer
    rows, and builds the other on first read (see the module docstring);
    `rows` always gives the Fraction rows.  Instances are hashable and
    compare by entries, whichever form they were built in.  An explicit
    column count is required when constructing a matrix with zero rows.
    """

    __slots__ = ("_rows", "_ints", "nrows", "ncols")

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
        self._rows = materialized
        self._ints = None
        self.nrows = len(materialized)
        self.ncols = ncols

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, cleared: list[tuple[list[int], int]], ncols: int) -> "Matrix":
        """A matrix of integer rows that this module built itself, one
        (ints, den) pair per row, taken as they are."""
        m = cls.__new__(cls)
        m._rows = None
        m._ints = cleared
        m.nrows = len(cleared)
        m.ncols = ncols
        return m

    @classmethod
    def from_integer_rows(cls, rows: Iterable[Sequence[int]], den: int, ncols: int) -> "Matrix":
        """The matrix rows / den, for integer rows over one nonzero common
        denominator.  No Fraction is built until `rows` is read."""
        if den == 0:
            raise ZeroDivisionError("integer rows need a nonzero denominator")
        cleared = [(list(row), den) for row in rows]
        if any(len(ints) != ncols for ints, _ in cleared):
            raise ValueError("declared column count does not match rows")
        return cls._trusted(cleared, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._trusted([([int(i == j) for j in range(n)], 1) for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        """The matrix with these columns, in either form, as integer rows
        over the lcm of the column denominators."""
        cols = [to_integers(col) for col in columns]
        if cols:
            nrows = len(cols[0].ints)
        elif nrows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        if any(len(ints) != nrows for ints, _ in cols):
            raise ValueError("ragged columns")
        common = lcm(*[den for _, den in cols])
        cols = [ints if den == common else [x * (common // den) for x in ints] for ints, den in cols]
        return cls._trusted([([col[i] for col in cols], common) for i in range(nrows)], len(cols))

    # -- the two forms -----------------------------------------------------

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The entries as Fraction rows, built from the integer rows on first read."""
        if self._rows is None:
            self._rows = tuple(from_integers(ints, den) for ints, den in self._ints)
        return self._rows

    def _cleared(self) -> list[tuple[list[int], int]]:
        """The rows as (ints, den) pairs, cleared from the Fractions on first read."""
        if self._ints is None:
            self._ints = [to_integers(row) for row in self._rows]
        return self._ints

    def _elimination_rows(self) -> list[list[int]]:
        """Integer rows with the same row space, in a fresh list that
        `_eliminate` may change in place."""
        return [ints for ints, _ in self._cleared()]

    def scaled_rows(self) -> list[Scaled]:
        """The rows as `Scaled` vectors, each over its own denominator made
        positive.  A row is shared, not copied, where its sign stays."""
        return [Scaled(ints, den) if den > 0 else Scaled([-x for x in ints], -den) for ints, den in self._cleared()]

    def integer_rows(self) -> tuple[list[list[int]], int]:
        """(rows, den) with this matrix == rows / den: integer rows over one
        positive common denominator (not always the least one).  A row
        already over it is shared, not copied; callers must not change it."""
        cleared = self._cleared()
        common = lcm(*[den for _, den in cleared])
        return [ints if den == common else [x * (common // den) for x in ints] for ints, den in cleared], common

    # -- basic accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    # -- arithmetic --------------------------------------------------------

    def _canonical(self) -> tuple:
        """The integer rows in lowest terms over positive denominators: the
        same tuple for the same entries, whichever form holds them."""
        out = []
        for ints, den in self._cleared():
            g = gcd(den, *ints)
            if den < 0:
                g = -g
            out.append((tuple(ints), den) if g == 1 else (tuple(x // g for x in ints), den // g))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash((self._canonical(), self.ncols))

    def scale(self, t) -> "Matrix":
        t = frac(t)
        num, den = t.numerator, t.denominator
        return Matrix._trusted([([num * x for x in ints], d * den) for ints, d in self._cleared()], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Integer dot products against the columns of other over one common denominator."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        rows, common = other.integer_rows()
        cols = [[row[j] for row in rows] for j in range(other.ncols)]
        return Matrix._trusted(
            [([sum(map(mul, ints, col)) for col in cols], den * common) for ints, den in self._cleared()],
            other.ncols,
        )

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product of a vector in either form, as integer dot
        products over cleared denominators."""
        ints, den = to_integers(v)
        if len(ints) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(Fraction(sum(map(mul, row_ints, ints)), row_den * den) for row_ints, row_den in self._cleared())

    def transpose(self) -> "Matrix":
        rows, den = self.integer_rows()
        return Matrix._trusted([([row[j] for row in rows], den) for j in range(self.ncols)], self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major block layout."""
        return Matrix._trusted(
            [
                ([a * b for a in ia for b in ib], da * db)
                for ia, da in self._cleared()
                for ib, db in other._cleared()
            ],
            self.ncols * other.ncols,
        )

    # -- elimination-based queries ------------------------------------------

    def rank(self) -> int:
        """The column count less the number of `null_vectors` of the rows."""
        return self.ncols - len(null_vectors(self._elimination_rows(), self.ncols))

    def det(self) -> Fraction:
        return determinant(self)

    def inverse(self) -> "Matrix":
        inv = inverse(self)
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


def to_integers(values: Sequence) -> Scaled:
    """values as a `Scaled` over the lcm of their denominators; a `Scaled`
    is returned as it is."""
    if type(values) is Scaled:
        return values
    den = lcm(*[x.denominator for x in values])
    if den == 1:
        return Scaled([x.numerator for x in values], 1)
    return Scaled([x.numerator * (den // x.denominator) for x in values], den)


def from_integers(ints: Sequence[int], den: int) -> Vector:
    """The integers divided by a nonzero common denominator, as Fractions."""
    if den == 1:
        return tuple(map(Fraction, ints))
    return tuple(Fraction(x, den) if x else ZERO for x in ints)


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
    the reductions and inverses that never need it.
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
    return pivots, Fraction(scaled, divided) if track_det else ONE


def null_vectors(rows: Iterable[Sequence[int]], ncols: int) -> list[tuple[list[int], int]]:
    """The canonical reduced basis of the kernel of integer rows, as (z, f)
    for each free column f by increasing f, with z primitive and z[f] > 0:
    z is zero left of f and at the other free columns.

    The basis is found one row at a time.  It starts as the ncols unit
    vectors, each free at its own column.  Each row is restricted to the
    current null vectors, one integer dot product per vector.  When some
    value is nonzero, the last vector z_p with a nonzero value w_p is
    removed, and every other z_j with a value w_j != 0 becomes
    (w_p z_j - w_j z_p) / g, with g the gcd content taken with the sign of
    w_p.  z_p is zero left of f_p and at the other free columns, and each
    z_j it is combined into has f_j < f_p, so z_j stays zero left of f_j
    and at the other free columns, and positive at f_j: after every row
    the basis is the canonical one of the rows read so far, and nothing is
    reduced afterwards.  Rows after the last null vector is removed are
    not read.

    A null vector is zero at every free column but its own, so it is held
    as its head z[f] and its tail, its entries at the columns of the
    removed vectors: a dot product or an update reads one entry more than
    the number of vectors removed so far, not ncols entries.
    """
    free = list(range(ncols))
    heads = [1] * ncols
    tails: list[list[int]] = [[] for _ in range(ncols)]
    removed: list[int] = []
    rows = iter(rows)
    while free and (row := next(rows, None)) is not None:
        at = [row[c] for c in removed]
        values = [h * row[f] + sum(map(mul, at, t)) for f, h, t in zip(free, heads, tails)]
        pivot = next((i for i in range(len(values) - 1, -1, -1) if values[i]), None)
        if pivot is None:
            continue
        p, hp, tp = values.pop(pivot), heads.pop(pivot), tails.pop(pivot)
        removed.append(free.pop(pivot))
        for i, w in enumerate(values):
            if not w:
                tails[i].append(0)
                continue
            g = gcd(p, w) if p > 0 else -gcd(p, w)
            pg, wg = p // g, w // g
            h, t = pg * heads[i], [pg * x - wg * y for x, y in zip(tails[i], tp)]
            t.append(-wg * hp)
            g = gcd(h, *t)
            heads[i], tails[i] = (h, t) if g == 1 else (h // g, [x // g for x in t])
    out = []
    for f, h, t in zip(free, heads, tails):
        z = [0] * ncols
        z[f] = h
        for c, x in zip(removed, t):
            z[c] = x
        out.append((z, f))
    return out


def inverse(m: Matrix) -> Matrix | None:
    """The inverse of a square m, or None when m is singular.

    It comes from one elimination of [m | I]: the right half of the reduced
    rows is the inverse.  Row i of m is ints_i / den_i, so row i of [m | I]
    is cleared to [ints_i | den_i e_i], and each row of the inverse is over
    its pivot.  No determinant is tracked.
    """
    if m.nrows != m.ncols:
        raise ValueError("only square matrices invert")
    n = m.nrows
    aug = [ints + [den if i == j else 0 for j in range(n)] for i, (ints, den) in enumerate(m._cleared())]
    pivots, _ = _eliminate(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return Matrix._trusted([(row[n:], row[c]) for row, c in zip(aug, pivots)], n)


def determinant(m: Matrix) -> Fraction:
    """Determinant of a square m, from one elimination of m alone: the
    product of the pivot entries, corrected by the factor the elimination
    and the clearing of denominators multiplied the determinant by."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices have a determinant")
    rows = m._elimination_rows()
    pivots, factor = _eliminate(rows, m.ncols, track_det=True)
    if len(pivots) < m.nrows:
        return ZERO
    return prod(row[c] for row, c in zip(rows, pivots)) / (factor * prod(den for _, den in m._cleared()))


def _solve_columns(a: Matrix, columns: Sequence[Sequence]) -> list[Scaled | None]:
    """One solution of a·x = b for every right-hand side b in columns, read
    off the null vectors of one system; None for a b outside the column
    space of a.  The columns may come in either form, and each solution is
    a `Scaled`.

    Solving a·x = b is finding the null vector of [-b | a] that is 1 at
    the b column.  Row i of a is ints_i / den_i and b_j is B_j / D_j, so
    row i of the integer system is [-den_i B_j[i] for each j] followed by
    ints_i reversed: the k right-hand sides first, then the columns of a
    from the last to the first.  Its `null_vectors` are the canonical
    basis, each zero left of its free column and at the other free
    columns; the columns of a, reversed, have as free columns the free
    columns of a Gauss-Jordan elimination of a from its first column, so
    those are the free variables.  b_j is consistent exactly when column j
    is free and its null vector z is zero at the other right-hand sides;
    the solution, with the free variables of a set to 0, is then z's last
    n entries reversed, over z[j] D_j.  A b whose column is not free, or
    that needs another b (a multiple of an inconsistent b, say), gets None.
    """
    cleared = [to_integers(b) for b in columns]
    if any(len(ints) != a.nrows for ints, _ in cleared):
        raise ValueError("right-hand side length does not match row count")
    k = len(cleared)
    rows = [[-den * b[i] for b, _ in cleared] + ints[::-1] for i, (ints, den) in enumerate(a._cleared())]
    out: list[Scaled | None] = [None] * k
    for z, j in null_vectors(rows, k + a.ncols):
        if j >= k:
            break
        if not any(z[j + 1 : k]):
            out[j] = Scaled(z[k:][::-1], z[j] * cleared[j].den)
    return out


def solve_linear(a: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of a·x = rhs, or None when rhs is outside the column space."""
    x = _solve_columns(a, [vector(rhs)])[0]
    return None if x is None else x.fractions()


class Subspace:
    """A linear subspace held by its canonical reduced-echelon basis.  It is
    spanned by vectors in either form."""

    __slots__ = ("basis", "ambient_dim")

    def __init__(self, vectors: Iterable[Sequence], ambient_dim: int):
        rows = [(v if type(v) is Scaled else to_integers(vector(v))).ints for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch.of(ambient_dim, len(r))
        # The nonzero rows of the reduced row-echelon form, each over its pivot.
        pivots, _ = _eliminate(rows, ambient_dim)
        self.basis = Matrix._trusted([(row, row[c]) for row, c in zip(rows, pivots)], ambient_dim)
        self.ambient_dim = ambient_dim

    @classmethod
    def _reduced(cls, basis: Matrix) -> "Subspace":
        """The subspace whose canonical basis this module has just built."""
        sub = cls.__new__(cls)
        sub.basis = basis
        sub.ambient_dim = basis.ncols
        return sub

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls._reduced(Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

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
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v against the canonical basis, or None if outside."""
        coords = self.integer_coordinates(v)
        return None if coords is None else coords.fractions()

    def integer_coordinates(self, v: Sequence) -> Scaled | None:
        """`coordinates` for v in either form, as a `Scaled`.

        Row i of the reduced basis is 1 at its pivot column c_i and every
        other row is 0 there, so the coefficient of row i is v[c_i]; v lies
        in the subspace exactly when the residual v - sum v[c_i] row_i,
        taken over the lcm of the row denominators, is zero.
        """
        ints, den = to_integers(v)
        if len(ints) != self.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, len(ints))
        rows = self.basis._cleared()
        coords = [ints[first_nonzero_index(row)] for row, _ in rows]
        common = lcm(*[d for _, d in rows])
        residual = [common * x for x in ints]
        for c, (row, d) in zip(coords, rows):
            if c:
                up = c * (common // d)
                residual = [x - up * y for x, y in zip(residual, row)]
        return None if any(residual) else Scaled(coords, den)

    def meet_values(self, values: Sequence[Sequence]) -> "Subspace":
        """The vectors of this subspace that a linear map L sends to zero,
        with L given by its values on the basis: values[i] = L(k_i) for row
        k_i = ints_i / den_i of `basis.scaled_rows()`, in either form.

        x = K·c lies in the kernel of L exactly when sum c_i L(k_i) = 0, so
        the `null_vectors` are taken of the matrix [L(k_i)] alone, one column
        per basis vector, on the integer rows: column i is
        L(ints_i) = den_i L(k_i), over one common denominator.  Each null
        vector (w, g) is lifted to x = sum w_i ints_i.  K is in reduced
        echelon form, with lead columns p_i and ints_i[p_i] = den_i > 0, and
        w is zero left of g and at the other free columns, so x is zero left
        of p_g and at the leads of the other lifted vectors, and
        x[p_g] = w_g den_g > 0: each x, divided by its content and by
        x[p_g], is a row of the canonical basis of the meet.
        """
        basis = self.basis.scaled_rows()
        if len(values) != len(basis):
            raise DimensionMismatch.of(len(basis), len(values))
        columns = []
        for (ints, den), k in zip(map(to_integers, values), basis):
            g = gcd(k.den, den)
            columns.append(Scaled(ints if g == k.den else [x * (k.den // g) for x in ints], den // g))
        rows = Matrix.from_columns(columns, 0)._elimination_rows()
        basis_columns = list(zip(*[k.ints for k in basis]))
        leads = [first_nonzero_index(k.ints) for k in basis]
        meet = []
        for w, g in null_vectors(rows, len(basis)):
            x = [sum(map(mul, w, col)) for col in basis_columns]
            content = gcd(*x)
            meet.append(([a // content for a in x], x[leads[g]] // content))
        return Subspace._reduced(Matrix._trusted(meet, self.ambient_dim))

    def meet_kernel(self, m: Matrix) -> "Subspace":
        """The vectors of this subspace that m maps to zero: `meet_values`
        with the values of m's integer rows, which have m's kernel, on the
        basis rows."""
        if m.ncols != self.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, m.ncols)
        rows = m._elimination_rows()
        return self.meet_values(
            [Scaled([sum(map(mul, row, k.ints)) for row in rows], k.den) for k in self.basis.scaled_rows()]
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Largest subspace contained in both: this one restricted to the
        equations of the other.

        The equations of a subspace are the kernel of its basis, since x
        lies in the span of the basis rows exactly when every vector
        orthogonal to them is orthogonal to x.
        """
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch.of(self.ambient_dim, other.ambient_dim)
        return self.meet_kernel(kernel(other.basis).basis)


def kernel(m: Matrix) -> Subspace:
    """The solution space {x : m·x = 0}; dimension = ncols - rank.

    `null_vectors` gives the canonical basis directly, one row at a time.
    """
    null = null_vectors(m._elimination_rows(), m.ncols)
    return Subspace._reduced(Matrix._trusted([(z, z[f]) for z, f in null], m.ncols))


def ray_generator(v: Sequence) -> Vector:
    """Canonical generator of the ray through a nonzero v, in either form:
    first nonzero coordinate 1.  The denominator of v cancels."""
    ints, _ = to_integers(v)
    lead = first_nonzero_index(ints)
    if lead is None:
        raise ValueError("a ray needs a nonzero vector")
    return from_integers(ints, ints[lead])


def integer_sqrt_exact(n: int) -> int | None:
    """The integer r with r*r == n, or None when n is not a perfect square."""
    if n < 0:
        raise ValueError("negative input")
    r = isqrt(n)
    return r if r * r == n else None


def rank_one_split(m: Matrix) -> tuple[Scaled, Scaled] | None:
    """Split a rank-one matrix as outer(col, row), or None for rank 0 or 2 and up.

    With p = m[i0][j0] the leading entry, col is column j0 divided by p, so
    its first nonzero coordinate is 1, and row is row i0 of m.  Every other
    split is (t col, row / t) for some t != 0.

    The test runs on the integer rows over one common denominator: m has
    rank one exactly when m[i][j] * p == m[i][j0] * m[i0][j] everywhere.
    """
    rows, den = m.integer_rows()
    i0 = next((i for i, row in enumerate(rows) if any(row)), None)
    if i0 is None:
        return None
    top = rows[i0]
    j0 = first_nonzero_index(top)
    p = top[j0]
    for r in rows:
        x0 = r[j0]
        if any(x * p != x0 * y for x, y in zip(r, top)):
            return None
    sign = 1 if p > 0 else -1
    return Scaled([sign * r[j0] for r in rows], sign * p), Scaled(top, den)
