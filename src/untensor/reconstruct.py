"""Factor recovery, the derived product, and the round-trip verdict.

`recover_factors` picks a base point w0 on the cone and takes the two
sheets through it as the recovered factor pair (W1, W2).  The derived
product W1 x W2 -> V is the square completion `complete_square(w0, w2,
w1)`, whose proportional cases give the stipulations w0 * w0 = w0,
w0 * w2 = w2 and w1 * w0 = w1; it is bilinear, and induces a linear
isomorphism from the coefficient space of the two canonical bases onto
V.  Simple vectors are exactly the images of rank-one coefficient grids,
which gives exact factorization and a tensor-rank function.

`derived_product` completes one square at a time and stays the
definition.  `product_matrix` builds the d1 * d2 products of basis
vectors without completing a square.  With p and q the first basis
vectors on which w0 has a nonzero coordinate, the (d1 - 1)(d2 - 1) pairs
off the w0 row p and column q come together from linear conditions at
w0: one batched solve against the polar rows of w0, with every right-hand
side in the same system, one small batched solve per basis vector for the
parts in W1 and W2, and one linear equation for the scale along w0 (see
`_generic_products`).  Each solve is read off the null vectors of one
system (`linalg._solve_columns`), so a tall one is taken in square blocks,
as a tall kernel is.  Bilinearity and the stipulations then fill row p
and column q as linear combinations of basis vectors and those products.
The vectors passed between these steps are `Scaled` integers, and φ is
born as integer rows.  One rank of φ checks that the products span V;
φ⁻¹, which only `coefficient_grid` reads, is built the first time it is
asked for and kept as integer rows over one common denominator, so a
coefficient grid is an integer matrix and `factorize_simple` and
`tensor_rank` build no Fraction until they return factors.

`verify_round_trip` is the only place that deliberately looks behind the
scramble, and it reads everything from `rank_one_split`s of hidden grids.
The split of w0 gives the canonical hidden factors; every recovered basis
vector must split against one of them, which matches the recovered sheets
to the hidden ones and fixes the swap; and one `proportionality_ratio`
over the flattened matrices extracts the single rational scale relating
the derived product to the hidden product, which is precisely the
one-parameter freedom a factor recovery can never remove.  The hidden
grids, their splits, φ and the hidden products are all read as integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from random import Random
from typing import Sequence

from untensor.errors import (
    Degenerate,
    InconsistentSquare,
    MembershipViolated,
    NotSimpleVector,
    PreconditionViolated,
    RankDeficient,
    RankViolation,
    ZeroVector,
)
from untensor.foliation import Sheet, SheetPair, sheets_through
from untensor.linalg import (
    ZERO,
    Matrix,
    Scaled,
    Subspace,
    Vector,
    _solve_columns,
    first_nonzero_index,
    format_scalar,
    is_zero_vector,
    linear_combination,
    proportionality_ratio,
    rank_one_split,
    ray_generator,
    to_integers,
    vector,
    vzero,
)
from untensor.squares import common_root, complete_square
from untensor.tensor_space import TensorSpace


class Reconstruction:
    """A recovered factor pair anchored at a base point.

    The bases default to the canonical echelon bases of the two sheets;
    `with_bases` swaps in other bases of the same sheets, which is how the
    joint-rescaling invariance gets exercised.  Both are kept as `Scaled`
    rows, `rows_e` and `rows_f`, which every computation reads; the
    Fraction vectors `basis_e` and `basis_f` are built the first time they
    are read.  Given bases may come in either form.
    """

    def __init__(
        self,
        inst: TensorSpace,
        w0: Vector,
        pair: SheetPair,
        *,
        basis_e: Sequence[Sequence] | None = None,
        basis_f: Sequence[Sequence] | None = None,
    ):
        self.inst = inst
        self.w0 = tuple(w0)
        self.pair = pair
        self.rows_e = [to_integers(v) for v in basis_e] if basis_e else pair.first.subspace.basis.scaled_rows()
        self.rows_f = [to_integers(v) for v in basis_f] if basis_f else pair.second.subspace.basis.scaled_rows()
        self._canonical = (not basis_e, not basis_f)
        self._phi: Matrix | None = None
        self._phi_inv: Matrix | None = None

    @cached_property
    def basis_e(self) -> tuple[Vector, ...]:
        return tuple(v.fractions() for v in self.rows_e)

    @cached_property
    def basis_f(self) -> tuple[Vector, ...]:
        return tuple(v.fractions() for v in self.rows_f)

    @property
    def sheet_w1(self) -> Sheet:
        return self.pair.first

    @property
    def sheet_w2(self) -> Sheet:
        return self.pair.second

    @property
    def dims(self) -> tuple[int, int]:
        return self.pair.dims

    def with_bases(self, basis_e: Sequence[Sequence], basis_f: Sequence[Sequence]) -> "Reconstruction":
        basis_e = [to_integers(vector(v)) for v in basis_e]
        basis_f = [to_integers(vector(v)) for v in basis_f]
        if Subspace(basis_e, self.inst.dim) != self.sheet_w1.subspace or len(basis_e) != self.dims[0]:
            raise MembershipViolated("basis_e must be a basis of the first sheet")
        if Subspace(basis_f, self.inst.dim) != self.sheet_w2.subspace or len(basis_f) != self.dims[1]:
            raise MembershipViolated("basis_f must be a basis of the second sheet")
        return Reconstruction(self.inst, self.w0, self.pair, basis_e=basis_e, basis_f=basis_f)

    # -- the derived product -------------------------------------------------

    def derived_product(self, w1: Sequence, w2: Sequence) -> Vector:
        """Bilinear product of the recovered factors, valued in V.

        The completion of the square (w0, w2 / w1, ?); an argument
        proportional to w0 scales the other one, and a zero argument gives
        the zero vector.
        """
        w1 = tuple(w1)
        w2 = tuple(w2)
        if not self.sheet_w1.contains(w1):
            raise MembershipViolated("first argument is outside the first sheet")
        if not self.sheet_w2.contains(w2):
            raise MembershipViolated("second argument is outside the second sheet")
        if is_zero_vector(w1) or is_zero_vector(w2):
            return vzero(self.inst.dim)
        return complete_square(self.inst, self.w0, w2, w1)

    @property
    def product_matrix(self) -> Matrix:
        """Matrix of the induced map from coefficient grids to V.

        Column (j, k) (row-major over basis_e then basis_f) is the derived
        product of e_j and f_k.  The product is bilinear, and w0 * f = f and
        e * w0 = e fix it on the w0 directions.  So with w0 = sum a_j e_j =
        sum b_k f_k, p the first j with a_j != 0 and q the first k with
        b_k != 0, only the pairs j != p, k != q come from the linear
        conditions at w0 (`_generic_products`), and the rest by bilinearity:

            phi(e_j, f_q) = (e_j - sum_{k != q} b_k phi(e_j, f_k)) / b_q   for j != p,
            phi(e_p, f_k) = (f_k - sum_{j != p} a_j phi(e_j, f_k)) / a_p   for every k;

        at k = q the second is also w0 * w0 = w0.  Only a dependent basis
        has an e_j proportional to w0 at j != p (or an f_k at k != q); that
        pair takes the scaling rule t f_k (or t e_j) instead.  The
        coordinates are read off the pivot columns of a canonical basis and
        solved for against any other, and a w0 outside the span of a basis
        raises InconsistentSquare.
        """
        if self._phi is None:
            w0 = to_integers(self.w0)
            es, fs = self.rows_e, self.rows_f
            a = self._w0_coordinates(es, self.sheet_w1, self._canonical[0])
            b = self._w0_coordinates(fs, self.sheet_w2, self._canonical[1])
            p, q = first_nonzero_index(a.ints), first_nonzero_index(b.ints)
            e_ratios = {j: proportionality_ratio(w0, e) for j, e in enumerate(es) if j != p}
            f_ratios = {k: proportionality_ratio(w0, f) for k, f in enumerate(fs) if k != q}
            products = self._generic_products(
                [(j, es[j]) for j, t in e_ratios.items() if t is None],
                [(k, fs[k]) for k, t in f_ratios.items() if t is None],
            )
            for j, t in e_ratios.items():
                for k, u in f_ratios.items():
                    if t is not None:
                        products[j, k] = linear_combination([fs[k]], [t])
                    elif u is not None:
                        products[j, k] = linear_combination([es[j]], [u])
                products[j, q] = _remainder(es[j], {k: products[j, k] for k in f_ratios}, b, q)
            for k, f in enumerate(fs):
                products[p, k] = _remainder(f, {j: products[j, k] for j in e_ratios}, a, p)
            phi = Matrix.from_columns([products[j, k] for j in range(len(es)) for k in range(len(fs))])
            if phi.rank() < self.inst.dim:
                raise RankDeficient("derived products of the basis pairs do not span V")
            self._phi = phi
        return self._phi

    def _w0_coordinates(self, basis: list[Scaled], sheet: Sheet, canonical: bool) -> Scaled:
        """The coordinates of w0 in basis: read off the pivot columns when
        basis is the canonical basis of sheet, else one solve."""
        if canonical:
            coords = sheet.subspace.integer_coordinates(self.w0)
        else:
            coords = _solve_columns(Matrix.from_columns(basis), [self.w0])[0]
        if coords is None:
            raise InconsistentSquare(_NO_CORNER)
        return coords

    def _generic_products(
        self, es: list[tuple[int, Scaled]], fs: list[tuple[int, Scaled]]
    ) -> dict[tuple[int, int], Scaled]:
        """The derived product d of e_j and f_k for every (j, e_j) in es and
        (k, f_k) in fs, keyed by (j, k); no e_j or f_k is proportional to w0.
        `product_matrix` passes the pairs off the w0 row and column, so the
        solves below carry (d1 - 1)(d2 - 1) right-hand sides in all.

        d completes the square (w0, f; e, d), and three linear facts at w0
        pin it (B is the polar form of every quadric at once):

        1. In Q(w0 + e + f + d) = 0 every other term vanishes, so
           2B(w0, d) = -2B(e, f).  One batched solve against
           `polar2_rows(w0)` covers all pairs, giving a d0 with d - d0 in the
           tangent space T(w0) = W1 + W2.
        2. d shares a sheet with e and one with f, and B(e, .) vanishes on
           W1, B(f, .) on W2.  So B(e_j, d) = 0 fixes the W2 part of d - d0
           modulo w0, through the matrix [2B(e_j, f_k')] over k', which
           depends on j only; likewise B(f_k, d) = 0 fixes the W1 part
           through [2B(e_j', f_k)] over j'.
        3. What is left is the scale along w0: d = d' - s w0 for the d'
           found so far.  Since Q(w0) = 0 and 2B(w0, d') = -2B(e, f),
           Q(d' - s w0) = Q(d') + s 2B(e, f) is linear in s, and every
           quadric must agree on its root.

        The form values come from `polar2_table` queries: one for the
        2B(e, f) table, and one per e and one per f for the right-hand sides
        of step 2, so each vector's hidden coordinates are computed once per
        query.  Everything stays in the `Scaled` form: the oracle's answers,
        the solutions y, the W1 and W2 parts,
        d' and the products d, each integers over one positive denominator,
        and common_root compares the quadrics by cross-multiplying them; s
        is the one Fraction per product.  An inconsistent solve or
        disagreeing quadrics raise InconsistentSquare, and a scale no
        quadric pins raises Degenerate.
        """
        if not es or not fs:
            return {}
        inst, w0 = self.inst, to_integers(self.w0)
        e_vectors, f_vectors = [e for _, e in es], [f for _, f in fs]
        # table[a][b] = 2B(e, f) for the a-th generic e and b-th generic f.
        table = inst.polar2_table(e_vectors, f_vectors)
        # 1. y = -d0 solves 2B(w0, y) = 2B(e, f).
        flat = _solved(inst.polar2_rows(w0), [x for row in table for x in row])
        y = [flat[a * len(fs) : (a + 1) * len(fs)] for a in range(len(es))]
        # 2. With d = -y + x1 + x2 (x1 in W1, x2 in W2), B(e, d) = 0 reads
        #    B(e, x2) = B(e, y), and B(f, d) = 0 reads B(f, x1) = B(f, y).
        on_f = [
            _solved(Matrix.from_columns(table[a]), inst.polar2_table([e], y[a])[0]) for a, e in enumerate(e_vectors)
        ]
        on_e = [
            _solved(Matrix.from_columns([row[b] for row in table]), inst.polar2_table([f], [ya[b] for ya in y])[0])
            for b, f in enumerate(f_vectors)
        ]
        # 3. The scale s along w0, from Q(d' - s w0) = Q(d') + s 2B(e, f).
        out = {}
        for a, (j, _) in enumerate(es):
            for b, (k, _) in enumerate(fs):
                x1 = linear_combination(e_vectors, on_e[b][a])
                x2 = linear_combination(f_vectors, on_f[a][b])
                d_prime = linear_combination((x1, x2, y[a][b]), (1, 1, -1))
                s = common_root(inst.minor_values(d_prime), table[a][b])
                out[j, k] = linear_combination((d_prime, w0), (1, -s))
        return out

    @property
    def product_matrix_inverse(self) -> Matrix:
        """φ⁻¹ as integer rows over one common denominator, built the first
        time it is read; recovery and verification never read it."""
        if self._phi_inv is None:
            rows, den = self.product_matrix.inverse().integer_rows()
            self._phi_inv = Matrix.from_integer_rows(rows, den, self.inst.dim)
        return self._phi_inv

    def coefficient_grid(self, v: Sequence) -> Matrix:
        """v pulled back through the product map, as a dims[0] x dims[1]
        grid of integer rows; no Fraction is built."""
        ints, vden = to_integers(v)
        rows, den = self.product_matrix_inverse.integer_rows()
        coeffs = [sum(map(mul, row, ints)) for row in rows]
        d1, d2 = self.dims
        return Matrix.from_integer_rows([coeffs[j * d2 : (j + 1) * d2] for j in range(d1)], den * vden, d2)

    def factorize_simple(self, v: Sequence) -> tuple[Vector, Vector]:
        """Split a simple vector as a derived product of factor members.

        The coefficient grid of a simple vector has rank at most one; it is
        split by `rank_one_split`, so the first factor's leading coefficient
        is 1, and the zero vector factors as (0, 0).
        """
        v = to_integers(tuple(v))
        if not self.inst.is_simple(v):
            raise NotSimpleVector("only members of the cone factor")
        if not any(v.ints):
            return (vzero(self.inst.dim), vzero(self.inst.dim))
        split = rank_one_split(self.coefficient_grid(v))
        if split is None:
            raise RankViolation("coefficient grid of a simple vector has rank >= 2")
        cvec, rvec = split
        return (linear_combination(self.rows_e, cvec).fractions(), linear_combination(self.rows_f, rvec).fractions())

    def tensor_rank(self, v: Sequence) -> int:
        """Minimum number of simple summands: the rank of the coefficient grid."""
        return self.coefficient_grid(v).rank()


_NO_CORNER = "the linear conditions at the base point admit no corner"


def _solved(a: Matrix, columns: list[Scaled]) -> list[Scaled]:
    """The solutions of a·x = b for every b in columns, all of which must exist."""
    solutions = _solve_columns(a, columns)
    if None in solutions:
        raise InconsistentSquare(_NO_CORNER)
    return solutions


def _remainder(total: Scaled, parts: dict[int, Scaled], coords: Scaled, lead: int) -> Scaled:
    """The x with c_lead x + sum c_i parts[i] = total, for c = coords with
    c_lead != 0: (den total - sum ints_i parts[i]) / ints_lead, as one
    `linear_combination` with the sign of ints_lead moved to the weights."""
    ints, den = coords
    sign = 1 if ints[lead] > 0 else -1
    weights = [sign * den] + [-sign * ints[i] for i in parts]
    return linear_combination([total, *parts.values()], Scaled(weights, sign * ints[lead]))


def recover_factors(inst: TensorSpace, rng: Random, w0: Sequence | None = None) -> Reconstruction:
    """Recover the factor pair through a base point.

    A missing w0 falls back to the instance's base point, then to a fresh
    sample, the only draw from rng.  `sheets_through` checks through
    `tangent_space` that w0 is nonzero and simple, once.  Shapes with a
    one-dimensional factor have no quadrics at all (the cone is the whole
    space, so every vector is simple); there the first factor is V itself
    and the second is the ray of w0, which must be nonzero.
    """
    if w0 is None:
        w0 = inst.base_point if inst.base_point is not None else inst.sample_simple(rng)
    w0 = tuple(w0)
    if inst.quadric_count:
        return Reconstruction(inst, w0, sheets_through(inst, w0))
    if is_zero_vector(w0):
        raise ZeroVector("the base point must be nonzero")
    pair = SheetPair(first=Sheet(Subspace.full(inst.dim)), second=Sheet(Subspace([w0], inst.dim)))
    return Reconstruction(inst, w0, pair)


# -- round-trip verification --------------------------------------------------


@dataclass
class RoundTripReport:
    success: bool
    m: int
    n: int
    swap: bool
    lam: Fraction | None
    oracle_calls: int
    samples_used: int
    sheet_dims: tuple[int, int]
    reason: str | None = None

    def to_payload(self) -> dict:
        payload = {
            "success": self.success,
            "m": self.m,
            "n": self.n,
            "swap": self.swap,
            "lambda": format_scalar(self.lam) if self.lam is not None else None,
            "oracle_calls": self.oracle_calls,
            "samples_used": self.samples_used,
            "sheet_dims": list(self.sheet_dims),
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        return payload


def _side_vector(grid: Matrix, hat: Sequence) -> Scaled | None:
    """p with grid == outer(p, hat) for a nonzero hat, if such a nonzero p
    exists; the column side is this on the transpose.

    With grid == outer(col, row) its split, p is t col for the t with
    row == t hat.
    """
    split = rank_one_split(grid)
    if split is None:
        return None
    col, row = split
    t = proportionality_ratio(hat, row)
    return None if t is None else linear_combination([col], [t])


def _flat_outer(x: Vector, y: Vector) -> Scaled:
    """The grid outer(x, y), flattened row-major like `embed_simple`."""
    (xs, dx), (ys, dy) = to_integers(x), to_integers(y)
    return Scaled([a * b for a in xs for b in ys], dx * dy)


def _flattened(m: Matrix) -> Scaled:
    """The entries of m, row by row, over one common denominator."""
    rows, den = m.integer_rows()
    return Scaled([x for row in rows for x in row], den)


def verify_round_trip(inst: TensorSpace, recon: Reconstruction) -> RoundTripReport:
    """Compare a reconstruction against the hidden factorization.

    With w0 = scale * alpha_hat x beta_hat its canonical rank-one gauge
    (alpha_hat and beta_hat with first nonzero coordinate 1, read off the
    `rank_one_split` of its hidden grid), the recovered sheets equal the
    hidden sheets through w0 exactly when their dimensions are (m, n) and
    every basis vector of the first splits as p x beta_hat and every one of
    the second as alpha_hat x q, or, swapped, (n, m) with the roles
    exchanged; the unswapped reading is tried first.
    On top of that, the derived products of all basis pairs must reproduce
    the hidden products of the split parts up to one global rational
    scale, reported as lambda, which must equal scale.
    """
    m, n = inst.shape.m, inst.shape.n

    def report(success, swap=False, lam=None, reason=None):
        return RoundTripReport(
            success=success,
            m=m,
            n=n,
            swap=swap,
            lam=lam,
            oracle_calls=inst.stats.oracle_calls,
            samples_used=inst.stats.samples,
            sheet_dims=recon.dims,
            reason=reason,
        )

    split = rank_one_split(inst.hidden_coordinates(recon.w0))
    if split is None:
        return report(False, reason="base point is not rank one behind the scramble")
    alpha_hat, row = split
    beta_hat = ray_generator(row)
    scale = proportionality_ratio(beta_hat, row)

    # d independent members of a d-dimensional hidden sheet span it, and
    # only multiples of w0 lie in both hidden sheets, so at most one
    # orientation splits a basis of two or more vectors.
    grids_e = [inst.hidden_coordinates(e) for e in recon.rows_e]
    grids_f = [inst.hidden_coordinates(f) for f in recon.rows_f]
    for swap in (False, True):
        if recon.dims != ((n, m) if swap else (m, n)):
            continue
        if swap:
            first_parts = [_side_vector(g.transpose(), alpha_hat) for g in grids_e]
            second_parts = [_side_vector(g, beta_hat) for g in grids_f]
        else:
            first_parts = [_side_vector(g, beta_hat) for g in grids_e]
            second_parts = [_side_vector(g.transpose(), alpha_hat) for g in grids_f]
        if None not in first_parts + second_parts:
            break
    else:
        return report(False, reason="recovered sheets differ from the hidden sheets")

    # Bases that were not checked (see `with_bases`) may have no product
    # matrix at all; that is a failed round trip, not an error.
    try:
        phi = recon.product_matrix
    except (PreconditionViolated, InconsistentSquare, Degenerate, RankDeficient) as exc:
        return report(False, swap=swap, reason=str(exc))
    # Column j * d2 + k of phi is the derived product of basis pair (j, k),
    # and the same column of the predicted matrix is the scrambled grid
    # outer(pj, qk).  In the swapped orientation the first sheet holds the
    # column side, so that grid pairs qk (rows) with pj (columns).  Both
    # matrices are read as integer rows, in the same order.
    pairs = [(qk, pj) if swap else (pj, qk) for pj in first_parts for qk in second_parts]
    predicted = inst.scramble @ Matrix.from_columns([_flat_outer(x, y) for x, y in pairs])
    derived, predicted = _flattened(phi), _flattened(predicted)
    # An all-zero phi leaves no scale to extract, like an all-zero prediction.
    lam = ZERO if not any(derived.ints) else proportionality_ratio(derived, predicted)
    if lam is None:
        return report(False, swap=swap, reason="hidden products are not a single scale of the derived ones")
    if lam == 0:
        return report(False, swap=swap, reason="could not extract a product scale")
    if lam != scale:
        return report(False, swap=swap, lam=lam, reason="product scale disagrees with the base-point gauge")
    return report(True, swap=swap, lam=lam)
