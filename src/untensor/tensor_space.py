"""Scrambled product-space instances and the rank-one cone oracle.

`TensorSpace` wraps a vector space of dimension m*n whose identification
with an m-by-n coordinate grid is hidden behind a random invertible integer
change of basis (the scramble).  The cone S of simple vectors (images of
rank-one grids, zero included) is exposed through three faces:

* membership: `is_simple`,
* presentation: `quadrics`, the pulled-back two-by-two minor forms,
* sampling: `sample_simple` with an explicit seeded stream.

Recovery code is limited to those three.  `embed_simple` and
`hidden_coordinates` reach behind the scramble and exist for instance
generation, verification, and tests only.

Every form query is a read of one private counted evaluator, `_forms`,
which builds the lists of

    2*B_k(u, w) = u_a w_d + u_d w_a - sign * (u_b w_c + u_c w_b)

over all minors k, for a table of pairs of hidden coordinates u, w.  The
minors are stored once as (a, b, c, d, sign) on flat grid indices, with
sign -1 only on the minor flipped by `inject_quadric_fault`.  The oracle
answers in the `Scaled` form of `linalg`, integers over one positive
denominator, and takes its vector arguments in either form:

* `polar2_table(xs, ys)` is the table itself: entry [i][j] is
  2*B_k(xs[i], ys[j]), as (2*B_k(u, w), q_x q_y);
* `polar2_values(x, y)` is its one entry for [x] against [y];
* `minor_values(v)` is Q_k(v), the diagonal entry of [v] against itself
  halved, as (2*B_k(u, u), 2 q^2);
* `is_simple(v)` is the zero test of that diagonal entry;
* `binary_restriction(d1, d2)` is the three answers Q(d1), 2*B(d1, d2)
  and Q(d2) read off the table of [d1, d2] against itself;
* row k of `polar2_rows(v)` is 2*B_k(v, .) taken against the columns of
  the inverse scramble.  That row is one integer combination of the four
  inverse rows a, b, c, d of minor k, with the hidden coordinates of v as
  coefficients, and the rows reach `linalg` as integers over one common
  denominator (`Matrix.from_integer_rows`).

Here u / q are the hidden coordinates of v (see below).  No Fraction
is built for an answer unless a caller asks for it (`Scaled.fractions`,
`Matrix.rows`), which no recovery path does.  The counting rule: `_forms`
counts one call per batch it evaluates, and every public query is exactly
one evaluation (`polar2_rows` counts its own one), so each query bumps
`oracle_calls` exactly once, however many form values it holds.  A vector
of the wrong length is refused before anything is counted.  A caller that
asks many form values at once asks them as one table, so `polar2_rows`
serves only where a tangent space is taken in full.  `polar2_values` and
`binary_restriction` are one-line reads of the table that could go, but
the benchmark's span tracer times them by name, so they stay until it
does not.

Every answer is the exact value of its forms, and `quadrics` (the
pulled-back Gram matrices) stays the independent reference the form is
tested against.

The inverse scramble is stored once as integer rows over one positive
common denominator, with their common gcd divided out, taken from the
integer rows that eliminating the scramble yields, so the inverse's
Fractions are never built for it.  For an integer scramble these are the
rows of the adjugate divided by its content, up to sign, so the oracle
multiplies no integer larger than an adjugate entry; the determinant
shows in the denominators of the answers instead.  An oracle query
clears the denominators of its input vector, once, in `_scaled_hidden`,
evaluates the form with integer arithmetic and keeps no per-instance
cache of unscrambled vectors.  `hidden_coordinates` reads the same
integers, so the grids that verification inspects are integer matrices
as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import mul
from random import Random
from typing import Sequence

from untensor.errors import DimensionMismatch
from untensor.linalg import (
    Matrix,
    Scaled,
    Vector,
    ZERO,
    format_scalar,
    inverse_and_determinant,
    is_zero_vector,
    parse_integers,
    parse_matrix,
    rank_one_split,
    solve_linear,
    to_integers,
    vector,
)


DEFAULT_SAMPLER_RANGE = 10
_SCRAMBLE_ENTRY_BOUND = 3


@dataclass(frozen=True)
class FactorShape:
    """Dimensions (m, n) of the two hidden factors; ambient dimension is m*n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("factor dimensions must be at least 1")

    @property
    def dim(self) -> int:
        return self.m * self.n

    @property
    def quadric_count(self) -> int:
        return comb(self.m, 2) * comb(self.n, 2)

    @property
    def trivial(self) -> bool:
        return self.m == 1 or self.n == 1

    def flat(self, i: int, j: int) -> int:
        """Row-major index of grid cell (i, j)."""
        return i * self.n + j


@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric quadratic form given by its Gram matrix."""

    gram: Matrix

    def evaluate(self, v: Sequence[Fraction]) -> Fraction:
        gv = self.gram.apply(v)
        return sum((a * b for a, b in zip(v, gv)), ZERO)

    def polarize(self, u: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        """Symmetric bilinear form B with Q(u+w) = Q(u) + Q(w) + 2 B(u, w)."""
        gw = self.gram.apply(w)
        return sum((a * b for a, b in zip(u, gw)), ZERO)


def minor_pullback_gram(carrier: Matrix, minor: tuple[int, int, int, int, int]) -> Matrix:
    """Gram matrix of the signed minor (a, b, c, d, sign), that is the form
    x_a x_d - sign * x_b x_c, pulled back through the linear map given by
    `carrier` (x = carrier * v).

    The four carrier rows are cleared to integers over one denominator D,
    so each entry is an integer over 2 * D^2.
    """
    dim = carrier.ncols
    *indices, sign = minor
    ints, den = to_integers([x for i in indices for x in carrier.rows[i]])
    ra, rb, rc, rd = (ints[k * dim : (k + 1) * dim] for k in range(4))
    scale = 2 * den * den
    gram = []
    for p in range(dim):
        rap, rbp, rcp, rdp = ra[p], rb[p], rc[p], rd[p]
        gram.append(
            tuple(
                Fraction(rap * rd[q] + rdp * ra[q] - sign * (rbp * rc[q] + rcp * rb[q]), scale)
                for q in range(dim)
            )
        )
    return Matrix(gram, dim)


def _signed_minors(shape: FactorShape, fault_index: int | None) -> tuple[tuple[int, int, int, int, int], ...]:
    """The minors x_ij x_kl - x_il x_kj as (a, b, c, d, sign) on flat indices.

    The sign is 1, except -1 on the minor at fault_index (a deliberately
    wrong instance made by `inject_quadric_fault`).
    """
    flat = shape.flat
    cells = [
        (flat(i, j), flat(i, l), flat(k, j), flat(k, l))
        for i in range(shape.m)
        for k in range(i + 1, shape.m)
        for j in range(shape.n)
        for l in range(j + 1, shape.n)
    ]
    return tuple((*cell, -1 if idx == fault_index else 1) for idx, cell in enumerate(cells))


@dataclass
class OracleStats:
    """Diagnostic call counters; not part of instance semantics."""

    oracle_calls: int = 0
    samples: int = 0

    def reset(self) -> None:
        self.oracle_calls = 0
        self.samples = 0


class TensorSpace:
    """A product space of hidden shape (m, n) with its simple-vector cone."""

    def __init__(
        self,
        shape: FactorShape,
        scramble: Matrix,
        *,
        base_factors: tuple[Vector, Vector] | None = None,
        seed: int | None = None,
        sampler_range: int = DEFAULT_SAMPLER_RANGE,
        _fault_index: int | None = None,
    ):
        if scramble.shape != (shape.dim, shape.dim):
            raise DimensionMismatch.of((shape.dim, shape.dim), scramble.shape)
        _check_sampler_range(sampler_range)
        inverse, _ = inverse_and_determinant(scramble)
        if inverse is None:
            raise ValueError("scramble must be invertible")
        self.shape = shape
        self.dim = shape.dim
        self.scramble = scramble
        self.scramble_inverse = inverse
        # The inverse as integer rows over one positive denominator _inv_den,
        # with the common gcd of rows and denominator divided out.
        rows, den = inverse.integer_rows()
        g = gcd(den, *[x for row in rows for x in row])
        self._inv_den = den // g
        self._inv_rows = tuple([x // g for x in row] for row in rows)
        self.seed = seed
        self.sampler_range = sampler_range
        self._fault_index = _fault_index
        self._minors = _signed_minors(shape, _fault_index)
        self.stats = OracleStats()
        self._quadrics: tuple[QuadraticForm, ...] | None = None
        self.base_factors: tuple[Vector, Vector] | None = None
        self.base_point: Vector | None = None
        if base_factors is not None:
            self._point_at(*base_factors)

    def _point_at(self, alpha: Sequence, beta: Sequence) -> None:
        """Make alpha x beta the base point; construction and loading only."""
        alpha, beta = vector(alpha), vector(beta)
        if len(alpha) != self.shape.m or len(beta) != self.shape.n:
            raise DimensionMismatch.of((self.shape.m, self.shape.n), (len(alpha), len(beta)))
        if is_zero_vector(alpha) or is_zero_vector(beta):
            raise ValueError("base factors must be nonzero")
        self.base_factors = (alpha, beta)
        self.base_point = self.embed_simple(alpha, beta)

    # -- oracle facade -----------------------------------------------------

    @property
    def quadric_count(self) -> int:
        return len(self._minors)

    @property
    def quadrics(self) -> tuple[QuadraticForm, ...]:
        """The scrambled minor forms x_ij x_kl - x_il x_kj, built lazily."""
        if self._quadrics is None:
            self._quadrics = tuple(
                QuadraticForm(minor_pullback_gram(self.scramble_inverse, minor)) for minor in self._minors
            )
        return self._quadrics

    def _scaled_hidden(self, v: Sequence) -> tuple[list[int], int]:
        """inverse * v as (u, q): integers u over one positive denominator q.

        v may be a `Scaled` or a sequence of Fractions; this is the one
        place that clears it.  u / q are the hidden coordinates of v.  The
        integer inverse rows make this cheap enough to recompute on every
        query, so no per-instance cache of unscrambled vectors is kept.
        Every query passes here first, so a vector of the wrong length is
        refused here, before it counts as an oracle call.
        """
        ints, den = to_integers(v)
        if len(ints) != self.dim:
            raise DimensionMismatch.of(self.dim, len(ints))
        return [sum(map(mul, row, ints)) for row in self._inv_rows], den * self._inv_den

    def _forms(self, xs: Sequence[Sequence], ys: Sequence[Sequence]) -> list[list[Scaled]]:
        """2*B_k(x, y) for every minor k, for every x in xs and y in ys, as
        one counted query: entry [i][j] is over q_x q_y.

        Every vector is checked for its length before anything is counted,
        and its hidden coordinates are computed once.  When ys is xs the
        table is symmetric, so each pair is evaluated once and the two
        entries share one answer.  Minor k = (a, b, c, d, sign) reads
        x_a x_d - sign * x_b x_c, so a diagonal entry is twice Q_k.
        """
        symmetric = ys is xs
        us = [self._scaled_hidden(x) for x in xs]
        ws = us if symmetric else [self._scaled_hidden(y) for y in ys]
        self.stats.oracle_calls += 1
        minors = self._minors
        table = [[None] * len(ws) for _ in us]
        for i, (u, qu) in enumerate(us):
            for j in range(i if symmetric else 0, len(ws)):
                w, qw = ws[j]
                values = [u[a] * w[d] + u[d] * w[a] - sign * (u[b] * w[c] + u[c] * w[b]) for a, b, c, d, sign in minors]
                table[i][j] = Scaled(values, qu * qw)
                if symmetric:
                    table[j][i] = table[i][j]
        return table

    def minor_values(self, v: Sequence) -> Scaled:
        """All quadric values at v."""
        vs = [v]
        return _halved(self._forms(vs, vs)[0][0])

    def is_simple(self, v: Sequence) -> bool:
        """Whether v lies on the common zero locus of all the quadrics."""
        vs = [v]
        return not any(self._forms(vs, vs)[0][0].ints)

    def polar2_values(self, x: Sequence, y: Sequence) -> Scaled:
        """2*B_k(x, y) for every quadric."""
        return self._forms([x], [y])[0][0]

    def polar2_table(self, xs: Sequence[Sequence], ys: Sequence[Sequence]) -> list[list[Scaled]]:
        """2*B_k(x, y) for every quadric, for every x in xs and y in ys:
        entry [i][j] is polar2_values(xs[i], ys[j]), and the whole batch is
        one query.  Pass ys as xs itself for a symmetric table."""
        return self._forms(xs, ys)

    def polar2_rows(self, v: Sequence) -> Matrix:
        """The stacked linear functionals w -> 2*B_k(v, w), one row per quadric.

        Column p holds the form against column p of the inverse scramble,
        so for minor k = (a, b, c, d, sign) and u the hidden coordinates of
        v, row k is u_d inv_a + u_a inv_d - sign * (u_c inv_b + u_b inv_c)
        over the inverse rows.
        """
        u, q = self._scaled_hidden(v)
        self.stats.oracle_calls += 1
        inv = self._inv_rows
        rows = []
        for a, b, c, d, sign in self._minors:
            ca, cb, cc, cd = u[d], -sign * u[c], -sign * u[b], u[a]
            rows.append(
                [ca * xa + cb * xb + cc * xc + cd * xd for xa, xb, xc, xd in zip(inv[a], inv[b], inv[c], inv[d])]
            )
        return Matrix.from_integer_rows(rows, q * self._inv_den, self.dim)

    def binary_restriction(self, d1: Sequence, d2: Sequence) -> tuple[Scaled, Scaled, Scaled]:
        """Every quadric restricted to span{d1, d2}: (A, B2, C) with
        Q_k(x d1 + y d2) proportional to A_k x^2 + B2_k xy + C_k y^2, the
        answers of minor_values(d1), polar2_values(d1, d2) and
        minor_values(d2) from one query."""
        pair = [d1, d2]
        (aa, ab), (_, bb) = self._forms(pair, pair)
        return _halved(aa), ab, _halved(bb)

    def sample_simple(self, rng: Random) -> Vector:
        """A random member of S: the image of a random nonzero integer grid."""
        self.stats.samples += 1
        alpha = _nonzero_int_vector(rng, self.shape.m, self.sampler_range)
        beta = _nonzero_int_vector(rng, self.shape.n, self.sampler_range)
        return self.embed_simple(alpha, beta)

    # -- generation / verification side -------------------------------------

    def embed_simple(self, alpha: Sequence, beta: Sequence) -> Vector:
        """Scrambled image of the rank-one grid alpha x beta.

        Generation and test-oracle use only; recovery code must not call it.
        """
        alpha = vector(alpha)
        beta = vector(beta)
        if len(alpha) != self.shape.m or len(beta) != self.shape.n:
            raise DimensionMismatch.of((self.shape.m, self.shape.n), (len(alpha), len(beta)))
        flat = tuple(a * b for a in alpha for b in beta)
        return self.scramble.apply(flat)

    def hidden_coordinates(self, v: Sequence) -> Matrix:
        """Unscrambled m-by-n grid of v, as integer rows: the hidden
        coordinates u / q.  Verification and test use only."""
        u, q = self._scaled_hidden(v)
        n = self.shape.n
        return Matrix.from_integer_rows([u[i * n : (i + 1) * n] for i in range(self.shape.m)], q, n)

    def hidden_rank(self, v: Sequence[Fraction]) -> int:
        return self.hidden_coordinates(v).rank()

    def __repr__(self) -> str:
        return f"TensorSpace(shape={self.shape.m}x{self.shape.n}, seed={self.seed})"


def _halved(polar2: Scaled) -> Scaled:
    """A diagonal entry 2*B_k(v, v) read as Q_k(v)."""
    return Scaled(polar2.ints, 2 * polar2.den)


def _check_sampler_range(sampler_range: int) -> None:
    # A range of 0 would make the nonzero-vector sampler loop forever.
    if sampler_range < 1:
        raise ValueError("sampler range must be at least 1")


def _nonzero_int_vector(rng: Random, length: int, bound: int) -> Vector:
    while True:
        entries = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(length))
        if not is_zero_vector(entries):
            return entries


def generate_instance(
    shape: FactorShape | tuple[int, int],
    seed: int,
    *,
    pointed: bool = False,
    sampler_range: int = DEFAULT_SAMPLER_RANGE,
) -> TensorSpace:
    """Draw a scrambled instance; the seed fixes every byte of it.

    The scramble is a random integer matrix with entries in [-3, 3],
    redrawn until invertible; the instance's own elimination of the
    scramble is the invertibility test.  A pointed instance then draws
    nonzero integer base factors and keeps their product as the
    distinguished base point.
    """
    if not isinstance(shape, FactorShape):
        shape = FactorShape(*shape)
    _check_sampler_range(sampler_range)
    rng = Random(seed)
    dim = shape.dim
    bound = _SCRAMBLE_ENTRY_BOUND
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
        try:
            inst = TensorSpace(shape, Matrix.from_integer_rows(rows, 1, dim), seed=seed, sampler_range=sampler_range)
        except ValueError:  # a singular draw
            continue
        break
    if pointed:
        alpha = _nonzero_int_vector(rng, shape.m, sampler_range)
        beta = _nonzero_int_vector(rng, shape.n, sampler_range)
        inst._point_at(alpha, beta)
    return inst


def build_instance(
    shape: FactorShape | tuple[int, int],
    scramble: Matrix | None = None,
    *,
    base_factors: tuple[Sequence, Sequence] | None = None,
    seed: int | None = None,
    sampler_range: int = DEFAULT_SAMPLER_RANGE,
) -> TensorSpace:
    """Instance with an explicit scramble (identity when omitted)."""
    if not isinstance(shape, FactorShape):
        shape = FactorShape(*shape)
    if scramble is None:
        scramble = Matrix.identity(shape.dim)
    return TensorSpace(shape, scramble, base_factors=base_factors, seed=seed, sampler_range=sampler_range)


def inject_quadric_fault(inst: TensorSpace, index: int = 0) -> TensorSpace:
    """Copy of inst with one minor's sign flipped.  Detector-sanity tool."""
    if not 0 <= index < inst.quadric_count:
        raise ValueError("fault index out of range")
    return TensorSpace(
        inst.shape,
        inst.scramble,
        base_factors=inst.base_factors,
        seed=inst.seed,
        sampler_range=inst.sampler_range,
        _fault_index=index,
    )


def verify_rule(inst: TensorSpace, a_list: Sequence[Sequence], b_list: Sequence[Sequence]) -> bool:
    """Check the zero-sum rule on Σ a_j ⊗ b_j.

    The combinatorial side first rewrites any a_j that depends on earlier
    ones in terms of them, accumulating the matching combinations into the
    earlier b's; the reduced sum is zero iff every accumulated b vanishes.
    That prediction is compared against the embedded sum actually being the
    zero vector, and the two must agree.
    """
    m, n = inst.shape.m, inst.shape.n
    a_vecs = [vector(a) for a in a_list]
    b_vecs = [list(vector(b)) for b in b_list]
    if len(a_vecs) != len(b_vecs):
        raise ValueError("factor lists must pair up")
    total = (ZERO,) * inst.dim
    for a, b in zip(a_vecs, b_vecs):
        total = tuple(t + s for t, s in zip(total, inst.embed_simple(a, b)))
    actually_zero = is_zero_vector(total)

    independent: list[tuple[Vector, list[Fraction]]] = []
    for a, b in zip(a_vecs, b_vecs):
        if is_zero_vector(a):
            continue
        coeffs = None
        if independent:
            basis_t = Matrix([ai for ai, _ in independent], m).transpose()
            coeffs = solve_linear(basis_t, a)
        if coeffs is not None:
            for c, (_, acc) in zip(coeffs, independent):
                if c != 0:
                    for i in range(n):
                        acc[i] += c * b[i]
        else:
            independent.append((a, list(b)))
    predicted_zero = all(is_zero_vector(acc) for _, acc in independent)
    return actually_zero == predicted_zero


# -- serialization -----------------------------------------------------------


def instance_payload(inst: TensorSpace) -> dict:
    payload = {
        "m": inst.shape.m,
        "n": inst.shape.n,
        "seed": inst.seed,
        "scramble": [[format_scalar(x) for x in row] for row in inst.scramble.rows],
    }
    if inst.base_point is not None:
        payload["base_point"] = [format_scalar(x) for x in inst.base_point]
    if inst.sampler_range != DEFAULT_SAMPLER_RANGE:
        payload["sampler_range"] = inst.sampler_range
    return payload


def _json_int(value, key: str) -> int:
    """A payload field that the file format promises to be a JSON integer."""
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, not {value!r}")
    return value


def instance_from_payload(payload: dict) -> TensorSpace:
    """The instance a payload describes; the base point is factored through
    the instance itself, so the scramble is eliminated once.  The scramble
    and the base point are parsed straight into integer rows, and the base
    factors are the `rank_one_split` of the base point's hidden grid, which
    is integer rows too."""
    shape = FactorShape(_json_int(payload["m"], "m"), _json_int(payload["n"], "n"))
    scramble = parse_matrix(payload["scramble"], shape.dim)
    sampler_range = _json_int(payload.get("sampler_range", DEFAULT_SAMPLER_RANGE), "sampler_range")
    seed = payload.get("seed")
    if seed is not None:
        _json_int(seed, "seed")
    inst = TensorSpace(shape, scramble, seed=seed, sampler_range=sampler_range)
    if payload.get("base_point") is not None:
        split = rank_one_split(inst.hidden_coordinates(parse_integers(payload["base_point"])))
        if split is None:
            raise ValueError("base_point is not a nonzero simple vector")
        inst._point_at(*(part.fractions() for part in split))
    return inst


def dump_json(payload: dict) -> str:
    """Canonical JSON used for every file this package writes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_instance(path) -> TensorSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_payload(json.load(fh))
