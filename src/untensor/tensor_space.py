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

Internally the minors are evaluated through the adjugate of the
scramble, which multiplies every quadric value by the fixed positive
constant det(scramble)^2.  The scaled values (`minor_values`,
`polar2_values`, `polar2_rows`, `binary_restriction`) therefore have
exactly the same zero sets, kernels, and solution ratios as the exact
forms; `quadric_values` and `QuadraticForm.evaluate` divide the constant
back out when the true values matter.

The adjugate is stored once as integer rows over one positive common
denominator (1 for an integer scramble).  An oracle query clears the
denominators of its input vector and evaluates the minors with integer
dot products; Fractions are built only for the values it returns, and no
per-instance cache of unscrambled vectors is kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul
from random import Random
from typing import Sequence

from untensor.errors import DimensionMismatch
from untensor.linalg import (
    Matrix,
    Vector,
    ZERO,
    determinant,
    factor_rank_one,
    format_scalar,
    frac,
    from_integers,
    is_zero_vector,
    solve_linear,
    to_integers,
    vector,
)


DEFAULT_SAMPLER_RANGE = 10


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


def minor_pullback_gram(carrier: Matrix, minor: tuple[int, int, int, int], sign: int = 1) -> Matrix:
    """Gram matrix of the minor form x_a x_d - sign * x_b x_c pulled back
    through the linear map given by `carrier` (x = carrier * v).

    The four carrier rows are cleared to integers over one denominator D,
    so each entry is an integer over 2 * D^2.
    """
    dim = carrier.ncols
    ints, den = to_integers([x for i in minor for x in carrier.rows[i]])
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


@dataclass
class OracleStats:
    """Diagnostic call counters; not part of instance semantics."""

    membership: int = 0
    quadric_evals: int = 0
    polarizations: int = 0
    samples: int = 0

    def reset(self) -> None:
        self.membership = 0
        self.quadric_evals = 0
        self.polarizations = 0
        self.samples = 0

    @property
    def oracle_calls(self) -> int:
        return self.membership + self.quadric_evals + self.polarizations


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
        det = determinant(scramble)
        if det == 0:
            raise ValueError("scramble must be invertible")
        self.shape = shape
        self.dim = shape.dim
        self.scramble = scramble
        self.scramble_inverse = scramble.inverse()
        # det * inverse is the adjugate, held as integer rows over the common
        # denominator _adj_den (1 whenever the scramble is integral).
        flat, self._adj_den = to_integers([x for row in self.scramble_inverse.scale(det).rows for x in row])
        self._adj_rows = tuple(flat[i * self.dim : (i + 1) * self.dim] for i in range(self.dim))
        self._det2 = det * det
        self.seed = seed
        self.sampler_range = sampler_range
        self._fault_index = _fault_index
        self._minors = tuple(self._minor_indices())
        self.stats = OracleStats()
        self._quadrics: tuple[QuadraticForm, ...] | None = None
        if base_factors is not None:
            alpha, beta = vector(base_factors[0]), vector(base_factors[1])
            if len(alpha) != shape.m or len(beta) != shape.n:
                raise DimensionMismatch.of((shape.m, shape.n), (len(alpha), len(beta)))
            if is_zero_vector(alpha) or is_zero_vector(beta):
                raise ValueError("base factors must be nonzero")
            self.base_factors: tuple[Vector, Vector] | None = (alpha, beta)
            self.base_point: Vector | None = self.embed_simple(alpha, beta)
        else:
            self.base_factors = None
            self.base_point = None

    def _minor_indices(self):
        m, n = self.shape.m, self.shape.n
        for i in range(m):
            for k in range(i + 1, m):
                for j in range(n):
                    for l in range(j + 1, n):
                        yield (
                            self.shape.flat(i, j),
                            self.shape.flat(i, l),
                            self.shape.flat(k, j),
                            self.shape.flat(k, l),
                        )

    def _minor_sign(self, index: int) -> int:
        return 1 if index != self._fault_index else -1

    # -- oracle facade -----------------------------------------------------

    @property
    def quadric_count(self) -> int:
        return len(self._minors)

    @property
    def quadrics(self) -> tuple[QuadraticForm, ...]:
        """The scrambled minor forms x_ij x_kl - x_il x_kj, built lazily."""
        if self._quadrics is None:
            self._quadrics = tuple(
                QuadraticForm(minor_pullback_gram(self.scramble_inverse, minor, self._minor_sign(idx)))
                for idx, minor in enumerate(self._minors)
            )
        return self._quadrics

    def _scaled_hidden(self, v: Sequence[Fraction]) -> tuple[list[int], int]:
        """adjugate * v as (u, q): integers u over one positive denominator q.

        u / q are the hidden coordinates of v scaled by det(scramble).  The
        integer adjugate rows make this cheap enough to recompute on every
        query, so no per-instance cache of unscrambled vectors is kept.
        """
        ints, den = to_integers(v)
        return [sum(map(mul, row, ints)) for row in self._adj_rows], den * self._adj_den

    def minor_values(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """All quadric values at v, scaled by the fixed constant det^2."""
        if len(v) != self.dim:
            raise DimensionMismatch.of(self.dim, len(v))
        self.stats.quadric_evals += 1
        u, q = self._scaled_hidden(v)
        out = []
        for idx, (a, b, c, d) in enumerate(self._minors):
            cross = u[b] * u[c]
            out.append(u[a] * u[d] - cross if self._minor_sign(idx) == 1 else u[a] * u[d] + cross)
        return from_integers(out, q * q)

    def quadric_values(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Exact values of every quadric at v."""
        return tuple(x / self._det2 for x in self.minor_values(v))

    def is_simple(self, v: Sequence[Fraction]) -> bool:
        """Whether v lies on the common zero locus of all the quadrics."""
        if len(v) != self.dim:
            raise DimensionMismatch.of(self.dim, len(v))
        self.stats.membership += 1
        u, _ = self._scaled_hidden(v)
        for idx, (a, b, c, d) in enumerate(self._minors):
            if self._minor_sign(idx) == 1:
                if u[a] * u[d] != u[b] * u[c]:
                    return False
            elif u[a] * u[d] + u[b] * u[c] != 0:
                return False
        return True

    def polar2_values(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """2*B_k(x, y) for every quadric, scaled by det^2."""
        self.stats.polarizations += 1
        u, qu = self._scaled_hidden(x)
        w, qw = self._scaled_hidden(y)
        out = []
        for idx, (a, b, c, d) in enumerate(self._minors):
            cross = u[b] * w[c] + u[c] * w[b]
            direct = u[a] * w[d] + u[d] * w[a]
            out.append(direct - cross if self._minor_sign(idx) == 1 else direct + cross)
        return from_integers(out, qu * qw)

    def polar2_rows(self, v: Sequence[Fraction]) -> Matrix:
        """The stacked linear functionals w -> 2*B_k(v, w), one row per quadric.

        Rows share the det^2 scale, so kernels and solution ratios agree
        with the exact polarizations.
        """
        self.stats.polarizations += 1
        u, q = self._scaled_hidden(v)
        w_rows = self._adj_rows
        den = q * self._adj_den
        rows = []
        for idx, (a, b, c, d) in enumerate(self._minors):
            sign = self._minor_sign(idx)
            ra, rb, rc, rd = w_rows[a], w_rows[b], w_rows[c], w_rows[d]
            ua, ub, uc, ud = u[a], u[b], u[c], u[d]
            if sign == 1:
                row = [ud * pa + ua * pd - uc * pb - ub * pc for pa, pb, pc, pd in zip(ra, rb, rc, rd)]
            else:
                row = [ud * pa + ua * pd + uc * pb + ub * pc for pa, pb, pc, pd in zip(ra, rb, rc, rd)]
            rows.append(from_integers(row, den))
        return Matrix(rows, self.dim)

    def binary_restriction(
        self, d1: Sequence[Fraction], d2: Sequence[Fraction]
    ) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """Each quadric restricted to span{d1, d2} as (A, B2, C) with
        Q(x d1 + y d2) proportional to A x^2 + B2 xy + C y^2."""
        self.stats.polarizations += 1
        u, qu = self._scaled_hidden(d1)
        w, qw = self._scaled_hidden(d2)
        out = []
        for idx, (a, b, c, d) in enumerate(self._minors):
            sign = self._minor_sign(idx)
            if sign == 1:
                qa = u[a] * u[d] - u[b] * u[c]
                qc = w[a] * w[d] - w[b] * w[c]
                qb = u[a] * w[d] + u[d] * w[a] - u[b] * w[c] - u[c] * w[b]
            else:
                qa = u[a] * u[d] + u[b] * u[c]
                qc = w[a] * w[d] + w[b] * w[c]
                qb = u[a] * w[d] + u[d] * w[a] + u[b] * w[c] + u[c] * w[b]
            out.append((Fraction(qa, qu * qu), Fraction(qb, qu * qw), Fraction(qc, qw * qw)))
        return tuple(out)

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

    def hidden_coordinates(self, v: Sequence[Fraction]) -> Matrix:
        """Unscrambled m-by-n grid of v.  Verification and test use only."""
        if len(v) != self.dim:
            raise DimensionMismatch.of(self.dim, len(v))
        u = self.scramble_inverse.apply(v)
        n = self.shape.n
        return Matrix(tuple(tuple(u[i * n : (i + 1) * n]) for i in range(self.shape.m)), n)

    def hidden_rank(self, v: Sequence[Fraction]) -> int:
        return self.hidden_coordinates(v).rank()

    def __repr__(self) -> str:
        return f"TensorSpace(shape={self.shape.m}x{self.shape.n}, seed={self.seed})"


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
    scramble_entry_bound: int = 3,
) -> TensorSpace:
    """Draw a scrambled instance; the seed fixes every byte of it.

    The scramble is a random integer matrix with entries in
    [-scramble_entry_bound, scramble_entry_bound], redrawn until invertible.
    A pointed instance also draws nonzero integer base factors and keeps
    their product as the distinguished base point.
    """
    if not isinstance(shape, FactorShape):
        shape = FactorShape(*shape)
    _check_sampler_range(sampler_range)
    rng = Random(seed)
    dim = shape.dim
    while True:
        rows = [[rng.randint(-scramble_entry_bound, scramble_entry_bound) for _ in range(dim)] for _ in range(dim)]
        scramble = Matrix(rows, dim)
        if determinant(scramble) != 0:
            break
    base = None
    if pointed:
        alpha = _nonzero_int_vector(rng, shape.m, sampler_range)
        beta = _nonzero_int_vector(rng, shape.n, sampler_range)
        base = (alpha, beta)
    return TensorSpace(shape, scramble, base_factors=base, seed=seed, sampler_range=sampler_range)


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


def with_base_factors(inst: TensorSpace, alpha: Sequence, beta: Sequence) -> TensorSpace:
    """A copy of inst sharing the scramble, pointed at alpha x beta."""
    return TensorSpace(
        inst.shape,
        inst.scramble,
        base_factors=(vector(alpha), vector(beta)),
        seed=inst.seed,
        sampler_range=inst.sampler_range,
        _fault_index=inst._fault_index,
    )


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


def instance_from_payload(payload: dict) -> TensorSpace:
    shape = FactorShape(int(payload["m"]), int(payload["n"]))
    scramble = Matrix([[frac(x) for x in row] for row in payload["scramble"]], shape.dim)
    base = None
    if "base_point" in payload and payload["base_point"] is not None:
        point = vector(payload["base_point"])
        probe = TensorSpace(shape, scramble)
        grid = probe.hidden_coordinates(point)
        factors = factor_rank_one(grid)
        if factors is None or is_zero_vector(factors[0]):
            raise ValueError("base_point is not a nonzero simple vector")
        base = factors
    seed = payload.get("seed")
    sampler_range = int(payload.get("sampler_range", DEFAULT_SAMPLER_RANGE))
    return TensorSpace(shape, scramble, base_factors=base, seed=seed, sampler_range=sampler_range)


def dump_json(payload: dict) -> str:
    """Canonical JSON used for every file this package writes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_instance(inst: TensorSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(instance_payload(inst)))


def load_instance(path) -> TensorSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_payload(json.load(fh))
