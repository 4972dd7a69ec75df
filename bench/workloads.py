"""The benchmark's workloads.

A run sets up several copies of its workload; copy k of a run with seed s
makes every input from the string seed "s.k" and the operation index, so a
seed fixes the whole sequence of operations.  `setup` runs the
program calls that precede the first timed operation and pre-makes the
inputs of the first `pool` operations; later inputs are made on demand,
outside the timed call.  `run` is the timed call.  `check` compares its
result exactly with the hidden factorization and runs outside the timing.

Program functions are looked up on their modules at call time, so that the
traced run sees the wrappers `tracing.install` put there.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from untensor import functors, reconstruct, squares, tensor_space
from untensor.linalg import Matrix, is_zero_vector, proportionality_ratio, vadd


def _rng(*parts) -> Random:
    # String seeds hash with SHA-512, so the stream does not depend on PYTHONHASHSEED.
    return Random("/".join(str(p) for p in parts))


def _seed(*parts) -> int:
    return _rng(*parts).getrandbits(32)


def _int_vector(rng: Random, length: int, bound: int = 9) -> tuple:
    while True:
        v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(length))
        if not is_zero_vector(v):
            return v


def _independent_of(rng: Random, base: tuple) -> tuple:
    while True:
        v = _int_vector(rng, len(base))
        if proportionality_ratio(base, v) is None:
            return v


def _invertible(rng: Random, n: int, bound: int = 3) -> Matrix:
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def entry_bits(recons) -> int:
    """Largest numerator or denominator bit length in the sheet bases, φ and φ⁻¹."""
    bits = 0
    for recon in recons:
        rows = (
            recon.sheet_w1.subspace.basis.rows
            + recon.sheet_w2.subspace.basis.rows
            + recon.product_matrix.rows
            + recon.product_matrix_inverse.rows
        )
        for row in rows:
            for x in row:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


class Workload:
    """One copy of a workload; subclasses set `name` and the default `shape`."""

    name: str

    def __init__(self, seed: int, copy: int, shape: tuple[int, int], pool: int):
        self.seed = f"{seed}.{copy}"
        self.shape = shape
        self.pool: list = []
        self.pool_size = pool

    def setup(self) -> None:
        self.pool = [self.make_input(i) for i in range(self.pool_size)]

    def inputs(self, i: int):
        return self.pool[i] if i < len(self.pool) else self.make_input(i)

    def make_input(self, i: int):
        raise NotImplementedError

    def validate(self) -> bool:
        """Exact check of what set-up built; True when there is nothing to check."""
        return True

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def stats(self, inp, out) -> list:
        """OracleStats of the instances the operation queries (out is None before it runs)."""
        raise NotImplementedError

    def recons(self, inp, out) -> list:
        return []


class Recover(Workload):
    """The `untensor recover` path on a pointed instance with a fresh scramble."""

    name = "recover"
    shape = (3, 3)

    def make_input(self, i):
        inst = tensor_space.generate_instance(self.shape, _seed(self.name, self.seed, i), pointed=True)
        return tensor_space.instance_payload(inst), _seed(self.name, self.seed, i, "recover")

    def run(self, inp):
        payload, rseed = inp
        inst = tensor_space.instance_from_payload(payload)
        recon = reconstruct.recover_factors(inst, Random(rseed))
        recon.product_matrix
        return inst, recon, reconstruct.verify_round_trip(inst, recon)

    def check(self, inp, out):
        return out[2].success

    def stats(self, inp, out):
        return [] if out is None else [out[0].stats]

    def recons(self, inp, out):
        return [out[1]]


class Complete(Workload):
    """Square completion on generic corners, with no tangent cache shared between calls."""

    name = "complete"
    shape = (4, 4)
    instances = 4

    def setup(self):
        self.insts = [
            tensor_space.generate_instance(self.shape, _seed(self.name, self.seed, "instance", k))
            for k in range(self.instances)
        ]
        super().setup()

    def make_input(self, i):
        rng = _rng(self.name, self.seed, i)
        inst = self.insts[i % self.instances]
        m, n = self.shape
        alpha0, beta0 = _int_vector(rng, m), _int_vector(rng, n)
        alpha, beta = _independent_of(rng, alpha0), _independent_of(rng, beta0)
        corners = (inst.embed_simple(alpha0, beta0), inst.embed_simple(alpha0, beta), inst.embed_simple(alpha, beta0))
        return inst, corners, inst.embed_simple(alpha, beta)

    def run(self, inp):
        inst, (a, b, c), _ = inp
        return squares.complete_square_details(inst, a, b, c)

    def check(self, inp, out):
        return out.d == inp[2]

    def stats(self, inp, out):
        return [inp[0].stats]


class Factorize(Workload):
    """Reads served by a warm reconstruction: one factorize_simple and one tensor_rank per operation."""

    name = "factorize"
    shape = (4, 4)

    def setup(self):
        self.inst = tensor_space.generate_instance(self.shape, _seed(self.name, self.seed), pointed=True)
        self.recon = reconstruct.recover_factors(self.inst, _rng(self.name, self.seed, "recover"))
        self.recon.product_matrix_inverse
        super().setup()

    def validate(self):
        return reconstruct.verify_round_trip(self.inst, self.recon).success

    def make_input(self, i):
        rng = _rng(self.name, self.seed, i)
        simple = self.inst.sample_simple(rng)
        total = self.inst.sample_simple(rng)
        for _ in range(rng.randint(0, 4)):
            total = vadd(total, self.inst.sample_simple(rng))
        return simple, total

    def run(self, inp):
        simple, total = inp
        return self.recon.factorize_simple(simple), self.recon.tensor_rank(total)

    def check(self, inp, out):
        """The factors lie in their sheets and φ maps their coefficient product back to
        the input; φ itself was checked against the hidden products in `validate`."""
        simple, total = inp
        (w1, w2), rank = out
        c = self.recon.sheet_w1.subspace.coordinates(w1)
        r = self.recon.sheet_w2.subspace.coordinates(w2)
        if c is None or r is None:
            return False
        product = self.recon.product_matrix.apply(tuple(x * y for x in c for y in r))
        return product == simple and rank == self.inst.hidden_rank(total)

    def stats(self, inp, out):
        return [self.inst.stats]

    def recons(self, inp, out):
        return [self.recon]


class Naturality(Workload):
    """Both naturality squares and the GL1 collapse on a compatible pointed pair."""

    name = "naturality"
    shape = (2, 3)

    def make_input(self, i):
        rng = _rng(self.name, self.seed, i)
        inst_a = tensor_space.generate_instance(self.shape, rng.getrandbits(32), pointed=True)
        g, h = _invertible(rng, self.shape[0]), _invertible(rng, self.shape[1])
        scramble = tensor_space.generate_instance(self.shape, rng.getrandbits(32)).scramble
        alpha, beta = inst_a.base_factors
        inst_b = tensor_space.TensorSpace(inst_a.shape, scramble, base_factors=(g.apply(alpha), h.apply(beta)))
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 9))
        return inst_a, inst_b, functors.VecPairMorphism(g, h), lam, rng.getrandbits(32), rng.getrandbits(32)

    def run(self, inp):
        inst_a, inst_b, pm, lam, seed_a, seed_b = inp
        morphism = functors.tensor_morphism(inst_a, inst_b, pm)
        pair_side = functors.check_pair_side_naturality(inst_a, inst_b, pm)
        recon_a = reconstruct.recover_factors(inst_a, Random(seed_a))
        recon_b = reconstruct.recover_factors(inst_b, Random(seed_b))
        product_side = functors.check_product_side_naturality(morphism, recon_a, recon_b)
        collapse = functors.gl1_demo(inst_a, inst_b, pm, lam)
        return (pair_side, product_side, collapse), (recon_a, recon_b)

    def check(self, inp, out):
        return all(out[0])

    def stats(self, inp, out):
        return [inp[0].stats, inp[1].stats]

    def recons(self, inp, out):
        return list(out[1])


WORKLOADS = {cls.name: cls for cls in (Recover, Complete, Factorize, Naturality)}
