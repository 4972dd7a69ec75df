"""Seeded property suites, runnable from the CLI and from the test suite.

Every suite takes a per-shape trial count and a seed; instance seeds and
trial streams are derived arithmetically from the seed so a rerun is
byte-identical.  A failing trial records a replayable counterexample (the
instance payload plus the offending vectors) instead of stopping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

from untensor.errors import ToolkitError
from untensor.linalg import (
    Matrix,
    Vector,
    format_scalar,
    is_zero_vector,
    linear_combination,
    proportionality_ratio,
    rank_one_split,
    vadd,
    vscale,
)
from untensor.reconstruct import Reconstruction, recover_factors, verify_round_trip
from untensor.squares import Square, complete_square, is_square
from untensor.tensor_space import (
    TensorSpace,
    generate_instance,
    inject_quadric_fault,
    instance_payload,
    verify_rule,
)
from untensor import functors

LEMMA_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
SQUARE_SHAPES = tuple((m, n) for m in (2, 3, 4) for n in (2, 3, 4))
RECOVERY_SHAPES = SQUARE_SHAPES + ((2, 6), (2, 5))  # (4, 3) already present
NATURALITY_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))

SUITE_NAMES = ("lemmas", "squares", "bilinearity", "recovery", "naturality")


@dataclass
class PropertyOutcome:
    name: str
    trials: int = 0
    failures: int = 0
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def check(self, ok: bool, dump: Callable[[], str] | None = None) -> None:
        self.trials += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None and dump is not None:
                self.counterexample = dump()


def _derived_seed(seed: int, *indices: int) -> int:
    out = seed & 0x7FFFFFFFFFFFFFFF
    for i in indices:
        out = (out * 6364136223846793005 + i + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF
    return out


def _dump(inst: TensorSpace, **parts) -> str:
    payload = {"instance": instance_payload(inst)}
    for key, value in parts.items():
        if isinstance(value, tuple) and value and isinstance(value[0], Fraction):
            payload[key] = [format_scalar(x) for x in value]
        else:
            payload[key] = value
    return json.dumps(payload, sort_keys=True)


def _rand_fraction(rng: Random, bound: int = 9) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def _rand_nonzero_fraction(rng: Random, bound: int = 9) -> Fraction:
    while True:
        q = _rand_fraction(rng, bound)
        if q != 0:
            return q


def _rand_int_vector(rng: Random, length: int, bound: int = 9, nonzero: bool = True) -> Vector:
    while True:
        v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(length))
        if not nonzero or not is_zero_vector(v):
            return v


def _rand_independent_of(rng: Random, base: Vector, bound: int = 9) -> Vector:
    while True:
        v = _rand_int_vector(rng, len(base), bound)
        if proportionality_ratio(base, v) is None:
            return v


def _rand_invertible(rng: Random, n: int, bound: int = 3) -> Matrix:
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def _make_instance(shape, seed, *, pointed=False, fault=False) -> TensorSpace:
    inst = generate_instance(shape, seed, pointed=pointed)
    return inject_quadric_fault(inst) if fault else inst


# -- lemmas -------------------------------------------------------------------


def suite_lemmas(trials: int, seed: int, *, fault: bool = False) -> list[PropertyOutcome]:
    """The zero-sum rule, uniqueness of factors, simple-sum proportionality,
    and quadric soundness of the sampler."""
    rule = PropertyOutcome("rule-zero-sum")
    lemma_unique = PropertyOutcome("factor-uniqueness")
    lemma_sum = PropertyOutcome("simple-sum-proportionality")
    soundness = PropertyOutcome("cone-soundness")
    for si, shape in enumerate(LEMMA_SHAPES):
        inst = _make_instance(shape, _derived_seed(seed, 1, si), fault=fault)
        rng = Random(_derived_seed(seed, 2, si))
        recon: Reconstruction | None = None
        m, n = shape
        for t in range(trials):
            try:
                # rule: independent factors, all-zero second legs, one nonzero
                # leg, and a dependent family with cancelling legs.
                a1 = _rand_int_vector(rng, m)
                a2 = _rand_independent_of(rng, a1) if m >= 2 else a1
                b1 = _rand_int_vector(rng, n, nonzero=False)
                b2 = _rand_int_vector(rng, n, nonzero=False)
                ok = verify_rule(inst, [a1, a2], [b1, b2])
                zeros = (Fraction(0),) * n
                ok = ok and verify_rule(inst, [a1, a2], [zeros, zeros])
                ok = ok and verify_rule(inst, [a1, a2], [b1, zeros])
                c = _rand_nonzero_fraction(rng)
                ok = ok and verify_rule(
                    inst, [a1, vscale(c, a1)], [b1, vscale(-1 / c, b1)]
                )
                rule.check(ok, lambda: _dump(inst, a1=a1, a2=a2, b1=b1, b2=b2))

                # factor uniqueness: one value of the embedding, two spellings
                alpha = _rand_int_vector(rng, m)
                beta = _rand_int_vector(rng, n)
                scale = _rand_nonzero_fraction(rng)
                v1 = inst.embed_simple(alpha, beta)
                v2 = inst.embed_simple(vscale(scale, alpha), vscale(1 / scale, beta))
                same = v1 == v2
                split = rank_one_split(inst.hidden_coordinates(v1))
                same = same and split is not None
                if same:
                    col, row = split
                    same = (
                        proportionality_ratio(alpha, col) is not None
                        and proportionality_ratio(beta, row) is not None
                    )
                if same and not inst.shape.trivial:
                    if recon is None:
                        recon = recover_factors(inst, Random(_derived_seed(seed, 3, si)))
                    same = recon.factorize_simple(v1) == recon.factorize_simple(v2)
                lemma_unique.check(same, lambda: _dump(inst, alpha=alpha, beta=beta))

                # simple sums: proportional construction is simple, generic
                # simple sums have proportional hidden factors
                alpha2 = _rand_int_vector(rng, m)
                prop_sum = vadd(
                    inst.embed_simple(alpha, beta), inst.embed_simple(alpha2, beta)
                )
                ok = inst.is_simple(prop_sum)
                u = inst.sample_simple(rng)
                w = inst.sample_simple(rng)
                if ok and not is_zero_vector(u) and not is_zero_vector(w) and inst.is_simple(vadd(u, w)):
                    su = rank_one_split(inst.hidden_coordinates(u))
                    sw = rank_one_split(inst.hidden_coordinates(w))
                    ok = su is not None and sw is not None and any(
                        proportionality_ratio(x, y) is not None for x, y in zip(su, sw)
                    )
                lemma_sum.check(ok, lambda: _dump(inst, u=u, w=w))

                # sampler soundness against the published quadrics
                s = inst.sample_simple(rng)
                sound = inst.is_simple(s) and not any(inst.minor_values(s).ints)
                sound = sound and inst.hidden_rank(s) <= 1
                soundness.check(sound, lambda: _dump(inst, sample=s))
            except ToolkitError as exc:
                for outcome in (rule, lemma_unique, lemma_sum, soundness):
                    outcome.check(False, lambda: _dump(inst, error=repr(exc)))
    return [rule, lemma_unique, lemma_sum, soundness]


# -- squares ------------------------------------------------------------------


def suite_squares(trials: int, seed: int, *, fault: bool = False) -> list[PropertyOutcome]:
    """Square completion against hidden products, the proportional special
    cases, rescaling closure, row additivity, and the validator."""
    hidden_form = PropertyOutcome("completion-hidden-form")
    special = PropertyOutcome("completion-special-cases")
    closure = PropertyOutcome("square-rescaling-closure")
    additivity = PropertyOutcome("square-row-additivity")
    validator = PropertyOutcome("square-validator")
    for si, shape in enumerate(SQUARE_SHAPES):
        inst = _make_instance(shape, _derived_seed(seed, 11, si), fault=fault)
        rng = Random(_derived_seed(seed, 12, si))
        m, n = shape
        for t in range(trials):
            try:
                alpha0 = _rand_int_vector(rng, m)
                beta0 = _rand_int_vector(rng, n)
                alpha = _rand_independent_of(rng, alpha0)
                beta = _rand_independent_of(rng, beta0)
                a = inst.embed_simple(alpha0, beta0)
                b = inst.embed_simple(alpha0, beta)
                c = inst.embed_simple(alpha, beta0)
                d_true = inst.embed_simple(alpha, beta)
                d = complete_square(inst, a, b, c)
                hidden_form.check(
                    d == d_true, lambda: _dump(inst, a=a, b=b, c=c, d=d, expected=d_true)
                )

                lam = _rand_nonzero_fraction(rng)
                mu = _rand_nonzero_fraction(rng)
                ok = complete_square(inst, a, vscale(mu, a), c) == vscale(mu, c)
                ok = ok and complete_square(inst, a, b, vscale(lam, a)) == vscale(lam, b)
                ok = ok and complete_square(inst, a, vscale(mu, a), vscale(lam, a)) == vscale(lam * mu, a)
                special.check(ok, lambda: _dump(inst, a=a, c=c))

                sq = Square.of(a, b, c, d_true)
                ok = is_square(inst, sq)
                ok = ok and is_square(inst, Square.of(vscale(lam, a), vscale(lam, b), c, d_true))
                ok = ok and is_square(
                    inst, Square.of(vscale(lam, a), b, vscale(lam, c), d_true)
                )
                closure.check(ok, lambda: _dump(inst, a=a, b=b, c=c, d=d_true))

                # rows (a, b) and (a', b') over a fixed second row (c, d)
                alpha_p = _rand_independent_of(rng, alpha)
                a_p = inst.embed_simple(alpha_p, beta0)
                b_p = inst.embed_simple(alpha_p, beta)
                ok = is_square(inst, Square.of(a_p, b_p, c, d_true))
                ok = ok and is_square(inst, Square.of(vadd(a, a_p), vadd(b, b_p), c, d_true))
                additivity.check(ok, lambda: _dump(inst, a=a, ap=a_p, c=c))

                bad = Square.of(a, b, c, vscale(Fraction(2), d_true))
                ok = not is_square(inst, bad)
                ok = ok and is_square(inst, Square.of(a, a, a, a))
                validator.check(ok, lambda: _dump(inst, a=a, b=b, c=c))
            except ToolkitError as exc:
                for outcome in (hidden_form, special, closure, additivity, validator):
                    outcome.check(False, lambda: _dump(inst, error=repr(exc)))
    return [hidden_form, special, closure, additivity, validator]


# -- bilinearity / image / factorization ---------------------------------------


def suite_bilinearity(trials: int, seed: int, *, fault: bool = False) -> list[PropertyOutcome]:
    """The derived product is bilinear, lands on the cone, and inverts the
    factorization of sampled simple vectors; joint basis rescaling does not
    move product values."""
    left = PropertyOutcome("bilinearity-first-argument")
    right = PropertyOutcome("bilinearity-second-argument")
    image = PropertyOutcome("image-in-cone")
    round_trip = PropertyOutcome("factorization-round-trip")
    rescale = PropertyOutcome("joint-rescale-invariance")
    for si, shape in enumerate(SQUARE_SHAPES):
        inst = _make_instance(shape, _derived_seed(seed, 21, si), pointed=True, fault=fault)
        rng = Random(_derived_seed(seed, 22, si))
        try:
            recon = recover_factors(inst, Random(_derived_seed(seed, 23, si)))
        except ToolkitError as exc:
            for outcome in (left, right, image, round_trip, rescale):
                outcome.check(False, lambda: _dump(inst, error=repr(exc)))
            continue
        d1, d2 = recon.dims
        scale = _rand_nonzero_fraction(rng)
        scaled = recon.with_bases(
            [vscale(scale, e) for e in recon.basis_e],
            [vscale(1 / scale, f) for f in recon.basis_f],
        )
        for t in range(trials):
            try:
                x = linear_combination(recon.basis_e, _rand_int_vector(rng, d1, 5, nonzero=False)).fractions()
                xp = linear_combination(recon.basis_e, _rand_int_vector(rng, d1, 5, nonzero=False)).fractions()
                y = linear_combination(recon.basis_f, _rand_int_vector(rng, d2, 5, nonzero=False)).fractions()
                yp = linear_combination(recon.basis_f, _rand_int_vector(rng, d2, 5, nonzero=False)).fractions()
                lam = _rand_fraction(rng, 5)
                if t % 2 == 0:
                    got = recon.derived_product(vadd(x, vscale(lam, xp)), y)
                    want = vadd(
                        recon.derived_product(x, y), vscale(lam, recon.derived_product(xp, y))
                    )
                    left.check(got == want, lambda: _dump(inst, x=x, xp=xp, y=y))
                else:
                    got = recon.derived_product(x, vadd(y, vscale(lam, yp)))
                    want = vadd(
                        recon.derived_product(x, y), vscale(lam, recon.derived_product(x, yp))
                    )
                    right.check(got == want, lambda: _dump(inst, x=x, y=y, yp=yp))

                image.check(
                    inst.is_simple(recon.derived_product(x, y)), lambda: _dump(inst, x=x, y=y)
                )

                s = inst.sample_simple(rng)
                w1, w2 = recon.factorize_simple(s)
                ok = recon.derived_product(w1, w2) == s and recon.tensor_rank(s) <= 1
                round_trip.check(ok, lambda: _dump(inst, sample=s))

                coeff = [
                    [cx * cy for cy in _rand_int_vector(rng, d2, 3, nonzero=False)]
                    for cx in _rand_int_vector(rng, d1, 3, nonzero=False)
                ]
                flat = tuple(x for row in coeff for x in row)
                ok = recon.product_matrix.apply(flat) == scaled.product_matrix.apply(flat)
                rescale.check(ok, lambda: _dump(inst, coeff=[[str(x) for x in r] for r in coeff]))
            except ToolkitError as exc:
                for outcome in (left, right, image, round_trip, rescale):
                    outcome.check(False, lambda: _dump(inst, error=repr(exc)))
    return [left, right, image, round_trip, rescale]


# -- recovery -----------------------------------------------------------------


def suite_recovery(trials: int, seed: int, *, fault: bool = False) -> list[PropertyOutcome]:
    """Factor recovery round-trips against the hidden factorization on
    seeded instances of every covered shape."""
    recovery = PropertyOutcome("factor-recovery")
    determinism = PropertyOutcome("recovery-determinism")
    for si, shape in enumerate(RECOVERY_SHAPES):
        m, n = shape
        for t in range(trials):
            inst = _make_instance(shape, _derived_seed(seed, 31, si, t), pointed=True, fault=fault)
            try:
                recon = recover_factors(inst, Random(_derived_seed(seed, 32, si, t)))
                report = verify_round_trip(inst, recon)
                ok = report.success and report.lam is not None and report.lam != 0
                ok = ok and sorted(report.sheet_dims, reverse=True) == sorted((m, n), reverse=True)
                if m != n:
                    ok = ok and report.swap == (m < n)
                ok = ok and recon.w0 == inst.base_point
                recovery.check(ok, lambda: _dump(inst, report=report.to_payload()))

                if t == 0:
                    rerun = recover_factors(inst, Random(_derived_seed(seed, 32, si, t)))
                    same = (
                        rerun.pair.subspaces() == recon.pair.subspaces()
                        and rerun.basis_e == recon.basis_e
                        and rerun.basis_f == recon.basis_f
                    )
                    determinism.check(same, lambda: _dump(inst))
            except ToolkitError as exc:
                recovery.check(False, lambda: _dump(inst, error=repr(exc)))
                determinism.check(False, lambda: _dump(inst, error=repr(exc)))
    return [recovery, determinism]


# -- naturality ---------------------------------------------------------------


def _compatible_pair(shape, seed: int, rng: Random, *, fault: bool = False):
    """A pointed instance, a random invertible factor-map pair, and a second
    pointed instance whose base factors are the images of the first's."""
    inst_a = _make_instance(shape, _derived_seed(seed, 41), pointed=True, fault=fault)
    g = _rand_invertible(rng, shape[0])
    h = _rand_invertible(rng, shape[1])
    scr = generate_instance(shape, _derived_seed(seed, 42)).scramble
    alpha_a, beta_a = inst_a.base_factors
    inst_b = TensorSpace(inst_a.shape, scr, base_factors=(g.apply(alpha_a), h.apply(beta_a)))
    if fault:
        inst_b = inject_quadric_fault(inst_b)
    return inst_a, functors.VecPairMorphism(g, h), inst_b


def suite_naturality(trials: int, seed: int, *, fault: bool = False) -> list[PropertyOutcome]:
    """Both naturality squares, the functor laws, morphism certification,
    and the scalar collapse of the product functor."""
    psi = PropertyOutcome("pair-side-naturality")
    phi = PropertyOutcome("product-side-naturality")
    laws = PropertyOutcome("functor-laws")
    certification = PropertyOutcome("morphism-certification")
    gl1 = PropertyOutcome("gl1-collapse")
    unpointed = PropertyOutcome("unpointed-scale")
    for si, shape in enumerate(NATURALITY_SHAPES):
        base_seed = _derived_seed(seed, 43, si)
        rng = Random(_derived_seed(seed, 44, si))
        for t in range(trials):
            pair_seed = _derived_seed(base_seed, t)
            try:
                inst_a, pm, inst_b = _compatible_pair(shape, pair_seed, rng, fault=fault)
                morphism = functors.tensor_morphism(inst_a, inst_b, pm)

                psi.check(
                    functors.check_pair_side_naturality(inst_a, inst_b, pm),
                    lambda: _dump(inst_a),
                )

                recon_a = recover_factors(inst_a, Random(_derived_seed(pair_seed, 1)))
                recon_b = recover_factors(inst_b, Random(_derived_seed(pair_seed, 2)))
                phi.check(
                    functors.check_product_side_naturality(morphism, recon_a, recon_b),
                    lambda: _dump(inst_a),
                )

                ok = functors.is_cone_morphism(morphism)
                bad = functors.LinearMorphism(
                    inst_a, inst_b, _rand_invertible(rng, inst_a.dim, 2)
                )
                if functors.is_cone_morphism(bad):
                    # certification accepted a random map: believe it only if
                    # the hidden oracle agrees on a sampling sweep
                    ok = ok and functors.preserves_cone_empirically(bad, Random(1), 100)
                certification.check(ok, lambda: _dump(inst_a))

                gl1.check(
                    functors.gl1_demo(inst_a, inst_b, pm, _rand_nonzero_fraction(rng)),
                    lambda: _dump(inst_a),
                )

                if t % 5 == 0:
                    # identity and composition laws, crossing-aware
                    ident = functors.identity_morphism(inst_a)
                    i1, i2 = functors.induced_factor_maps(ident, recon_a, recon_a)
                    ok = i1 == Matrix.identity(i1.nrows) and i2 == Matrix.identity(i2.nrows)
                    a1, a2, ca = functors._factor_maps(morphism, recon_a, recon_b)
                    g2 = _rand_invertible(rng, shape[0])
                    h2 = _rand_invertible(rng, shape[1])
                    pm2 = functors.VecPairMorphism(g2, h2)
                    scr_c = generate_instance(shape, _derived_seed(pair_seed, 3)).scramble
                    alpha_b, beta_b = inst_b.base_factors
                    inst_c = TensorSpace(
                        inst_b.shape,
                        scr_c,
                        base_factors=(g2.apply(alpha_b), h2.apply(beta_b)),
                    )
                    if fault:
                        inst_c = inject_quadric_fault(inst_c)
                    second = functors.tensor_morphism(inst_b, inst_c, pm2)
                    composite = functors.compose(second, morphism)
                    direct = functors.tensor_morphism(
                        inst_a, inst_c, functors.VecPairMorphism(g2 @ pm.g, h2 @ pm.h)
                    )
                    ok = ok and composite.matrix == direct.matrix
                    recon_c = recover_factors(inst_c, Random(_derived_seed(pair_seed, 4)))
                    b1, b2, cb = functors._factor_maps(second, recon_b, recon_c)
                    c1, c2, cc = functors._factor_maps(composite, recon_a, recon_c)
                    expect_1 = (b2 if ca else b1) @ a1
                    expect_2 = (b1 if ca else b2) @ a2
                    ok = ok and cc == (ca != cb) and c1 == expect_1 and c2 == expect_2
                    laws.check(ok, lambda: _dump(inst_a))

                if t == 0:
                    # a rescaled target base point shows up as a nontrivial scalar
                    w0_t = vscale(Fraction(2), morphism.apply(recon_a.w0))
                    recon_b2 = recover_factors(
                        inst_b, Random(_derived_seed(pair_seed, 5)), w0=w0_t
                    )
                    scale = functors.product_commutation_scale(morphism, recon_a, recon_b2)
                    unpointed.check(scale == 2, lambda: _dump(inst_a, scale=str(scale)))
            except ToolkitError as exc:
                for outcome in (psi, phi, laws, certification, gl1, unpointed):
                    outcome.check(False, lambda: _dump(inst_a, error=repr(exc)))
    return [psi, phi, laws, certification, gl1, unpointed]


DEFAULT_TRIALS = {
    "lemmas": 100,
    "squares": 25,
    "bilinearity": 50,
    "recovery": 5,
    "naturality": 10,
}

_SUITE_FUNCS = {
    "lemmas": suite_lemmas,
    "squares": suite_squares,
    "bilinearity": suite_bilinearity,
    "recovery": suite_recovery,
    "naturality": suite_naturality,
}


def run_suites(
    names: Sequence[str], seed: int, trials: int | None = None, *, fault: bool = False
) -> list[PropertyOutcome]:
    outcomes: list[PropertyOutcome] = []
    for name in names:
        func = _SUITE_FUNCS[name]
        count = trials if trials is not None else DEFAULT_TRIALS[name]
        outcomes.extend(func(count, seed, fault=fault))
    return outcomes
