from fractions import Fraction as F
from random import Random

import pytest

from untensor import linalg, squares
from untensor.errors import MembershipViolated, NotSimpleVector, RankDeficient
from untensor.linalg import Matrix, Subspace, is_zero_vector, linear_combination, solve_linear, vadd, vscale
from untensor.reconstruct import Reconstruction, recover_factors, verify_round_trip
from untensor.tensor_space import build_instance, generate_instance, instance_from_payload, instance_payload


@pytest.fixture
def ident22_recon():
    inst = build_instance((2, 2))
    return inst, recover_factors(inst, Random(0), w0=(1, 0, 0, 0))


class TestRecoverFactors:
    def test_one_by_one(self):
        inst = generate_instance((1, 1), 1, pointed=True)
        recon = recover_factors(inst, Random(0))
        assert recon.dims == (1, 1)
        report = verify_round_trip(inst, recon)
        assert report.success

    def test_five_by_one(self):
        inst = generate_instance((5, 1), 2, pointed=True)
        recon = recover_factors(inst, Random(0))
        assert recon.sheet_w1.subspace == Subspace.full(5)
        assert recon.sheet_w2.subspace == Subspace([recon.w0], 5)
        assert recon.dims == (5, 1)

    def test_pointed_instance_uses_base_point(self):
        inst = generate_instance((3, 4), 3, pointed=True)
        recon = recover_factors(inst, Random(1))
        assert recon.w0 == inst.base_point
        assert sorted(recon.dims, reverse=True) == [4, 3]
        assert recon.sheet_w1.contains(recon.w0)
        assert recon.sheet_w2.contains(recon.w0)

    def test_rejects_bad_base_point(self):
        inst = build_instance((2, 2))
        with pytest.raises(NotSimpleVector):
            recover_factors(inst, Random(0), w0=(1, 0, 0, 1))

    def test_determinism(self):
        inst = generate_instance((3, 3), 4, pointed=True)
        a = recover_factors(inst, Random(9))
        b = recover_factors(inst, Random(9))
        assert a.pair.subspaces() == b.pair.subspaces()
        assert a.basis_e == b.basis_e and a.basis_f == b.basis_f
        assert a.product_matrix == b.product_matrix


class ConeFace:
    """An instance seen only through the cone oracle's public face."""

    EXPOSED = frozenset(
        {
            "dim",
            "quadric_count",
            "is_simple",
            "minor_values",
            "polar2_values",
            "polar2_table",
            "polar2_rows",
            "binary_restriction",
            "sample_simple",
            "stats",
            "base_point",
        }
    )

    def __init__(self, inst):
        self._inst = inst

    def __getattr__(self, name):
        if name not in self.EXPOSED:
            raise AttributeError(f"recovery read {name!r} behind the oracle face")
        return getattr(self._inst, name)


class TestOracleFace:
    @pytest.mark.parametrize("shape,seed", [((3, 3), 4), ((2, 4), 5), ((1, 3), 6)])
    def test_recovery_reads_only_the_oracle_face(self, shape, seed):
        inst = generate_instance(shape, seed, pointed=True)
        recon = recover_factors(ConeFace(inst), Random(seed))
        phi = recon.product_matrix
        direct = recover_factors(inst, Random(seed))
        assert recon.pair.subspaces() == direct.pair.subspaces()
        assert phi == direct.product_matrix
        assert verify_round_trip(inst, recon).success


class TestDerivedProduct:
    def test_base_point_stipulations(self):
        inst = generate_instance((3, 3), 5, pointed=True)
        recon = recover_factors(inst, Random(2))
        w0 = recon.w0
        assert recon.derived_product(w0, w0) == w0
        f = recon.basis_f[0]
        e = recon.basis_e[1]
        assert recon.derived_product(w0, f) == f
        assert recon.derived_product(e, w0) == e

    def test_hidden_product(self):
        inst = generate_instance((3, 4), 6)
        alpha0, beta0 = (1, 2, 0), (1, 0, 1, 1)
        alpha, beta = (0, 1, 1), (2, 1, 0, 1)
        w0 = inst.embed_simple(alpha0, beta0)
        recon = recover_factors(inst, Random(3), w0=w0)
        w1 = inst.embed_simple(alpha, beta0)
        w2 = inst.embed_simple(alpha0, beta)
        if not recon.sheet_w1.contains(w1):
            w1, w2 = w2, w1  # sheet order may be swapped relative to the hidden labels
        assert recon.derived_product(w1, w2) == inst.embed_simple(alpha, beta)

    def test_membership_enforced(self):
        inst = generate_instance((2, 3), 7, pointed=True)
        recon = recover_factors(inst, Random(4))
        outside = inst.sample_simple(Random(5))
        if not recon.sheet_w1.contains(outside):
            with pytest.raises(MembershipViolated):
                recon.derived_product(outside, recon.basis_f[0])


class WithProductMatrix:
    """A reconstruction whose product matrix is replaced by `phi`."""

    def __init__(self, recon, phi):
        self._recon = recon
        self.product_matrix = phi

    def __getattr__(self, name):
        return getattr(self._recon, name)


def perturb_last_column(phi):
    columns = phi.columns()
    columns[-1] = (columns[-1][0] + 1,) + columns[-1][1:]
    return Matrix.from_columns(columns)


def assert_columns_are_derived_products(recon):
    """phi, from the linear conditions at w0, against square completion."""
    d2 = recon.dims[1]
    for j, e in enumerate(recon.basis_e):
        for k, f in enumerate(recon.basis_f):
            assert recon.product_matrix.column(j * d2 + k) == recon.derived_product(e, f)


# Every shape from 2x2 to 4x4, 1x3 and 2x5; each runs pointed and unpointed.
SWEEP = [
    ((2, 3), 1), ((3, 3), 2), ((3, 4), 3), ((1, 3), 4), ((2, 2), 5), ((3, 2), 6), ((4, 3), 7), ((4, 4), 8),
    ((2, 5), 9), ((2, 3), 10), ((3, 3), 11), ((2, 2), 12), ((4, 4), 13), ((2, 4), 14), ((4, 2), 15),
]


def sweep_recon(shape, seed, pointed=True):
    return recover_factors(generate_instance(shape, seed, pointed=pointed), Random(seed))


# Shapes for the bilinear fill of the w0 row and column: 1xn, 2x2, 2x3, 3x3 and 3x4.
FILL_SWEEP = [((1, 4), 21), ((1, 2), 22), ((2, 2), 23), ((2, 3), 24), ((3, 3), 25), ((3, 4), 26), ((3, 3), 27)]


def base_point_in_basis(recon, sheet):
    """The canonical basis of sheet with w0 in place of its last vector on
    which w0 has a nonzero coordinate."""
    basis = list(sheet.subspace.basis.rows)
    coords = sheet.subspace.coordinates(recon.w0)
    basis[max(i for i, c in enumerate(coords) if c != 0)] = vscale(F(-3, 2), recon.w0)
    return basis


def full_support_basis(recon, sheet, rng):
    """A basis of sheet, M times the canonical one for a random integer M,
    in which every coordinate of w0 is nonzero."""
    basis = sheet.subspace.basis.rows
    coords = sheet.subspace.coordinates(recon.w0)
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in basis] for _ in basis])
        if m.rank() < len(basis):
            continue
        # w0 = sum coords_j e_j = sum x_i (M e)_i exactly when M^T x = coords.
        x = solve_linear(m.transpose(), coords)
        if all(c != 0 for c in x):
            return [linear_combination(basis, row).fractions() for row in m.rows]


class TestProductMatrix:
    @pytest.mark.parametrize("shape,seed", SWEEP)
    def test_columns_are_derived_products(self, shape, seed):
        assert_columns_are_derived_products(sweep_recon(shape, seed))

    @pytest.mark.parametrize("shape,seed", SWEEP)
    def test_unpointed_columns_are_derived_products(self, shape, seed):
        assert_columns_are_derived_products(sweep_recon(shape, seed, pointed=False))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (2, 5)])
    def test_columns_of_other_bases_are_derived_products(self, shape):
        recon = sweep_recon(shape, 14)

        def mixed(basis, t):
            # Row i becomes t^(i+1) * b_i + b_(i-1): still a basis, no longer echelon.
            return [vadd(vscale(t ** (i + 1), b), basis[i - 1]) if i else vscale(t, b) for i, b in enumerate(basis)]

        assert_columns_are_derived_products(recon.with_bases(mixed(recon.basis_e, F(-3, 2)), mixed(recon.basis_f, F(5))))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4), (2, 5)])
    def test_base_point_in_the_bases_takes_the_scaling_rule(self, shape):
        recon = sweep_recon(shape, 15, pointed=False)
        bases = []
        for sheet, t in ((recon.sheet_w1, F(2)), (recon.sheet_w2, F(1))):
            basis = list(sheet.subspace.basis.rows)
            coords = sheet.subspace.coordinates(recon.w0)
            basis[next(i for i, c in enumerate(coords) if c != 0)] = vscale(t, recon.w0)
            bases.append(basis)
        assert_columns_are_derived_products(recon.with_bases(*bases))

    @pytest.mark.parametrize("bases", ["canonical", "base point", "full support"])
    @pytest.mark.parametrize("shape,seed", FILL_SWEEP)
    def test_bilinear_fill_matches_derived_products(self, shape, seed, bases):
        inst = generate_instance(shape, seed, pointed=True)
        recon = recover_factors(inst, Random(seed))
        if bases == "base point":
            recon = recon.with_bases(*(base_point_in_basis(recon, sheet) for sheet in (recon.sheet_w1, recon.sheet_w2)))
        elif bases == "full support":
            rng = Random(seed)
            recon = recon.with_bases(*(full_support_basis(recon, sheet, rng) for sheet in (recon.sheet_w1, recon.sheet_w2)))
        calls = inst.stats.oracle_calls
        recon.product_matrix
        d1, d2 = recon.dims
        generic_pairs = (d1 - 1) * (d2 - 1)
        # The 2B(e, f) table, the polar rows of w0, one right-hand-side table
        # per generic e and per generic f, and one minor_values per pair.
        assert inst.stats.oracle_calls - calls == (generic_pairs + d1 + d2 if generic_pairs else 0)
        assert_columns_are_derived_products(recon)

    def test_pointed_3x3_product_stage_work(self, monkeypatch):
        # (rows, columns, rows read, null vectors) of each null-vector system: the
        # solve at w0 (9 rows, 9 unknowns and 4 right-hand sides), then two table
        # solves per factor, each 9 rows of 4 columns that leave 2 null vectors,
        # then the rank of φ, whose 9th row removes the last null vector; nothing
        # goes through `_eliminate`, and no square is completed on the canonical bases.
        inst = generate_instance((3, 3), 2, pointed=True)
        recon = recover_factors(inst, Random(2))
        eliminated, systems = [], []
        eliminate, null_vectors = linalg._eliminate, linalg.null_vectors

        def counted(*args, **kwargs):
            eliminated.append(args[1])
            return eliminate(*args, **kwargs)

        def reading(rows, ncols):
            rows, read = list(rows), []

            def reader():
                for row in rows:
                    read.append(row)
                    yield row

            null = null_vectors(reader(), ncols)
            systems.append((len(rows), ncols, len(read), len(null)))
            return null

        def refused(*args, **kwargs):
            raise AssertionError("product_matrix completed a square")

        monkeypatch.setattr(linalg, "_eliminate", counted)
        monkeypatch.setattr(linalg, "null_vectors", reading)
        monkeypatch.setattr(squares, "complete_square_details", refused)
        recon.product_matrix
        assert eliminated == []
        assert systems == [(9, 13, 9, 9), *[(9, 4, 9, 2)] * 4, (9, 9, 9, 0)]

    def test_identity_instance_unit_matrix(self, ident22_recon):
        inst, recon = ident22_recon
        assert recon.product_matrix == Matrix.identity(4)

    def test_invertible_across_shapes(self):
        for seed, shape in [(8, (2, 2)), (9, (2, 3)), (10, (3, 3))]:
            inst = generate_instance(shape, seed, pointed=True)
            recon = recover_factors(inst, Random(seed))
            assert recon.product_matrix.det() != 0

    def test_singular_phi_raises_rank_deficient(self):
        inst = generate_instance((3, 3), 18, pointed=True)
        recon = recover_factors(inst, Random(19))
        repeated = Reconstruction(inst, recon.w0, recon.pair, basis_e=[recon.w0] * 3)
        with pytest.raises(RankDeficient):
            repeated.product_matrix
        with pytest.raises(RankDeficient):
            repeated.product_matrix_inverse

    @pytest.mark.parametrize("seed,lam", [(4, "-36"), (7, "3"), (11, "7")])
    def test_phi_stays_integer_through_recovery_and_verification(self, seed, lam):
        # load -> sheets -> product matrix -> round trip builds no Fraction row of phi
        inst = instance_from_payload(instance_payload(generate_instance((3, 3), seed, pointed=True)))
        recon = recover_factors(inst, Random(0))
        phi = recon.product_matrix
        report = verify_round_trip(inst, recon)
        assert phi._rows is None
        assert report.success and report.to_payload()["lambda"] == lam
        assert (report.oracle_calls, report.samples_used) == (17, 0)

    def test_phi_held_bits_at_5x5(self):
        # linear_combination returns lowest terms, so the chained fill does not
        # pile up common factors: φ's integer rows and denominator hold 50 bits
        # at most here, as in lowest terms (537 when the content was kept).
        inst = generate_instance((5, 5), 1, pointed=True)
        rows, den = recover_factors(inst, Random(2)).product_matrix.integer_rows()
        assert max(abs(x).bit_length() for x in [den, *(x for row in rows for x in row)]) == 50

    def test_bases_stay_integer_rows_until_read(self):
        # Recovery, phi and the round trip read the Scaled rows of the bases;
        # the Fraction bases are built on first read, with the same values.
        inst = generate_instance((3, 4), 5, pointed=True)
        recon = recover_factors(inst, Random(0))
        assert verify_round_trip(inst, recon).success
        assert "basis_e" not in vars(recon) and "basis_f" not in vars(recon)
        assert all(den > 0 for _, den in recon.rows_e + recon.rows_f)
        assert recon.basis_e == recon.sheet_w1.subspace.basis.rows
        assert recon.basis_f == recon.sheet_w2.subspace.basis.rows
        # Given bases are cleared once, from any scalar form.
        other = recon.with_bases([[str(x) for x in e] for e in recon.basis_e[::-1]], recon.basis_f)
        assert all(type(e) is linalg.Scaled for e in other.rows_e)
        assert other.basis_e == recon.basis_e[::-1]
        assert verify_round_trip(inst, other).success

    def test_recovery_leaves_the_inverse_unbuilt(self, monkeypatch):
        inverted = []
        invert = linalg.inverse

        def counted(m):
            inverted.append(m)
            return invert(m)

        inst = generate_instance((3, 3), 2, pointed=True)
        monkeypatch.setattr(linalg, "inverse", counted)
        recon = recover_factors(inst, Random(2))
        assert verify_round_trip(inst, recon).success
        assert inverted == []
        inverse = recon.product_matrix_inverse
        assert inverted == [recon.product_matrix]
        assert inverse @ recon.product_matrix == Matrix.identity(inst.dim)
        assert recon.product_matrix_inverse is inverse and len(inverted) == 1

    def test_rank_one_grids_land_on_cone(self):
        inst = generate_instance((3, 3), 11, pointed=True)
        recon = recover_factors(inst, Random(6))
        rng = Random(7)
        for _ in range(100):
            c = [rng.randint(-4, 4) for _ in range(3)]
            r = [rng.randint(-4, 4) for _ in range(3)]
            flat = tuple(F(a * b) for a in c for b in r)
            assert inst.is_simple(recon.product_matrix.apply(flat))

    def test_special_basis_is_simple(self):
        inst = generate_instance((2, 3), 12, pointed=True)
        recon = recover_factors(inst, Random(8))
        for col in recon.product_matrix.columns():
            assert inst.is_simple(col)


class TestFactorize:
    def test_round_trip_samples(self):
        inst = generate_instance((3, 3), 13, pointed=True)
        recon = recover_factors(inst, Random(9))
        rng = Random(10)
        for _ in range(50):
            s = inst.sample_simple(rng)
            w1, w2 = recon.factorize_simple(s)
            assert recon.derived_product(w1, w2) == s

    def test_base_point_round_trips(self):
        inst = generate_instance((3, 3), 13, pointed=True)
        recon = recover_factors(inst, Random(9))
        w1, w2 = recon.factorize_simple(recon.w0)
        assert recon.derived_product(w1, w2) == recon.w0

    def test_zero_factors_to_zero(self):
        inst = generate_instance((2, 2), 14, pointed=True)
        recon = recover_factors(inst, Random(11))
        w1, w2 = recon.factorize_simple((0, 0, 0, 0))
        assert is_zero_vector(w1) and is_zero_vector(w2)

    def test_first_factor_normalized(self):
        inst = generate_instance((2, 3), 15, pointed=True)
        recon = recover_factors(inst, Random(12))
        s = inst.sample_simple(Random(13))
        w1, _ = recon.factorize_simple(s)
        coords = recon.sheet_w1.subspace.coordinates(w1)
        lead = next(x for x in coords if x != 0)
        assert lead == 1

    def test_rejects_nonsimple(self):
        inst = build_instance((2, 2))
        recon = recover_factors(inst, Random(0), w0=(1, 0, 0, 0))
        with pytest.raises(NotSimpleVector):
            recon.factorize_simple((1, 0, 0, 1))

    def test_grids_stay_integer(self, monkeypatch):
        # Fraction vectors built while verifying a pointed 3x3 recovery (the
        # ray generator of the base point's hidden row) and while factoring
        # on a warm 4x4 one (the two factors it returns).
        inst = generate_instance((3, 3), 2, pointed=True)
        recon = recover_factors(inst, Random(2))
        recon.product_matrix
        inst4 = generate_instance((4, 4), 3, pointed=True)
        recon4 = recover_factors(inst4, Random(3))
        v = inst4.sample_simple(Random(4))
        assert recon4.coefficient_grid(v)._rows is None
        built = []
        convert = linalg.from_integers

        def counted(ints, den):
            built.append(len(ints))
            return convert(ints, den)

        monkeypatch.setattr(linalg, "from_integers", counted)
        assert verify_round_trip(inst, recon).success
        assert built == [3]
        built.clear()
        w1, w2 = recon4.factorize_simple(v)
        assert built == [16, 16] and recon4.derived_product(w1, w2) == v


class TestTensorRank:
    def test_simple_is_at_most_one(self):
        inst = generate_instance((3, 3), 16, pointed=True)
        recon = recover_factors(inst, Random(14))
        s = inst.sample_simple(Random(15))
        assert recon.tensor_rank(s) <= 1

    def test_two_generic_summands(self):
        inst = generate_instance((3, 3), 16, pointed=True)
        recon = recover_factors(inst, Random(14))
        rng = Random(16)
        u, v = inst.sample_simple(rng), inst.sample_simple(rng)
        assert recon.tensor_rank(vadd(u, v)) == 2

    def test_rank_bounded_by_min_dim(self):
        inst = generate_instance((3, 3), 16, pointed=True)
        recon = recover_factors(inst, Random(14))
        rng = Random(17)
        total = (F(0),) * 9
        for _ in range(4):  # min(m, n) + 1 summands
            total = vadd(total, inst.sample_simple(rng))
        assert recon.tensor_rank(total) <= 3


class TestRoundTripReport:
    def test_identity_no_swap_unit_scale(self, ident22_recon):
        inst, recon = ident22_recon
        report = verify_round_trip(inst, recon)
        assert report.success and report.lam == 1 and report.swap is False
        payload = report.to_payload()
        assert payload["lambda"] == "1"
        assert payload["sheet_dims"] == [2, 2]

    def test_square_shape_may_swap(self):
        swaps = set()
        for seed in range(6):
            inst = generate_instance((3, 3), 100 + seed, pointed=True)
            recon = recover_factors(inst, Random(seed))
            report = verify_round_trip(inst, recon)
            assert report.success
            swaps.add(report.swap)
        assert swaps <= {False, True}

    def test_rectangular_swap_matches_dims(self):
        inst = generate_instance((3, 4), 17, pointed=True)
        recon = recover_factors(inst, Random(18))
        report = verify_round_trip(inst, recon)
        assert report.success and report.swap is True  # the larger factor sorts first

    def test_pointed_base_point_is_kept(self):
        inst = generate_instance((2, 3), 18, pointed=True)
        recon = recover_factors(inst, Random(19))
        assert recon.w0 == inst.base_point
        assert verify_round_trip(inst, recon).success

    def test_scaled_products_disagree_with_gauge(self):
        inst = generate_instance((2, 3), 18, pointed=True)
        recon = recover_factors(inst, Random(19))
        report = verify_round_trip(inst, WithProductMatrix(recon, recon.product_matrix.scale(2)))
        assert not report.success
        assert report.reason == "product scale disagrees with the base-point gauge"
        assert report.lam == verify_round_trip(inst, recon).lam / 2

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 3)])
    def test_sheets_through_another_point_differ(self, shape):
        inst = generate_instance(shape, 18, pointed=True)
        other = recover_factors(inst, Random(19), w0=inst.sample_simple(Random(20)))
        assert other.w0 != inst.base_point
        report = verify_round_trip(inst, Reconstruction(inst, inst.base_point, other.pair))
        assert not report.success and report.swap is False and report.lam is None
        assert report.reason == "recovered sheets differ from the hidden sheets"

    @pytest.mark.parametrize(
        "side,base_point,reason",
        [
            ("basis_e", False, "the linear conditions at the base point admit no corner"),
            ("basis_f", False, "the linear conditions at the base point admit no corner"),
            ("basis_e", True, "derived products of the basis pairs do not span V"),
        ],
    )
    def test_repeated_basis_vector_fails_without_raising(self, side, base_point, reason):
        inst = generate_instance((3, 3), 18, pointed=True)
        recon = recover_factors(inst, Random(19))
        vector = recon.w0 if base_point else getattr(recon, side)[0]
        report = verify_round_trip(inst, Reconstruction(inst, recon.w0, recon.pair, **{side: [vector] * 3}))
        assert not report.success and report.lam is None
        assert report.reason == reason

    def test_perturbed_column_is_not_a_single_scale(self):
        inst = generate_instance((3, 3), 18, pointed=True)
        recon = recover_factors(inst, Random(19))
        report = verify_round_trip(inst, WithProductMatrix(recon, perturb_last_column(recon.product_matrix)))
        assert not report.success and report.lam is None
        assert report.reason == "hidden products are not a single scale of the derived ones"


class TestJointRescale:
    def test_rescaled_bases_fix_product_values(self):
        inst = generate_instance((3, 3), 19, pointed=True)
        recon = recover_factors(inst, Random(20))
        lam = F(5, 3)
        scaled = recon.with_bases(
            [vscale(lam, e) for e in recon.basis_e],
            [vscale(1 / lam, f) for f in recon.basis_f],
        )
        rng = Random(21)
        for _ in range(20):
            c = [rng.randint(-3, 3) for _ in range(3)]
            r = [rng.randint(-3, 3) for _ in range(3)]
            flat = tuple(F(a * b) for a in c for b in r)
            assert recon.product_matrix.apply(flat) == scaled.product_matrix.apply(flat)

    def test_with_bases_validates_span(self):
        inst = generate_instance((2, 2), 20, pointed=True)
        recon = recover_factors(inst, Random(22))
        with pytest.raises(MembershipViolated):
            recon.with_bases(recon.basis_f, recon.basis_e)
