"""Gramians, frame bounds, duals, decay fits, and the commutation ledger."""

import math
import warnings

import numpy as np
import pytest

from pslab.cli import main
from pslab.corpus import hermite_functions, random_bandlimited
from pslab.frames import (
    GRAM_FLOOR,
    CommutationLedger,
    FunctionSystem,
    _inverse_sqrt_factors,
    canonical_tight,
    commutation_ledger,
    dual_localization_check,
    dual_system,
    frame_bounds,
    gramian,
    localization_fit,
)
from pslab.grid import (
    GridMismatchError,
    GridSpec,
    PhasePoint,
    SampledFunction,
    fourier_transform,
    gaussian_window,
    inner_product,
    inverse_fourier_transform,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import moment, tail_mass

GRID = GridSpec(1, 256, 1 / 16)


def gaussian_system(grid, points):
    g = gaussian_window(grid)
    centers = [PhasePoint(a, b) for a, b in points]
    return FunctionSystem([tf_shift(g, c) for c in centers], centers)


def full_box_half_lattice(grid):
    """All points of (1/2)Z x (1/2)Z inside the periodic phase-space box."""
    ta, tb = grid.half_extent(0), grid.dual().half_extent(0)
    return [
        (0.5 * m, 0.5 * k)
        for m in range(int(-2 * ta), int(2 * ta))
        for k in range(int(-2 * tb), int(2 * tb))
    ]


def biorth_matrix(sys, dual):
    V, Vd = sys.member_matrix(), dual.member_matrix()
    return sys.grid.cell_volume * (V @ np.conj(Vd).T)


def spectral_derivative(f):
    fhat = fourier_transform(f)
    xi = fhat.grid.axis_points(0)
    return inverse_fourier_transform(SampledFunction(fhat.grid, 2j * np.pi * xi * fhat.values))


def times_x(f):
    x = f.grid.axis_points(0)
    return SampledFunction(f.grid, x * f.values)


@pytest.fixture(scope="module")
def hermites():
    return hermite_functions(GRID, 12)


@pytest.fixture(scope="module")
def hermite_sys(hermites):
    return FunctionSystem(hermites, [PhasePoint(0.0, 0.0)] * 12)


class TestFunctionSystem:
    def test_count_mismatch_rejected(self, hermites):
        with pytest.raises(ValueError, match="members vs"):
            FunctionSystem(hermites[:3], [PhasePoint(0.0, 0.0)] * 2)

    def test_grid_mismatch_rejected(self, hermites):
        other = gaussian_window(GridSpec(1, 128, 1 / 16))
        with pytest.raises(GridMismatchError):
            FunctionSystem([hermites[0], other], [PhasePoint(0.0, 0.0)] * 2)

    def test_center_dim_mismatch_rejected(self, hermites):
        with pytest.raises(ValueError, match="center dim"):
            FunctionSystem([hermites[0]], [PhasePoint((0.0, 0.0), (0.0, 0.0))])


class TestGramian:
    def test_hermite_onb_identity(self, hermite_sys):
        G = gramian(hermite_sys)
        assert np.abs(G - np.eye(12)).max() < 1e-8

    def test_gaussian_overlap_modulus(self):
        sys = gaussian_system(GRID, [(0.0, 0.0), (1.5, 0.0), (1.0, 1.0)])
        G = gramian(sys)
        assert abs(G[0, 1]) == pytest.approx(math.exp(-math.pi * 1.5**2 / 2), abs=1e-8)
        assert abs(G[0, 2]) == pytest.approx(math.exp(-math.pi), abs=1e-8)

    def test_positive_semidefinite(self, hermites):
        members = hermites[:4] + [random_bandlimited(GRID, seed) for seed in range(3)]
        members += [tf_shift(members[0], PhasePoint(0.25, -0.5))]
        sys = FunctionSystem(members, [PhasePoint(0.0, 0.0)] * 8)
        assert np.linalg.eigvalsh(gramian(sys)).min() >= -1e-10


class TestFrameBounds:
    def test_onb(self, hermite_sys):
        lo, hi, on_span = frame_bounds(hermite_sys)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)
        assert not on_span

    def test_linear_map_of_onb(self, hermites):
        T = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 0.0, 0.5]])
        V = np.stack([h.values for h in hermites[:4]])
        members = [SampledFunction(GRID, row) for row in T @ V]
        sys = FunctionSystem(members, [PhasePoint(0.0, 0.0)] * 4)
        sigma = np.linalg.svd(T, compute_uv=False)
        lo, hi, _ = frame_bounds(sys)
        assert lo == pytest.approx(sigma[-1] ** 2, abs=1e-8)
        assert hi == pytest.approx(sigma[0] ** 2, abs=1e-8)

    def test_half_lattice_density_four_stable(self):
        # Density-4 Gabor family filling the whole periodic box: the Gramian
        # rank gap is clean, so the span bounds approximate the continuum
        # frame bounds and barely move between two box shapes.
        results = []
        for grid in (GRID, GridSpec(1, 256, 1 / 8)):
            sys = gaussian_system(grid, full_box_half_lattice(grid))
            lo, hi, on_span = frame_bounds(sys)
            assert on_span
            assert lo > 0.01
            assert hi < 20.0
            results.append((lo, hi))
        (lo1, hi1), (lo2, hi2) = results
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1


class TestDualSystem:
    def test_onb_self_dual(self, hermite_sys):
        dual = dual_system(hermite_sys)
        for d, f in zip(dual.members, hermite_sys.members):
            assert np.abs(d.values - f.values).max() < 1e-10

    def test_two_function_hand_inverse(self, hermites):
        h0, h1 = hermites[0], hermites[1]
        sys = FunctionSystem([h0, h0 + h1], [PhasePoint(0.0, 0.0)] * 2)
        dual = dual_system(sys)
        assert np.abs(dual.members[0].values - (h0 - h1).values).max() < 1e-10
        assert np.abs(dual.members[1].values - h1.values).max() < 1e-10

    def test_biorthogonality_jittered_fifty(self):
        rng = np.random.default_rng(11)
        step = math.sqrt(2)
        points = [
            snap_to_grid(GRID, PhasePoint(step * m + rng.uniform(-0.1, 0.1), step * k + rng.uniform(-0.1, 0.1)))
            for m in range(-2, 3)
            for k in range(-4, 6)
        ]
        sys = FunctionSystem([tf_shift(gaussian_window(GRID), p) for p in points], points)
        assert len(sys) == 50
        dual = dual_system(sys)
        assert np.abs(biorth_matrix(sys, dual) - np.eye(50)).max() < 1e-8

    def test_dual_of_dual_returns_original(self):
        sys = gaussian_system(GRID, [(m, k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        back = dual_system(dual_system(sys))
        worst = max(np.abs(a.values - b.values).max() for a, b in zip(back.members, sys.members))
        assert worst < 1e-8

    def test_near_singular_rejected(self, hermites):
        sys = FunctionSystem([hermites[0], hermites[0]], [PhasePoint(0.0, 0.0)] * 2)
        with pytest.raises(ValueError, match="condition"):
            dual_system(sys)


class TestCanonicalTight:
    def test_onb_fixed_point(self, hermite_sys):
        tight = canonical_tight(hermite_sys)
        for t, f in zip(tight.members, hermite_sys.members):
            assert np.abs(t.values - f.values).max() < 1e-10

    def test_three_member_orthonormalized(self, hermites):
        h0, h1, h2 = hermites[:3]
        sys = FunctionSystem([h0, h0 + h1, h2 + h0 * 0.3], [PhasePoint(0.0, 0.0)] * 3)
        G = gramian(canonical_tight(sys))
        assert np.abs(G - np.eye(3)).max() < 1e-10

    def test_rank_deficient_bounds_on_span(self, hermites):
        doubled = hermites[:6] + hermites[:6]
        sys = FunctionSystem(doubled, [PhasePoint(0.0, 0.0)] * 12)
        lo, hi, on_span = frame_bounds(canonical_tight(sys))
        assert on_span
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_ill_conditioned_span_refused_unless_capped(self, hermites):
        h0, h1 = hermites[:2]
        sys = FunctionSystem([h0, h0 + h1 * 1e-6], [PhasePoint(0.0, 0.0)] * 2)
        with pytest.raises(ValueError, match="condition"):
            canonical_tight(sys)
        U, scale = _inverse_sqrt_factors(np.diag([1.0, 0.5, 1e-12]), cap=1e-10)
        np.testing.assert_allclose(scale, [0.0, 2**0.5, 1.0], rtol=1e-15)
        with pytest.raises(ValueError, match="condition"):
            _inverse_sqrt_factors(np.diag([1.0, 0.5, 1e-12]))

    def test_critical_lattice_spoils_frequency_moment(self):
        # Orthonormalizing the critical-density Gabor family pushes frequency
        # localization away from the Gaussian optimum; at half density the
        # generator is essentially untouched.
        g = gaussian_window(GRID)
        base = moment(g, 0.0, 1.0, side="frequency")
        critical = gaussian_system(GRID, [(m, k) for m in range(-3, 4) for k in range(-3, 4)])
        central = critical.centers.index(PhasePoint(0.0, 0.0))
        grown = moment(canonical_tight(critical).members[central], 0.0, 1.0, side="frequency")
        assert grown > 1.2 * base
        sparse = gaussian_system(GRID, [(2 * m, k) for m in range(-3, 4) for k in range(-6, 7)])
        central = sparse.centers.index(PhasePoint(0.0, 0.0))
        kept = moment(canonical_tight(sparse).members[central], 0.0, 1.0, side="frequency")
        assert kept < 1.05 * base


def integer_centers(radius):
    return [PhasePoint(float(m), float(k)) for m in range(-radius, radius + 1) for k in range(-radius, radius + 1)]


def synthetic_gram(centers, exponent):
    pts = np.stack([c.as_vector() for c in centers])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return (1.0 + dist) ** -exponent


class TestLocalizationFit:
    def test_synthetic_quartic_decay(self):
        centers = integer_centers(4)
        fit = localization_fit(synthetic_gram(centers, 4.0), centers)
        assert fit.exponent == pytest.approx(4.0, abs=0.05)
        assert fit.r2 > 0.99

    def test_diagonal_sentinel(self):
        centers = integer_centers(4)
        fit = localization_fit(np.eye(len(centers)), centers)
        assert math.isinf(fit.exponent)
        assert fit.constant == GRAM_FLOOR
        assert len(fit.bins) >= 4

    def test_too_few_members_rejected(self):
        centers = [PhasePoint(float(k), 0.0) for k in range(7)]
        with pytest.raises(ValueError, match="at least 8"):
            localization_fit(np.eye(7), centers)

    def test_too_few_bins_rejected(self):
        centers = [PhasePoint(0.1 * k, 0.0) for k in range(8)]
        with pytest.raises(ValueError, match="distance bins"):
            localization_fit(np.eye(8), centers)

    def test_relabeling_invariance(self):
        centers = integer_centers(4)
        G = synthetic_gram(centers, 3.0)
        fit = localization_fit(G, centers)
        perm = np.random.default_rng(3).permutation(len(centers))
        shuffled = localization_fit(G[np.ix_(perm, perm)], [centers[i] for i in perm])
        assert shuffled.exponent == pytest.approx(fit.exponent, rel=1e-12)
        assert shuffled.constant == pytest.approx(fit.constant, rel=1e-12)


class TestDualLocalizationCheck:
    def test_orthogonal_family_hits_both_sentinels(self):
        grid = GridSpec(1, 512, 1 / 16)
        sys = gaussian_system(grid, [(4.5 * m, 4.5 * k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        primal, dual = dual_localization_check(sys, 6.0)
        assert math.isinf(primal.exponent)
        assert math.isinf(dual.exponent)

    def test_jittered_half_density_dual_stays_localized(self):
        rng = np.random.default_rng(7)
        step = math.sqrt(2)
        points = []
        for m in range(-4, 5):
            for k in range(-4, 5):
                a = step * m + rng.uniform(-0.1, 0.1)
                b = step * k + rng.uniform(-0.1, 0.1)
                if abs(a) > 6.5 or abs(b) > 6.5:
                    continue
                points.append(snap_to_grid(GRID, PhasePoint(a, b)))
        sys = FunctionSystem([tf_shift(gaussian_window(GRID), p) for p in points], points)
        primal, dual = dual_localization_check(sys, 6.0)
        assert primal.exponent > 6.0
        assert dual.exponent >= 4.0

    def test_banded_synthetic_inverse_keeps_decay(self):
        centers = [PhasePoint(float(k), 0.0) for k in range(-8, 9)]
        G = synthetic_gram(centers, 5.0)
        inverse_fit = localization_fit(np.linalg.inv(G), centers)
        assert inverse_fit.exponent >= 4.5

    def test_threshold_rejection(self):
        grid = GridSpec(1, 512, 1 / 16)
        x = grid.axis_points(0)
        wide = SampledFunction(grid, (0.5**0.25 * np.exp(-np.pi * x**2 / 4)).astype(complex))
        centers = [PhasePoint(float(k), 0.0) for k in range(-8, 9)]
        sys = FunctionSystem([tf_shift(wide, c) for c in centers], centers)
        with pytest.raises(ValueError, match="threshold"):
            dual_localization_check(sys, 50.0)


class TestCommutationLedger:
    def test_singleton_canonical_commutation(self):
        g = gaussian_window(GRID)
        gp = spectral_derivative(g)
        value = inner_product(times_x(g), gp) + inner_product(gp, times_x(g))
        assert abs(value - (-1.0)) < 1e-6

    def test_orthogonal_hermites_commute_to_zero(self, hermites):
        h0, h2 = hermites[0], hermites[2]
        value = inner_product(times_x(h0), spectral_derivative(h2)) + inner_product(
            spectral_derivative(h0), times_x(h2)
        )
        assert abs(value) < 1e-6

    def test_hermite_truncation_profile(self):
        members = hermite_functions(GRID, 64)
        sys = FunctionSystem(members, [PhasePoint(0.0, 0.0)] * 64)
        # every member has under 2e-25 of its mass beyond 3/4 of either half-extent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = commutation_ledger(sys, sys)
        res = ledger.per_n_identity_residual
        assert res[:17].mean() < 0.05
        assert res[-1] > 10.0

    def test_truncated_box_warns(self):
        # half the box: h_31 has 0.16 of its mass beyond 3, 3/4 of the time half-extent 4
        grid = GridSpec(1, 128, 1 / 16)
        sys = FunctionSystem(hermite_functions(grid, 32), [PhasePoint(0.0, 0.0)] * 32)
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(sys, sys)

    def test_frequency_edge_mass_warns(self):
        # modulated to xi = 6 on a frequency half-extent of 8; the time side is clean
        f = tf_shift(gaussian_window(GRID), PhasePoint(0.0, 6.0))
        assert tail_mass(f) < 1e-20
        single = FunctionSystem([f], [PhasePoint(0.0, 6.0)])
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(single, single)

    def test_truncation_defect_matches_recurrence(self, hermites):
        sys = FunctionSystem(hermites[:6], [PhasePoint(0.0, 0.0)] * 6)
        ledger = commutation_ledger(sys, sys)
        assert ledger.truncation_defect[:5, 0].max() < 1e-10
        assert ledger.truncation_defect[5, 0] == pytest.approx(math.sqrt(6 / (4 * math.pi)), abs=1e-10)

    def test_coefficients_match_direct_inner_products(self):
        sys = gaussian_system(GRID, [(m, k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        dual = dual_system(sys)
        ledger = commutation_ledger(sys, dual)
        for n in (0, 4, 7):
            fn = sys.members[n]
            fn_hat = fourier_transform(fn)
            xi = fn_hat.grid.axis_points(0)
            for m in (1, 4, 8):
                direct = inner_product(times_x(fn), dual.members[m])
                assert abs(ledger.c[m, n, 0] - direct) < 1e-10
                gm_hat = fourier_transform(dual.members[m])
                direct_d = inner_product(SampledFunction(fn_hat.grid, xi * fn_hat.values), gm_hat)
                assert abs(ledger.dcoef[m, n, 0] - direct_d) < 1e-10

    def test_non_biorthogonal_rejected(self, hermites):
        sys = FunctionSystem([hermites[0], hermites[0] + hermites[1]], [PhasePoint(0.0, 0.0)] * 2)
        with pytest.raises(ValueError, match="biorthogonal"):
            commutation_ledger(sys, sys)


class TestSerialization:
    def test_ledger_csv(self, tmp_path):
        # the uncertainty-sum experiment writes the ledger of hermite-onb(8) on GRID
        cfg = tmp_path / "ledger.cfg"
        cfg.write_text("[uncertainty-sum]\ngrid_n = 256\ngrid_dx = 0.0625\ncount = 8\n")
        assert main(["uncertainty-sum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "uncertainty_sum.csv").read_text().splitlines()
        lines = [ln for ln in lines if not ln.startswith("#")]
        assert lines[0] == "n,identity_residual,truncation_defect"
        assert len(lines) == 1 + 8
        n, res, dft = lines[-1].split(",")
        assert n == "7"
        assert float(res) > 0
        assert float(dft) == pytest.approx(math.sqrt(8 / (4 * math.pi)), abs=1e-10)
