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
    _inverse_sqrt_weights,
    canonical_tight,
    commutation_ledger,
    dual_gram,
    dual_system,
    frame_bounds,
    gramian,
    localization_fit,
)
from pslab.grid import (
    GridMismatchError,
    GridSpec,
    SampledFunction,
    fourier_transform,
    gaussian_window,
    inner_product,
    inverse_fourier_transform,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import moment, tail_mass
from pslab.operators import improve_system

GRID = GridSpec(1, 256, 1 / 16)


def stack(functions):
    """Sampled functions as the rows of an (M,) + grid.shape array."""
    return np.stack([f.values for f in functions])


def gaussian_system(grid, points):
    """Gaussian atoms at the phase points (a, b), stacked, and their (M, 2) centers."""
    centers = np.array(points, dtype=float)
    return tf_shift(gaussian_window(grid).values, grid, centers), centers


def full_box_half_lattice(grid):
    """All points of (1/2)Z x (1/2)Z inside the periodic phase-space box."""
    ta, tb = grid.half_extent(0), grid.dual().half_extent(0)
    return [
        (0.5 * m, 0.5 * k)
        for m in range(int(-2 * ta), int(2 * ta))
        for k in range(int(-2 * tb), int(2 * tb))
    ]


def biorth_matrix(members, dual, grid):
    return grid.cell_volume * (members @ np.conj(dual).T)


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
    return stack(hermites)


STACK_CONSUMERS = {
    "gramian": gramian,
    "frame_bounds": frame_bounds,
    "dual_system": dual_system,
    "canonical_tight": canonical_tight,
    "commutation_ledger": lambda members, grid: commutation_ledger(members, members, grid),
}


class TestStackShapes:
    def test_count_mismatch_rejected(self, hermite_sys):
        # twelve members, eleven centers
        with pytest.raises(ValueError, match="centers of shape"):
            improve_system(hermite_sys, np.zeros((11, 2)), GRID, [3.0])
        with pytest.raises(ValueError, match="does not match 11 centers"):
            localization_fit(np.eye(12), np.zeros((11, 2)))

    def test_grid_mismatch_rejected(self, hermite_sys):
        other = stack(hermite_functions(GridSpec(1, 128, 1 / 16), 3))
        for name, consume in STACK_CONSUMERS.items():
            # samples of another grid, one function not stacked, and no function at all
            for members in (other, hermite_sys[0]):
                with pytest.raises(GridMismatchError, match="does not hold samples"):
                    consume(members, GRID)
            with pytest.raises(ValueError, match="at least one member"):
                consume(hermite_sys[:0], GRID)
        with pytest.raises(GridMismatchError, match="match in grid and size"):
            commutation_ledger(hermite_sys, hermite_sys[:6], GRID)

    def test_center_dim_mismatch_rejected(self, hermite_sys):
        # 2-D centers on a 1-D grid, and centers that are not rows at all
        with pytest.raises(ValueError, match="centers of shape"):
            improve_system(hermite_sys, np.zeros((12, 4)), GRID, [3.0])
        with pytest.raises(ValueError, match="centers of shape"):
            improve_system(hermite_sys, np.zeros(12), GRID, [3.0])
        for centers in (np.zeros(12), np.zeros((12, 3))):
            with pytest.raises(ValueError, match="not an \\(M, 2d\\) array"):
                localization_fit(np.eye(12), centers)


class TestGramian:
    def test_hermite_onb_identity(self, hermite_sys):
        G = gramian(hermite_sys, GRID)
        assert np.abs(G - np.eye(12)).max() < 1e-8

    def test_gaussian_overlap_modulus(self):
        members, _ = gaussian_system(GRID, [(0.0, 0.0), (1.5, 0.0), (1.0, 1.0)])
        G = gramian(members, GRID)
        assert abs(G[0, 1]) == pytest.approx(math.exp(-math.pi * 1.5**2 / 2), abs=1e-8)
        assert abs(G[0, 2]) == pytest.approx(math.exp(-math.pi), abs=1e-8)

    def test_positive_semidefinite(self, hermites):
        members = hermites[:4] + [random_bandlimited(GRID, seed) for seed in range(3)]
        members += [SampledFunction(GRID, tf_shift(members[0].values, GRID, [0.25, -0.5]))]
        assert np.linalg.eigvalsh(gramian(stack(members), GRID)).min() >= -1e-10


class TestFrameBounds:
    def test_onb(self, hermite_sys):
        lo, hi, on_span = frame_bounds(hermite_sys, GRID)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)
        assert not on_span

    def test_linear_map_of_onb(self, hermites):
        T = np.array([[2.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 0.0, 0.5]])
        members = T @ stack(hermites[:4])
        sigma = np.linalg.svd(T, compute_uv=False)
        lo, hi, _ = frame_bounds(members, GRID)
        assert lo == pytest.approx(sigma[-1] ** 2, abs=1e-8)
        assert hi == pytest.approx(sigma[0] ** 2, abs=1e-8)

    def test_half_lattice_density_four_stable(self):
        # Density-4 Gabor family filling the whole periodic box: the Gramian
        # rank gap is clean, so the span bounds approximate the continuum
        # frame bounds and barely move between two box shapes.
        results = []
        for grid in (GRID, GridSpec(1, 256, 1 / 8)):
            members, _ = gaussian_system(grid, full_box_half_lattice(grid))
            lo, hi, on_span = frame_bounds(members, grid)
            assert on_span
            assert lo > 0.01
            assert hi < 20.0
            results.append((lo, hi))
        (lo1, hi1), (lo2, hi2) = results
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1


class TestDualSystem:
    def test_onb_self_dual(self, hermite_sys):
        assert np.abs(dual_system(hermite_sys, GRID) - hermite_sys).max() < 1e-10

    def test_two_function_hand_inverse(self, hermites):
        h0, h1 = hermites[0], hermites[1]
        dual = dual_system(stack([h0, h0 + h1]), GRID)
        assert np.abs(dual[0] - (h0 - h1).values).max() < 1e-10
        assert np.abs(dual[1] - h1.values).max() < 1e-10

    @staticmethod
    def jittered_fifty():
        rng = np.random.default_rng(11)
        step = math.sqrt(2)
        points = [
            snap_to_grid(GRID, [step * m + rng.uniform(-0.1, 0.1), step * k + rng.uniform(-0.1, 0.1)])
            for m in range(-2, 3)
            for k in range(-4, 6)
        ]
        members = tf_shift(gaussian_window(GRID).values, GRID, points)
        assert len(members) == 50
        return members

    def test_biorthogonality_jittered_fifty(self):
        members = self.jittered_fifty()
        dual = dual_system(members, GRID)
        assert np.abs(biorth_matrix(members, dual, GRID) - np.eye(50)).max() < 1e-8

    def test_dual_gram_matches_the_synthesized_dual(self):
        members = self.jittered_fifty()
        synthesized = gramian(dual_system(members, GRID), GRID)
        assert np.abs(dual_gram(gramian(members, GRID)) - synthesized).max() < 1e-10 * np.abs(synthesized).max()

    def test_coefficients_match_the_lu_solve(self):
        members = self.jittered_fifty()
        solved = np.linalg.solve(np.conj(gramian(members, GRID)), members)
        assert np.abs(dual_system(members, GRID) - solved).max() < 1e-10 * np.abs(solved).max()

    def test_dual_of_dual_returns_original(self):
        members, _ = gaussian_system(GRID, [(m, k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        back = dual_system(dual_system(members, GRID), GRID)
        assert np.abs(back - members).max() < 1e-8

    def test_near_singular_rejected(self, hermites):
        members = stack([hermites[0], hermites[0]])
        with pytest.raises(ValueError, match="condition"):
            dual_system(members, GRID)
        with pytest.raises(ValueError, match="no stable dual"):
            dual_gram(gramian(members, GRID))


class TestCanonicalTight:
    def test_onb_fixed_point(self, hermite_sys):
        assert np.abs(canonical_tight(hermite_sys, GRID) - hermite_sys).max() < 1e-10

    def test_three_member_orthonormalized(self, hermites):
        h0, h1, h2 = hermites[:3]
        G = gramian(canonical_tight(stack([h0, h0 + h1, h2 + h0 * 0.3]), GRID), GRID)
        assert np.abs(G - np.eye(3)).max() < 1e-10

    def test_rank_deficient_bounds_on_span(self, hermites):
        doubled = stack(hermites[:6] + hermites[:6])
        lo, hi, on_span = frame_bounds(canonical_tight(doubled, GRID), GRID)
        assert on_span
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_ill_conditioned_span_refused_unless_capped(self, hermites):
        h0, h1 = hermites[:2]
        with pytest.raises(ValueError, match="condition"):
            canonical_tight(stack([h0, h0 + h1 * 1e-6]), GRID)
        spectrum = np.array([1e-12, 0.5, 1.0])
        (scale,), dropped = _inverse_sqrt_weights([spectrum], capped=True)
        np.testing.assert_allclose(scale, [0.0, 2**0.5, 1.0], rtol=1e-15)
        assert dropped == 1
        with pytest.raises(ValueError, match="condition"):
            _inverse_sqrt_weights([spectrum])

    @pytest.mark.parametrize("scale, accepted", [(1e-4, True), (1e-5, False)], ids=["cond-4e8", "cond-4e10"])
    def test_dual_and_tight_share_one_condition_limit(self, hermites, scale, accepted):
        h0, h1 = hermites[:2]
        members = stack([h0, h0 + h1 * scale])
        for build in (dual_system, canonical_tight, lambda m, grid: dual_gram(gramian(m, grid))):
            if accepted:
                assert len(build(members, GRID)) == 2
            else:
                with pytest.raises(ValueError, match="condition"):
                    build(members, GRID)

    def test_critical_lattice_spoils_frequency_moment(self):
        # Orthonormalizing the critical-density Gabor family pushes frequency
        # localization away from the Gaussian optimum; at half density the
        # generator is essentially untouched.
        g = gaussian_window(GRID)
        base = moment(g, 0.0, 1.0, side="frequency")
        critical, centers = gaussian_system(GRID, [(m, k) for m in range(-3, 4) for k in range(-3, 4)])
        central = SampledFunction(GRID, canonical_tight(critical, GRID)[np.flatnonzero(~centers.any(axis=1))[0]])
        assert moment(central, 0.0, 1.0, side="frequency") > 1.2 * base
        sparse, centers = gaussian_system(GRID, [(2 * m, k) for m in range(-3, 4) for k in range(-6, 7)])
        central = SampledFunction(GRID, canonical_tight(sparse, GRID)[np.flatnonzero(~centers.any(axis=1))[0]])
        assert moment(central, 0.0, 1.0, side="frequency") < 1.05 * base


def integer_centers(radius):
    return np.array([(m, k) for m in range(-radius, radius + 1) for k in range(-radius, radius + 1)], dtype=float)


def synthetic_gram(centers, exponent):
    dist = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
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
        centers = np.array([(k, 0.0) for k in range(7)])
        with pytest.raises(ValueError, match="at least 8"):
            localization_fit(np.eye(7), centers)

    def test_too_few_bins_rejected(self):
        centers = np.array([(0.1 * k, 0.0) for k in range(8)])
        with pytest.raises(ValueError, match="distance bins"):
            localization_fit(np.eye(8), centers)

    def test_relabeling_invariance(self):
        centers = integer_centers(4)
        G = synthetic_gram(centers, 3.0)
        fit = localization_fit(G, centers)
        perm = np.random.default_rng(3).permutation(len(centers))
        shuffled = localization_fit(G[np.ix_(perm, perm)], centers[perm])
        assert shuffled.exponent == pytest.approx(fit.exponent, rel=1e-12)
        assert shuffled.constant == pytest.approx(fit.constant, rel=1e-12)


class TestDualLocalizationCheck:
    def test_orthogonal_family_hits_both_sentinels(self):
        grid = GridSpec(1, 512, 1 / 16)
        members, centers = gaussian_system(grid, [(4.5 * m, 4.5 * k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        primal = localization_fit(gramian(members, grid), centers)
        dual = localization_fit(gramian(dual_system(members, grid), grid), centers)
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
                points.append(snap_to_grid(GRID, [a, b]))
        members = tf_shift(gaussian_window(GRID).values, GRID, points)
        primal = localization_fit(gramian(members, GRID), np.array(points))
        dual = localization_fit(gramian(dual_system(members, GRID), GRID), np.array(points))
        assert primal.exponent > 6.0
        assert dual.exponent >= 4.0

    def test_banded_synthetic_inverse_keeps_decay(self):
        centers = np.array([(k, 0.0) for k in range(-8, 9)], dtype=float)
        G = synthetic_gram(centers, 5.0)
        inverse_fit = localization_fit(np.linalg.inv(G), centers)
        assert inverse_fit.exponent >= 4.5


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
        members = stack(hermite_functions(GRID, 64))
        # every member has under 2e-25 of its mass beyond 3/4 of either half-extent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ledger = commutation_ledger(members, members, GRID)
        res = ledger.per_n_identity_residual
        assert res[:17].mean() < 0.05
        assert res[-1] > 10.0

    def test_truncated_box_warns(self):
        # half the box: h_31 has 0.16 of its mass beyond 3, 3/4 of the time half-extent 4
        grid = GridSpec(1, 128, 1 / 16)
        members = stack(hermite_functions(grid, 32))
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(members, members, grid)

    def test_frequency_edge_mass_warns(self):
        # modulated to xi = 6 on a frequency half-extent of 8; the time side is clean
        f = tf_shift(gaussian_window(GRID).values, GRID, [0.0, 6.0])
        assert tail_mass(f, GRID) < 1e-20
        single = f[None]
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(single, single, GRID)

    def test_truncation_defect_matches_recurrence(self, hermites):
        members = stack(hermites[:6])
        ledger = commutation_ledger(members, members, GRID)
        assert ledger.truncation_defect[:5, 0].max() < 1e-10
        assert ledger.truncation_defect[5, 0] == pytest.approx(math.sqrt(6 / (4 * math.pi)), abs=1e-10)

    def test_coefficients_match_direct_inner_products(self):
        members, _ = gaussian_system(GRID, [(m, k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        dual = dual_system(members, GRID)
        ledger = commutation_ledger(members, dual, GRID)
        for n in (0, 4, 7):
            fn = SampledFunction(GRID, members[n])
            fn_hat = fourier_transform(fn)
            xi = fn_hat.grid.axis_points(0)
            for m in (1, 4, 8):
                gm = SampledFunction(GRID, dual[m])
                direct = inner_product(times_x(fn), gm)
                assert abs(ledger.c[m, n, 0] - direct) < 1e-10
                gm_hat = fourier_transform(gm)
                direct_d = inner_product(SampledFunction(fn_hat.grid, xi * fn_hat.values), gm_hat)
                assert abs(ledger.dcoef[m, n, 0] - direct_d) < 1e-10

    def test_self_dual_pair_matches_a_copied_dual(self, hermites):
        # the shared stack and transforms of commutation_ledger(members, members, grid) change no bit
        members = stack(hermites[:8])
        shared = commutation_ledger(members, members, GRID)
        copied = commutation_ledger(members, members.copy(), GRID)
        for name in ("c", "dcoef", "per_n_identity_residual", "truncation_defect"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(copied, name))

    def test_non_biorthogonal_rejected(self, hermites):
        members = stack([hermites[0], hermites[0] + hermites[1]])
        with pytest.raises(ValueError, match="biorthogonal"):
            commutation_ledger(members, members, GRID)


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
