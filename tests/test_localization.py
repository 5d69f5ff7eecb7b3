"""Moments, optimal centers, weighted norms, and the sampling inequality."""

import itertools
import math

import numpy as np
import pytest

from pslab.corpus import hermite_functions, random_bandlimited, standard_corpus, two_bump
from pslab.geometry import PhasePointSet, lattice_point_set, separation_stat
from pslab.grid import (
    GridSpec,
    PhasePoint,
    SampledFunction,
    fourier_transform,
    gaussian_window,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import (
    amalgam_norm,
    localization_report,
    modulation_norm,
    modulation_weight,
    moment,
    optimal_center,
    sampled_weighted_sum,
    tail_mass,
    weighted_l2_norm,
)
from pslab.stft import stft

GRID = GridSpec(1, 256, 1 / 16)
GRID_2D = GridSpec(2, 16, 1 / 4)


def phase_axes_2d():
    """Sample positions of the four phase-space axes of GRID_2D: time, then frequency."""
    dual = GRID_2D.dual()
    return [GRID_2D.axis_points(ax) for ax in range(2)] + [dual.axis_points(ax) for ax in range(2)]


def field_2d(seed):
    return stft(random_bandlimited(GRID_2D, seed), gaussian_window(GRID_2D))


@pytest.fixture(scope="module")
def gauss():
    return gaussian_window(GRID)


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus(GRID)


class TestMoment:
    def test_gaussian_time_moment(self, gauss):
        assert moment(gauss, [0.0], 1.0) == pytest.approx(1 / (4 * math.pi), abs=1e-6)

    def test_s_zero_is_squared_norm(self, corpus):
        for f in corpus[:5]:
            assert moment(f, [0.0], 0.0) == pytest.approx(f.norm() ** 2, rel=1e-13)

    def test_translation_covariance(self, gauss):
        shifted = tf_shift(gauss, PhasePoint(0.5, 0.75))
        assert moment(shifted, [0.5], 1.0) == pytest.approx(moment(gauss, [0.0], 1.0), abs=1e-10)

    def test_frequency_side_by_fourier_invariance(self, gauss):
        assert moment(gauss, [0.0], 1.0, "frequency") == pytest.approx(1 / (4 * math.pi), abs=1e-6)

    def test_negative_s_rejected(self, gauss):
        with pytest.raises(ValueError):
            moment(gauss, [0.0], -0.5)

    def test_bad_side_rejected(self, gauss):
        with pytest.raises(ValueError):
            moment(gauss, [0.0], 1.0, "both")

    def test_continuity_in_center(self, gauss):
        delta = GRID.step[0] / 100
        wiggle = abs(moment(gauss, [0.3 + delta], 1.0) - moment(gauss, [0.3], 1.0))
        assert wiggle < 1e-3


class TestOptimalCenter:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_even_function_centers_at_zero(self, gauss, s):
        center, _ = optimal_center(gauss, s)
        assert abs(center[0]) <= 1e-4

    def test_s_one_recovers_centroid(self):
        g = gaussian_window(GRID)
        f = tf_shift(g, PhasePoint(1.0, 0.0)) + tf_shift(g, PhasePoint(-2.0, 0.0)) * 0.5
        mass = np.abs(f.values) ** 2
        centroid = float((GRID.axis_points(0) * mass).sum() / mass.sum())
        center, _ = optimal_center(f, 1.0)
        assert center[0] == pytest.approx(centroid, abs=1e-4)

    def test_bimodal_matches_fine_scan(self):
        f = two_bump(GRID, 3.0)
        center, value = optimal_center(f, 1.0)
        assert abs(center[0]) <= 1e-4
        scan = [moment(f, [a], 1.0) for a in np.arange(-1.0, 1.0, GRID.step[0] / 10)]
        assert value == pytest.approx(min(scan), abs=1e-4)
        assert value <= min(scan) + 1e-12

    def test_corpus_agrees_with_fine_scan(self, corpus):
        for f in corpus:
            center, value = optimal_center(f, 1.0)
            mass = np.abs(f.values) ** 2
            centroid = float((GRID.axis_points(0) * mass).sum() / mass.sum())
            scan = min(
                moment(f, [a], 1.0)
                for a in centroid + np.arange(-1.5, 1.5, GRID.step[0] / 10)
            )
            assert value <= scan + 1e-3
            assert abs(value - scan) <= 1e-3

    def test_zero_function_rejected(self):
        zero = SampledFunction(GRID, np.zeros(GRID.shape))
        with pytest.raises(ValueError):
            optimal_center(zero, 1.0)

    def test_two_dimensional_center(self):
        grid2 = GridSpec(2, 32, 1 / 4)
        g2 = gaussian_window(grid2)
        shifted = tf_shift(g2, PhasePoint((0.5, -0.75), (0.0, 0.0)))
        center, _ = optimal_center(shifted, 1.0)
        assert center[0] == pytest.approx(0.5, abs=1e-3)
        assert center[1] == pytest.approx(-0.75, abs=1e-3)


class TestLocalizationReport:
    def test_gaussian_total(self, gauss):
        rep = localization_report(gauss, 1.0)
        assert rep.total == pytest.approx(1 / (2 * math.pi), abs=1e-5)
        assert rep.center.a[0] == pytest.approx(0.0, abs=1e-3)
        assert not rep.tail_warning

    def test_phase_space_covariance(self, gauss):
        rep0 = localization_report(gauss, 1.0)
        rep = localization_report(tf_shift(gauss, PhasePoint(1.5, -2.0)), 1.0)
        assert rep.total == pytest.approx(rep0.total, abs=1e-8)
        assert rep.center.a[0] == pytest.approx(1.5, abs=1e-3)
        assert rep.center.b[0] == pytest.approx(-2.0, abs=1e-3)

    def test_first_hermite_total(self):
        h1 = hermite_functions(GRID, 2)[1]
        rep = localization_report(h1, 1.0)
        assert rep.total == pytest.approx(3 / (2 * math.pi), abs=1e-4)

    def test_boundary_mass_warns(self, gauss):
        hugging = tf_shift(gauss, PhasePoint(6.0, 0.0))
        assert tail_mass(hugging) > 1e-6
        with pytest.warns(UserWarning):
            rep = localization_report(hugging, 1.0)
        assert rep.tail_warning

    def test_total_consistency_enforced(self):
        from pslab.localization import LocalizationReport

        with pytest.raises(ValueError):
            LocalizationReport(s=1.0, time_moment=1.0, freq_moment=1.0, center=PhasePoint(0.0, 0.0), total=3.0)


class TestWeightedNorms:
    def test_s_zero_is_l2(self, corpus):
        for f in corpus[:5]:
            assert weighted_l2_norm(f, 0.0) == pytest.approx(f.norm(), rel=1e-13)

    def test_monotone_in_s(self, corpus):
        for f in corpus[:8]:
            assert weighted_l2_norm(f, 1.0) <= weighted_l2_norm(f, 2.0)

    def test_gaussian_against_quadrature(self):
        # the |x| kink limits Riemann-sum accuracy, so compare on a fine grid
        fine = GridSpec(1, 16384, 1 / 1024)
        x = np.linspace(-8.0, 8.0, 200001)
        integrand = (1 + np.abs(x)) ** 2 * np.sqrt(2.0) * np.exp(-2 * np.pi * x**2)
        oracle = math.sqrt(np.trapezoid(integrand, x))
        assert weighted_l2_norm(gaussian_window(fine), 1.0) == pytest.approx(oracle, abs=1e-6)

    def test_same_node_sum(self, gauss):
        x = GRID.axis_points(0)
        direct = math.sqrt(GRID.cell_volume * float(np.sum((1 + np.abs(x)) ** 2 * np.abs(gauss.values) ** 2)))
        assert weighted_l2_norm(gauss, 1.0) == pytest.approx(direct, rel=1e-14)

    def test_modulation_s_zero_is_l2(self, corpus):
        for f in corpus[:5]:
            assert modulation_norm(f, 0.0) == pytest.approx(f.norm(), abs=1e-8)

    def test_norm_equivalence_bracket(self, corpus):
        ratios = []
        for f in corpus:
            num = weighted_l2_norm(f, 1.0) + weighted_l2_norm(fourier_transform(f), 1.0)
            ratios.append(num / modulation_norm(f, 1.0))
        assert min(ratios) >= 1.1
        assert max(ratios) <= 1.8

    def test_modulation_covariance(self, corpus):
        for f in corpus[:6]:
            base = modulation_norm(f, 1.0)
            for a, b in [(0.5, 0.5), (1.0, -2.0), (2.0, 1.5)]:
                sh = tf_shift(f, snap_to_grid(GRID, PhasePoint(a, b)))
                assert modulation_norm(sh, 1.0) <= (1 + abs(a) + abs(b)) * base


class TestModulationWeight:
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    def test_matches_loop_2d(self, s):
        axes = phase_axes_2d()
        ref = np.empty((16,) * 4)
        for j in np.ndindex(ref.shape):
            r = math.sqrt(sum(ax[i] ** 2 for ax, i in zip(axes, j)))
            ref[j] = (1 + r) ** (2 * s)
        weight = np.broadcast_to(modulation_weight(GRID_2D, s), ref.shape)
        np.testing.assert_allclose(weight, ref, rtol=1e-14)


class TestAmalgamNorm:
    def test_coarse_grid_rejected(self, gauss):
        coarse = GridSpec(1, 16, 1.0)
        w = gaussian_window(coarse)
        with pytest.raises(ValueError):
            amalgam_norm(stft(w, w), 1.0)

    def test_dominates_l2(self, corpus, gauss):
        for f in corpus[:6]:
            field = stft(f, gauss)
            assert amalgam_norm(field, 0.0) >= field.norm() - 1e-12

    def test_single_box_support(self, gauss):
        field = stft(gauss, gauss)
        values = np.zeros_like(field.values)
        # two cells inside the box [0,1) x [0,1); the sup wins
        values[128 + 2, 128 + 3] = 3.0
        values[128 + 9, 128 + 1] = 2.0
        single = type(field)(field.grid, values)
        for s in (0.0, 1.5):
            assert amalgam_norm(single, s) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_matches_box_scan_oracle(self, gauss, s):
        field = stft(gauss, gauss)
        x = GRID.axis_points(0)
        xi = GRID.dual().axis_points(0)
        total = 0.0
        for k in range(-8, 8):
            mx = (x >= k) & (x < k + 1)
            for n in range(-8, 8):
                mxi = (xi >= n) & (xi < n + 1)
                block = np.abs(field.values[np.ix_(mx, mxi)]) ** 2
                total += block.max() * (1 + abs(k) + abs(n)) ** (2 * s)
        assert amalgam_norm(field, s) == pytest.approx(math.sqrt(total), abs=1e-10)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_matches_box_loop_2d(self, s):
        field = field_2d(3)
        axes = phase_axes_2d()
        total = 0.0
        for corner in itertools.product(range(-2, 2), repeat=4):
            masks = [(p >= c) & (p < c + 1) for p, c in zip(axes, corner)]
            block = np.abs(field.values[np.ix_(*masks)]) ** 2
            k, n = np.array(corner[:2]), np.array(corner[2:])
            total += block.max() * (1 + np.linalg.norm(k) + np.linalg.norm(n)) ** (2 * s)
        assert amalgam_norm(field, s) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_embedding_into_modulation_norm(self, corpus, gauss):
        ratios = [amalgam_norm(stft(f, gauss), 1.0) / modulation_norm(f, 1.0) for f in corpus]
        assert max(ratios) < 3.5


class TestSampledWeightedSum:
    def test_single_point_at_origin(self, gauss):
        field = stft(gauss, gauss)
        lam = PhasePointSet(np.array([[0.0, 0.0]]), 1.0, 1)
        value = sampled_weighted_sum(field, lam, (0.0, 0.0), 0.0)
        assert value == pytest.approx(abs(field.values[128, 128]), abs=1e-12)

    def test_duplicate_strictly_increases(self, gauss):
        field = stft(gauss, gauss)
        lam = PhasePointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), 2.0, 1)
        dup = PhasePointSet(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), 2.0, 1)
        assert sampled_weighted_sum(field, dup, (0.0, 0.0), 0.0) > sampled_weighted_sum(
            field, lam, (0.0, 0.0), 0.0
        )

    def test_sampling_inequality(self, corpus, gauss):
        lam = lattice_point_set((1.0, 1.0), 6.0)
        sep = separation_stat(lam)
        for f in corpus[::3]:
            field = stft(f, gauss)
            for z, s in [((0.0, 0.0), 0.0), ((0.25, -0.125), 1.0), ((0.4375, 0.375), 2.0)]:
                value = sampled_weighted_sum(field, lam, z, s)
                assert value <= sep * amalgam_norm(field, s) * 1.05

    def test_out_of_domain_rejected(self, gauss):
        field = stft(gauss, gauss)
        lam = lattice_point_set((1.0, 1.0), 8.0)
        with pytest.raises(ValueError):
            sampled_weighted_sum(field, lam, (0.25, -0.125), 1.0)

    def test_matches_point_loop_2d(self):
        field = field_2d(4)
        axes = phase_axes_2d()
        lam = PhasePointSet(np.random.default_rng(2).uniform(-1.5, 1.5, size=(12, 4)), 1.5, 2)
        z, s = np.array([0.25, -0.125, 0.1, 0.0]), 1.5
        total = 0.0
        for row in lam.coords:
            p = row + z
            idx = tuple(int(np.argmin(np.abs(ax - v))) for ax, v in zip(axes, p))
            total += abs(field.values[idx]) ** 2 * (1 + np.linalg.norm(p)) ** (2 * s)
        assert sampled_weighted_sum(field, lam, z, s) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_empty_set_is_zero(self, gauss):
        field = stft(gauss, gauss)
        lam = PhasePointSet(np.zeros((0, 2)), 1.0, 1)
        assert sampled_weighted_sum(field, lam, (0.0, 0.0), 1.0) == 0.0
