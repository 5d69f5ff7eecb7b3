"""Moments, tail mass, weighted phase-space norms, and the sampling inequality."""

import itertools
import math

import numpy as np
import pytest

from pslab.corpus import hermite_functions, random_bandlimited, standard_corpus
from pslab.frames import commutation_ledger, dual_system
from pslab.geometry import lattice_point_set, separation_stat
from pslab.grid import GridSpec, SampledFunction, fourier_transform, gaussian_window, snap_to_grid, tf_shift
from pslab.localization import (
    amalgam_norm,
    modulation_norm,
    modulation_weight,
    moment,
    sampled_weighted_sum,
    tail_mass,
    weighted_field_norm,
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
        shifted = SampledFunction(GRID, tf_shift(gauss.values, GRID, [0.5, 0.75]))
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


class TestTailMass:
    def test_boundary_mass_warns(self, gauss):
        assert tail_mass(gauss.values, GRID) < 1e-6
        hugging = tf_shift(gauss.values, GRID, [6.0, 0.0])
        assert tail_mass(hugging, GRID) > 1e-6
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(hugging[None], hugging[None], GRID)

    def test_stack_is_judged_by_its_worst_member(self, gauss):
        # 40 quiet Hermite functions and one atom with 2.7e-6 of its mass past 6:
        # measured against the mass of the whole stack its tail would read 6.5e-8
        quiet = hermite_functions(GRID, 40)
        edge = tf_shift(gauss.values, GRID, [4.75, 0.0])
        members = np.concatenate([quiet, edge[None]])
        assert tail_mass(members, GRID) == max(tail_mass(f, GRID) for f in members) == tail_mass(edge, GRID)
        assert tail_mass(quiet, GRID) < 1e-20 and 1e-6 < tail_mass(edge, GRID) < 41e-6
        with pytest.warns(UserWarning, match="boundary mass"):
            commutation_ledger(members, dual_system(members, GRID), GRID)


class TestWeightedNorms:
    def test_monotone_in_s(self, corpus):
        for f in corpus[:8]:
            assert modulation_norm(f, 1.0) <= modulation_norm(f, 2.0)

    def test_gaussian_against_quadrature(self):
        # |V_g g(z)|^2 = exp(-pi |z|^2), so the squared norm is the radial
        # integral of (1 + r)^2 exp(-pi r^2) 2 pi r; the cone kink of r at the
        # origin limits the Riemann sum to O(h^3), so compare on a finer grid
        fine = GridSpec(1, 1024, 1 / 32)
        r = np.linspace(0.0, 8.0, 200001)
        oracle = math.sqrt(np.trapezoid((1 + r) ** 2 * np.exp(-np.pi * r**2) * 2 * np.pi * r, r))
        assert modulation_norm(gaussian_window(fine), 1.0) == pytest.approx(oracle, abs=1e-5)

    def test_same_node_sum(self, corpus, gauss):
        field = stft(corpus[3], gauss)
        x = GRID.axis_points(0)
        xi = GRID.dual().axis_points(0)
        r = np.sqrt(x[:, None] ** 2 + xi[None, :] ** 2)
        direct = math.sqrt(GRID.cell_volume * GRID.dual().cell_volume * float(np.sum((1 + r) ** 2 * np.abs(field) ** 2)))
        assert weighted_field_norm(field, GRID, 1.0) == pytest.approx(direct, rel=1e-14)

    def test_modulation_s_zero_is_l2(self, corpus):
        for f in corpus[:5]:
            assert modulation_norm(f, 0.0) == pytest.approx(f.norm(), abs=1e-8)

    def test_norm_equivalence_bracket(self, corpus):
        def l2_1(h):
            # (int |h|^2 (1 + |x|)^2 dx)^{1/2} on the same nodes
            x = h.grid.axis_points(0)
            return math.sqrt(h.grid.cell_volume * float(np.sum((1 + np.abs(x)) ** 2 * np.abs(h.values) ** 2)))

        ratios = []
        for f in corpus:
            num = l2_1(f) + l2_1(fourier_transform(f))
            ratios.append(num / modulation_norm(f, 1.0))
        assert min(ratios) >= 1.1
        assert max(ratios) <= 1.8

    def test_modulation_covariance(self, corpus):
        for f in corpus[:6]:
            base = modulation_norm(f, 1.0)
            for a, b in [(0.5, 0.5), (1.0, -2.0), (2.0, 1.5)]:
                sh = SampledFunction(GRID, tf_shift(f.values, GRID, snap_to_grid(GRID, [a, b])))
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

    @pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
    def test_matches_closed_form(self, grid, s):
        # (1 + sqrt(x^2 + xi^2))^(2s) from the axis samples, one full-size array
        axes = [g.axis_points(ax) for g in (grid, grid.dual()) for ax in range(grid.dim)]
        rsq = sum(c * c for c in np.meshgrid(*axes, indexing="ij"))
        weight = modulation_weight(grid, s)
        assert weight.shape == grid.shape + grid.shape
        np.testing.assert_allclose(weight, (1 + np.sqrt(rsq)) ** (2 * s), rtol=1e-15)
        if s == 0.0:
            assert np.all(weight == 1.0)

    @pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
    def test_rows_are_the_whole_weight_indexed(self, grid):
        rows = np.unravel_index(np.array([0, 5, 17, grid.n[0] // 2]), grid.shape)
        np.testing.assert_array_equal(modulation_weight(grid, 1.5, rows), modulation_weight(grid, 1.5)[rows])


class TestAmalgamNorm:
    def test_coarse_grid_rejected(self, gauss):
        coarse = GridSpec(1, 16, 1.0)
        w = gaussian_window(coarse)
        with pytest.raises(ValueError):
            amalgam_norm(stft(w, w), coarse, 1.0)

    def test_dominates_l2(self, corpus, gauss):
        for f in corpus[:6]:
            field = stft(f, gauss)
            assert amalgam_norm(field, GRID, 0.0) >= weighted_field_norm(field, GRID, 0.0) - 1e-12

    def test_single_box_support(self, gauss):
        field = stft(gauss, gauss)
        single = np.zeros_like(field)
        # two cells inside the box [0,1) x [0,1); the sup wins
        single[128 + 2, 128 + 3] = 3.0
        single[128 + 9, 128 + 1] = 2.0
        for s in (0.0, 1.5):
            assert amalgam_norm(single, GRID, s) == pytest.approx(3.0, abs=1e-12)

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
                block = np.abs(field[np.ix_(mx, mxi)]) ** 2
                total += block.max() * (1 + abs(k) + abs(n)) ** (2 * s)
        assert amalgam_norm(field, GRID, s) == pytest.approx(math.sqrt(total), abs=1e-10)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_matches_box_loop_2d(self, s):
        field = field_2d(3)
        axes = phase_axes_2d()
        total = 0.0
        for corner in itertools.product(range(-2, 2), repeat=4):
            masks = [(p >= c) & (p < c + 1) for p, c in zip(axes, corner)]
            block = np.abs(field[np.ix_(*masks)]) ** 2
            k, n = np.array(corner[:2]), np.array(corner[2:])
            total += block.max() * (1 + np.linalg.norm(k) + np.linalg.norm(n)) ** (2 * s)
        assert amalgam_norm(field, GRID_2D, s) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_embedding_into_modulation_norm(self, corpus, gauss):
        ratios = [amalgam_norm(stft(f, gauss), GRID, 1.0) / modulation_norm(f, 1.0) for f in corpus]
        assert max(ratios) < 3.5


class TestSampledWeightedSum:
    def test_single_point_at_origin(self, gauss):
        field = stft(gauss, gauss)
        value = sampled_weighted_sum(field, GRID, np.array([[0.0, 0.0]]), (0.0, 0.0), 0.0)
        assert value == pytest.approx(abs(field[128, 128]), abs=1e-12)

    def test_duplicate_strictly_increases(self, gauss):
        field = stft(gauss, gauss)
        lam = np.array([[0.0, 0.0], [1.0, 1.0]])
        dup = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert sampled_weighted_sum(field, GRID, dup, (0.0, 0.0), 0.0) > sampled_weighted_sum(
            field, GRID, lam, (0.0, 0.0), 0.0
        )

    def test_sampling_inequality(self, corpus, gauss):
        lam = lattice_point_set((1.0, 1.0), 6.0)
        sep = separation_stat(lam)
        for f in corpus[::3]:
            field = stft(f, gauss)
            for z, s in [((0.0, 0.0), 0.0), ((0.25, -0.125), 1.0), ((0.4375, 0.375), 2.0)]:
                value = sampled_weighted_sum(field, GRID, lam.coords, z, s)
                assert value <= sep * amalgam_norm(field, GRID, s) * 1.05

    def test_out_of_domain_rejected(self, gauss):
        field = stft(gauss, gauss)
        lam = lattice_point_set((1.0, 1.0), 8.0)
        with pytest.raises(ValueError):
            sampled_weighted_sum(field, GRID, lam.coords, (0.25, -0.125), 1.0)

    def test_matches_point_loop_2d(self):
        field = field_2d(4)
        axes = phase_axes_2d()
        lam = np.random.default_rng(2).uniform(-1.5, 1.5, size=(12, 4))
        z, s = np.array([0.25, -0.125, 0.1, 0.0]), 1.5
        total = 0.0
        for row in lam:
            p = row + z
            idx = tuple(int(np.argmin(np.abs(ax - v))) for ax, v in zip(axes, p))
            total += abs(field[idx]) ** 2 * (1 + np.linalg.norm(p)) ** (2 * s)
        assert sampled_weighted_sum(field, GRID_2D, lam, z, s) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_empty_set_is_zero(self, gauss):
        field = stft(gauss, gauss)
        assert sampled_weighted_sum(field, GRID, np.zeros((0, 2)), (0.0, 0.0), 1.0) == 0.0

    @pytest.mark.parametrize("shape", [(2,), (3, 4), (3, 1, 2)])
    def test_points_not_m_by_2d_rejected(self, gauss, shape):
        # a 1-D field takes (M, 2) rows (x, xi); the 2-D rows of shape (M, 4) are refused too
        field = stft(gauss, gauss)
        with pytest.raises(ValueError, match=r"not \(M, 2\)"):
            sampled_weighted_sum(field, GRID, np.zeros(shape), (0.0, 0.0), 1.0)



@pytest.mark.parametrize(
    "norm",
    [
        lambda field, grid: weighted_field_norm(field, grid, 1.0),
        lambda field, grid: amalgam_norm(field, grid, 1.0),
        lambda field, grid: sampled_weighted_sum(field, grid, np.zeros((1, 2 * grid.dim)), np.zeros(2 * grid.dim), 1.0),
    ],
    ids=["weighted", "amalgam", "sampled"],
)
def test_field_off_its_grid_refused(norm):
    # a 2-D field read against the 1-D grid, and a 1-D field against the 2-D grid
    for field, grid in ((field_2d(5), GRID), (np.zeros((256, 256), dtype=complex), GRID_2D)):
        with pytest.raises(ValueError, match="does not match phase-space grid"):
            norm(field, grid)
