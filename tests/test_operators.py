"""Restriction operators, their spectra, phase-space cutoffs, smoothing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.corpus import random_bandlimited
from pslab.frames import frame_bounds
from pslab.grid import (
    GridSpec,
    SampledFunction,
    gaussian_window,
    inner_product,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import modulation_norm, modulation_weight
from pslab.operators import (
    _apply_cutoff,
    _cutoff_factor,
    apply_restriction,
    cutoff_extent,
    improve_system,
    localization_operator,
    plunge_count,
    restriction_masks,
    restriction_section,
    restriction_spectrum,
    restriction_trace,
)
from pslab.stft import adjoint_stft, multiplier_matrix, stft

GRID = GridSpec(1, 256, 1 / 16)
TRACE_GRID = GridSpec(1, 1024, 1 / 32)
GRID_2D = GridSpec(2, 16, 1 / 4)
# unequal axes, so a factor applied along the wrong axis shows
RECT_2D = GridSpec(2, (16, 8), (1 / 4, 1 / 2))


def cutoff_by_definition(f, R, window):
    """A_R f as analysis, cube mask, synthesis over the whole STFT field."""
    field = stft(f, window)
    mask = np.ones(field.shape, dtype=bool)
    dual = f.grid.dual()
    for ax in range(f.grid.dim):
        pts = f.grid.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (2 * f.grid.dim - ax - 1))
    for ax in range(f.grid.dim):
        pts = dual.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (f.grid.dim - ax - 1))
    return adjoint_stft(np.where(mask, field, 0.0), window)


def cube_multiplier(grid, R):
    """The dense n^d x n^d matrix of A_R: the d-generic multiplier of the cube mask."""
    mask = True
    for coords in grid.phase_mesh():
        mask = mask & (np.abs(coords) <= R)
    return multiplier_matrix(gaussian_window(grid), mask.__getitem__)


def stack(members):
    """Sampled functions as the rows of an (M,) + grid.shape array."""
    return np.stack([f.values for f in members])


def shifted(f, center):
    """pi(a, b) f for one center row (a, b), snapped onto the grid."""
    return SampledFunction(f.grid, tf_shift(f.values, f.grid, snap_to_grid(f.grid, center)))


def improve_by_loop(members, centers, R, sigma, window):
    """Member by member: de-shift, A_R by definition, modulation norm, re-shift."""
    improved, errors = [], []
    for f, c in zip(members, centers):
        snapped = snap_to_grid(f.grid, c)
        d = f.grid.dim
        ab = sum(ai * bi for ai, bi in zip(snapped[:d], snapped[d:]))
        phi = shifted(f, -snapped) * np.exp(-2j * np.pi * ab)
        psi = cutoff_by_definition(phi, R, window)
        errors.append(modulation_norm(phi - psi, sigma))
        improved.append(shifted(psi, snapped))
    return improved, np.array(errors)


def dense_from_apply(grid, ht, hf):
    """The operator matrix, column by column from the FFT definition."""
    cols = [apply_restriction(e.astype(complex), grid, ht, hf) for e in np.eye(grid.n[0])]
    return np.array(cols).T


@st.composite
def restriction_specs(draw):
    """(grid, time halfwidth, freq halfwidth): centred intervals (or full coverage) at N <= 256."""
    n = draw(st.sampled_from([16, 64, 256]))
    step = 1 / math.isqrt(n)
    inner = n // 2 - 4  # the 4-sample margin, in samples

    def halfwidth():
        if draw(st.integers(0, 4)) == 0:
            return n / 2 * step
        return draw(st.integers(0, 2 * inner)) / 2 * step

    return GridSpec(1, n, step), halfwidth(), halfwidth()


@pytest.fixture(scope="module")
def gauss():
    return gaussian_window(GRID)


@pytest.fixture(scope="module")
def box_spectrum():
    """Eigenvalues of the [-4, 4) x [-4, 4) cutoff, computed once for the module."""
    return restriction_spectrum(GRID, 4.0, 4.0)


class TestRestrictionSpec:
    def test_margin_too_small_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            restriction_masks(GRID, 7.9, 4.0)

    def test_freq_margin_too_small_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            restriction_masks(GRID, 4.0, 7.9)

    def test_full_coverage_allowed(self):
        time_mask, freq_mask = restriction_masks(GRID, 8.0, 8.0)
        assert time_mask.all()
        assert freq_mask.all()

    def test_negative_halfwidth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            restriction_masks(GRID, -1.0, 4.0)

    @pytest.mark.parametrize("halfwidths", [(math.nan, 4.0), (4.0, math.nan)], ids=["time", "frequency"])
    def test_nan_halfwidth_rejected(self, halfwidths):
        # NaN compares false both ways, so it would pass a sign check and give an empty set
        with pytest.raises(ValueError, match="nonnegative"):
            restriction_masks(GRID, *halfwidths)


class TestRestrictionOperator:
    def test_full_sets_give_identity(self, gauss):
        f = random_bandlimited(GRID, 1)
        assert np.abs(apply_restriction(f.values, GRID, 8.0, 8.0) - f.values).max() < 1e-10

    def test_annihilates_outside_time_set(self):
        x = GRID.axis_points(0)
        f = ((x >= 2) & (x < 3)).astype(complex)
        assert np.abs(apply_restriction(f, GRID, 1.0, 4.0)).max() == 0.0

    def test_self_adjoint(self):
        f, h = random_bandlimited(GRID, 2), random_bandlimited(GRID, 3)
        lhs = inner_product(SampledFunction(GRID, apply_restriction(f.values, GRID, 4.0, 4.0)), h)
        rhs = inner_product(f, SampledFunction(GRID, apply_restriction(h.values, GRID, 4.0, 4.0)))
        assert abs(lhs - rhs) < 1e-10

    def test_operator_norm_at_most_one(self):
        for seed in range(3):
            f = random_bandlimited(GRID, seed)
            Lf = SampledFunction(GRID, apply_restriction(f.values, GRID, 4.0, 4.0))
            assert Lf.norm() <= (1 + 1e-8) * f.norm()

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            apply_restriction(gaussian_window(GridSpec(1, 128, 1 / 16)).values, GRID, 4.0, 4.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(restriction_specs())
    def test_section_spectrum_matches_dense_definition(self, spec):
        dense = dense_from_apply(*spec)
        reference = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))[::-1]
        assert np.abs(restriction_spectrum(*spec) - reference).max() < 1e-12
        support = np.flatnonzero(restriction_masks(*spec)[0])
        on_t = np.ix_(support, support)
        assert np.abs(restriction_section(*spec) - dense[on_t]).max(initial=0.0) < 1e-12
        dense[on_t] = 0.0
        assert np.abs(dense).max() < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(restriction_specs())
    def test_trace_is_count_ratio(self, spec):
        time_mask, freq_mask = restriction_masks(*spec)
        count = time_mask.sum() * freq_mask.sum() / spec[0].n[0]
        assert abs(restriction_trace(*spec) - count) < 1e-12
        # the definition: the diagonal sum of the |T| x |T| section
        assert abs(restriction_trace(*spec) - np.trace(restriction_section(*spec)).real) < 1e-12


class TestTrace:
    def test_square_box_trace(self):
        assert restriction_trace(TRACE_GRID, 4.0, 4.0) == pytest.approx(64.0, rel=0.01)

    def test_empty_time_set_traceless(self):
        assert restriction_trace(GRID, 0.0, 4.0) == 0.0

    def test_doubling_time_interval_doubles_trace(self):
        half = restriction_trace(TRACE_GRID, 2.0, 4.0)
        full = restriction_trace(TRACE_GRID, 4.0, 4.0)
        assert full == pytest.approx(2 * half, rel=0.01)


class TestSpectrum:
    def test_eigenvalue_band(self, box_spectrum):
        lam = box_spectrum
        assert lam.min() >= -1e-10
        assert lam.max() <= 1 + 1e-10

    def test_plunge_count_matches_area(self):
        area = 64.0
        assert abs(plunge_count(GRID, 4.0, 4.0) - area) <= max(2, 0.05 * area)

    def test_trace_bracketing(self, box_spectrum):
        lam = box_spectrum
        k = 10
        low = lam[:k].sum()
        high = low + (lam.size - k) * lam[k - 1]
        assert low - 1e-8 <= restriction_trace(GRID, 4.0, 4.0) <= high + 1e-8

    @pytest.mark.parametrize(
        "function",
        [
            restriction_masks,
            lambda grid, ht, hf: apply_restriction(np.zeros(grid.shape, dtype=complex), grid, ht, hf),
            restriction_section,
            restriction_trace,
            restriction_spectrum,
            plunge_count,
        ],
        ids=["masks", "apply", "section", "trace", "spectrum", "plunge_count"],
    )
    def test_two_dimensional_operator_rejected(self, function):
        with pytest.raises(ValueError, match="one-dimensional"):
            function(GRID_2D, 1.0, 1.0)


class TestLocalizationOperator:
    def test_full_cover_is_identity(self, gauss):
        f = random_bandlimited(GRID, 4)
        out = localization_operator(f, 8.0)
        assert np.abs(out.values - f.values).max() < 1e-8

    def test_gaussian_tail_bound(self, gauss):
        err = (gauss - localization_operator(gauss, 3.0)).norm()
        assert err < math.exp(-math.pi * 9 / 2) * 10

    def test_quadratic_form_bounded(self, gauss):
        for seed in range(3):
            f = random_bandlimited(GRID, seed)
            q = inner_product(localization_operator(f, 4.0), f).real
            assert -1e-8 <= q <= f.norm() ** 2 + 1e-8

    def test_power_iteration_stays_in_band(self, gauss):
        f = random_bandlimited(GRID, 5)
        for _ in range(20):
            nxt = localization_operator(f, 4.0)
            rayleigh = inner_product(nxt, f).real / f.norm() ** 2
            assert -1e-8 <= rayleigh <= 1 + 1e-8
            if nxt.norm() < 1e-200:
                break
            f = nxt * (1.0 / nxt.norm())

    def test_self_adjoint(self, gauss):
        f, h = random_bandlimited(GRID, 6), random_bandlimited(GRID, 7)
        lhs = inner_product(localization_operator(f, 4.0), h)
        rhs = inner_product(f, localization_operator(h, 4.0))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("R", [1.0, 2.5, 4.0, 8.0])
    def test_matches_definition(self, gauss, R):
        for seed in range(2):
            f = random_bandlimited(GRID, seed)
            ref = cutoff_by_definition(f, R, gauss).values
            assert np.abs(localization_operator(f, R).values - ref).max() < 1e-12

    @pytest.mark.parametrize("R", [0.75, 1.5, 2.0])
    def test_matches_definition_2d(self, R):
        gauss2 = gaussian_window(GRID_2D)
        for seed in range(2):
            f = random_bandlimited(GRID_2D, seed)
            ref = cutoff_by_definition(f, R, gauss2).values
            assert np.abs(localization_operator(f, R).values - ref).max() < 1e-12

    # R = cutoff_extent: the cube's frequency edge holds the grid point -n/2 but not +n/2
    @pytest.mark.parametrize(
        "grid, R",
        [
            (GRID_2D, 0.75),
            (GRID_2D, 1.25),
            (GRID_2D, cutoff_extent(GRID_2D)),
            (RECT_2D, 0.6),
            (RECT_2D, cutoff_extent(RECT_2D)),
        ],
    )
    def test_factored_cutoff_matches_dense_and_kron_2d(self, grid, R):
        dense = cube_multiplier(grid, R)
        for seed in range(2):
            f = random_bandlimited(grid, seed)
            out = _apply_cutoff(f.values, grid, R)
            assert np.abs(out.ravel() - dense @ f.values.ravel()).max() < 1e-13
        factors = [cube_multiplier(GridSpec(1, n, dx), R) for n, dx in zip(grid.n, grid.step)]
        size = math.prod(grid.n)
        # row m of the helper applied to the unit vectors is A_R e_m, column m of A_R
        columns = _apply_cutoff(np.eye(size).reshape((size,) + grid.shape), grid, R).reshape(size, size)
        assert np.abs(columns.T - np.kron(*factors)).max() < 1e-13

    # GridSpec(1, 64, 1/8) and the two lines of RECT_2D, inside and at their cutoff extents
    @pytest.mark.parametrize(
        "line, R",
        [
            (GridSpec(1, 64, 1 / 8), 2.0),
            (GridSpec(1, 64, 1 / 8), 4.0),
            (GridSpec(1, 16, 1 / 4), 0.6),
            (GridSpec(1, 16, 1 / 4), 2.0),
            (GridSpec(1, 8, 1 / 2), 0.6),
            (GridSpec(1, 8, 1 / 2), 1.0),
        ],
    )
    def test_closed_form_factor_matches_multiplier(self, line, R):
        dense = cube_multiplier(line, R)
        factor = _cutoff_factor(line, R)
        assert factor.dtype == dense.dtype == np.float64
        assert np.abs(factor - dense).max() < 2e-15 * np.abs(dense).max()

    def test_radius_validation(self, gauss):
        with pytest.raises(ValueError, match="outside"):
            localization_operator(gauss, 0.0)
        with pytest.raises(ValueError, match="outside"):
            localization_operator(gauss, 8.5)


class TestImproveSystem:
    @pytest.mark.parametrize("R, sigma", [(2.0, 1.0), (3.0, 2.0), (5.0, 0.5)])
    def test_matches_member_loop(self, gauss, R, sigma):
        rng = np.random.default_rng(256)
        centers = rng.uniform(-3, 3, size=(6, 2))
        members = [shifted(gauss, c) + random_bandlimited(GRID, i) * 0.1 for i, c in enumerate(centers)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ((improved, errors),) = improve_system(stack(members), centers, GRID, [R], sigma)
            members_ref, errors_ref = improve_by_loop(members, centers, R, sigma, gauss)
        for h, ref in zip(improved, members_ref):
            assert np.abs(h - ref.values).max() < 1e-12
        np.testing.assert_allclose(errors, errors_ref, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("R, sigma", [(1.0, 1.0), (1.75, 2.0)])
    def test_matches_member_loop_2d(self, R, sigma):
        gauss2 = gaussian_window(GRID_2D)
        rng = np.random.default_rng(16)
        centers = rng.uniform(-1, 1, size=(4, 2, 2)).reshape(4, 4)
        members = [shifted(gauss2, c) + random_bandlimited(GRID_2D, i) * 0.1 for i, c in enumerate(centers)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ((improved, errors),) = improve_system(stack(members), centers, GRID_2D, [R], sigma)
            members_ref, errors_ref = improve_by_loop(members, centers, R, sigma, gauss2)
        for h, ref in zip(improved, members_ref):
            assert np.abs(h - ref.values).max() < 1e-12
        np.testing.assert_allclose(errors, errors_ref, rtol=1e-9, atol=1e-13)

    def test_negative_sigma_refused_before_any_multiplier(self, gauss, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("multiplier matrix built before sigma was checked")

        monkeypatch.setattr("pslab.stft.multiplier_matrix", refuse)
        with pytest.raises(ValueError, match="sigma"):
            improve_system(gauss.values[None], np.zeros((1, 2)), GRID, [3.0], -1.0)

    @pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
    def test_weight_is_real_and_its_symbol_evaluated_by_rows(self, grid, monkeypatch):
        built = []

        def spy(window, symbol):
            built.append((symbol, multiplier_matrix(window, symbol)))
            return built[-1][1]

        monkeypatch.setattr("pslab.stft.multiplier_matrix", spy)
        members = gaussian_window(grid).values[None] * (1 + 0.5j)
        improve_system(members, np.zeros((1, 2 * grid.dim)), grid, [1.0])
        ((symbol, weight),) = built
        assert weight.dtype == np.float64
        rows = (np.arange(3),) * grid.dim
        np.testing.assert_array_equal(symbol(rows), modulation_weight(grid, 1.0)[rows])

    def test_weight_follows_sigma(self, gauss):
        # sigma 1, 2, 1 on one grid: each call must use its own sigma's weight
        members = stack([shifted(gauss, [0.5, -0.25]) + random_bandlimited(GRID, 3) * 0.1])
        centers = np.array([[0.5, -0.25]])
        errors = [improve_system(members, centers, GRID, [3.0], sigma)[0][1] for sigma in (1.0, 2.0, 1.0)]
        assert not np.array_equal(errors[0], errors[1])
        np.testing.assert_array_equal(errors[2], errors[0])

    def test_one_call_for_all_radii_matches_one_call_per_radius(self, gauss):
        rng = np.random.default_rng(7)
        centers = rng.uniform(-2, 2, size=(3, 2))
        members = [shifted(gauss, c) + random_bandlimited(GRID, i) * 0.1 for i, c in enumerate(centers)]
        args = stack(members), centers, GRID
        radii = [2.0, 3.5, 5.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            together = improve_system(*args, radii, 1.5)
            apart = [improve_system(*args, [R], 1.5)[0] for R in radii]
        assert len(together) == len(radii)
        for (improved, errors), (improved_ref, errors_ref) in zip(together, apart):
            np.testing.assert_array_equal(errors, errors_ref)
            np.testing.assert_array_equal(improved, improved_ref)

    def test_gaussian_system_fixed_point(self, gauss):
        points = np.array([(0.0, 0.0), (1.0, -2.0), (-1.5, 0.5)])
        members = tf_shift(gauss.values, GRID, points)
        ((improved, errors),) = improve_system(members, points, GRID, [6.0])
        worst = max(SampledFunction(GRID, f - h).norm() for f, h in zip(members, improved))
        assert worst < 1e-6
        assert errors.max() < 1e-6

    def test_off_grid_center_snapped_with_warning(self, gauss):
        # 0.3 snaps to 0.3125, the member's own center, so A_6 hands the member back
        member = tf_shift(gauss.values, GRID, [0.3125, 0.0])
        with pytest.warns(UserWarning, match="snapped"):
            ((improved, _),) = improve_system(member[None], np.array([[0.3, 0.0]]), GRID, [6.0])
        assert np.abs(improved[0] - member).max() < 1e-6

    def test_error_slope_tracks_phase_space_decay(self, gauss):
        # STFT profile (1 + |z|)^{-5} has weighted-decay order 4 after the
        # phase-space dimension is subtracted; with sigma = 2 the cutoff error
        # must fall at least like (1 + R)^{-1.7}.
        x = GRID.axis_points(0)
        xi = GRID.dual().axis_points(0)
        rad = np.sqrt(x[:, None] ** 2 + xi[None, :] ** 2)
        phi = adjoint_stft((1.0 + rad) ** -5.0, gauss)
        radii = [2.0, 3.0, 4.0, 5.0, 6.0]
        errs = [errors[0] for _, errors in improve_system(phi.values[None], np.zeros((1, 2)), GRID, radii, sigma=2.0)]
        slope = np.polyfit(np.log1p(radii), np.log(errs), 1)[0]
        assert slope <= 2 - 4 + 0.3

    def test_riesz_bounds_stable_for_large_radius(self, gauss):
        step = math.sqrt(2)
        points = snap_to_grid(GRID, [(step * m, step * k) for m in (-1, 0, 1) for k in (-1, 0, 1)])
        members = tf_shift(gauss.values, GRID, points)
        before = frame_bounds(members, GRID)
        after = frame_bounds(improve_system(members, points, GRID, [6.0])[0][0], GRID)
        assert abs(after.lower - before.lower) <= 0.1 * before.lower
        assert abs(after.upper - before.upper) <= 0.1 * before.upper

    def test_improved_members_keep_gaussian_decay(self, gauss):
        h = improve_system(gauss.values[None], np.zeros((1, 2)), GRID, [4.0])[0][0][0]
        x = GRID.axis_points(0)
        keep = (np.abs(h) > 1e-10) & (np.abs(x) <= 4)
        alpha = np.polyfit(x[keep] ** 2, np.log(np.abs(h[keep])), 1)[0]
        assert -alpha > 0
