"""Restriction operators, prolate counts, phase-space cutoffs, smoothing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.corpus import random_bandlimited
from pslab.frames import FunctionSystem, frame_bounds
from pslab.grid import (
    GridSpec,
    PhasePoint,
    SampledFunction,
    gaussian_window,
    inner_product,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import modulation_norm
from pslab.operators import (
    DENSE_LIMIT,
    RestrictionOperator,
    RestrictionSpec,
    improve_system,
    localization_operator,
    plunge_count,
    prolate_count,
    spectrum,
    tensor_prolate_system,
)
from pslab.stft import StftField, adjoint_stft, stft

GRID = GridSpec(1, 256, 1 / 16)
TRACE_GRID = GridSpec(1, 1024, 1 / 32)
GRID_2D = GridSpec(2, 16, 1 / 4)


def cutoff_by_definition(f, R, window):
    """A_R f as analysis, cube mask, synthesis over the whole STFT field."""
    field = stft(f, window)
    mask = np.ones(field.values.shape, dtype=bool)
    dual = f.grid.dual()
    for ax in range(f.grid.dim):
        pts = f.grid.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (2 * f.grid.dim - ax - 1))
    for ax in range(f.grid.dim):
        pts = dual.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (f.grid.dim - ax - 1))
    return adjoint_stft(StftField(field.grid, np.where(mask, field.values, 0.0)), window)


def improve_by_loop(system, R, sigma, window):
    """Member by member: de-shift, A_R by definition, modulation norm, re-shift."""
    improved, errors = [], []
    for f, c in zip(system.members, system.centers):
        snapped = snap_to_grid(system.grid, c)
        ab = sum(ai * bi for ai, bi in zip(snapped.a, snapped.b))
        back = PhasePoint(tuple(-v for v in snapped.a), tuple(-v for v in snapped.b))
        phi = tf_shift(f, back) * np.exp(-2j * np.pi * ab)
        psi = cutoff_by_definition(phi, R, window)
        errors.append(modulation_norm(phi - psi, sigma))
        improved.append(tf_shift(psi, snapped))
    return improved, np.array(errors)


def dense_from_apply(op):
    """The operator matrix, column by column from the FFT definition."""
    n = op.grid.n[0]
    cols = [op.apply(SampledFunction(op.grid, e)).values for e in np.eye(n)]
    return np.array(cols).T


@st.composite
def restriction_specs(draw):
    """Centred time and frequency intervals (or full coverage) at N <= 256."""
    n = draw(st.sampled_from([16, 64, 256]))
    step = 1 / math.isqrt(n)
    inner = n // 2 - 4  # the 4-sample margin, in samples

    def halfwidth():
        if draw(st.integers(0, 4)) == 0:
            return n / 2 * step
        return draw(st.integers(0, 2 * inner)) / 2 * step

    return RestrictionSpec(GridSpec(1, n, step), halfwidth(), halfwidth())


@pytest.fixture(scope="module")
def gauss():
    return gaussian_window(GRID)


@pytest.fixture(scope="module")
def box_op():
    """The [-4, 4) x [-4, 4) cutoff, eigenvalues cached across tests."""
    return RestrictionOperator(RestrictionSpec(GRID, 4.0, 4.0))


class TestRestrictionSpec:
    def test_margin_too_small_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            RestrictionSpec(GRID, 7.9, 4.0)

    def test_freq_margin_too_small_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            RestrictionSpec(GRID, 4.0, 7.9)

    def test_full_coverage_allowed(self):
        spec = RestrictionSpec(GRID, 8.0, 8.0)
        assert spec.time_mask().all()
        assert spec.freq_mask().all()

    def test_negative_halfwidth_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RestrictionSpec(GRID, -1.0, 4.0)


class TestRestrictionOperator:
    def test_full_sets_give_identity(self, gauss):
        op = RestrictionOperator(RestrictionSpec(GRID, 8.0, 8.0))
        f = random_bandlimited(GRID, 1)
        assert np.abs(op.apply(f).values - f.values).max() < 1e-10

    def test_annihilates_outside_time_set(self):
        op = RestrictionOperator(RestrictionSpec(GRID, 1.0, 4.0))
        x = GRID.axis_points(0)
        f = SampledFunction(GRID, ((x >= 2) & (x < 3)).astype(complex))
        assert np.abs(op.apply(f).values).max() == 0.0

    def test_self_adjoint(self, box_op):
        f, h = random_bandlimited(GRID, 2), random_bandlimited(GRID, 3)
        lhs = inner_product(box_op.apply(f), h)
        rhs = inner_product(f, box_op.apply(h))
        assert abs(lhs - rhs) < 1e-10

    def test_operator_norm_at_most_one(self, box_op):
        for seed in range(3):
            f = random_bandlimited(GRID, seed)
            assert box_op.apply(f).norm() <= (1 + 1e-8) * f.norm()

    def test_grid_mismatch_rejected(self, box_op):
        with pytest.raises(ValueError, match="grid"):
            box_op.apply(gaussian_window(GridSpec(1, 128, 1 / 16)))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(restriction_specs())
    def test_section_spectrum_matches_dense_definition(self, spec):
        op = RestrictionOperator(spec)
        dense = dense_from_apply(op)
        reference = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))[::-1]
        assert np.abs(op.eigenvalues() - reference).max() < 1e-12
        on_t = np.ix_(op._support, op._support)
        assert np.abs(op._section() - dense[on_t]).max(initial=0.0) < 1e-12
        dense[on_t] = 0.0
        assert np.abs(dense).max() < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(restriction_specs())
    def test_trace_is_count_ratio(self, spec):
        op = RestrictionOperator(spec)
        count = spec.time_mask().sum() * spec.freq_mask().sum() / spec.grid.n[0]
        assert abs(op.trace() - count) < 1e-12
        # the definition: the diagonal sum of the |T| x |T| section
        assert abs(op.trace() - np.trace(op._section()).real) < 1e-12

    def test_dense_assembly_capped(self):
        # halfwidth 40 at dx = 1/64 is a 5120-sample time set, past DENSE_LIMIT
        big = GridSpec(1, 2 * DENSE_LIMIT, 1 / 64)
        op = RestrictionOperator(RestrictionSpec(big, 40.0, 4.0))
        with pytest.raises(ValueError, match="capped"):
            op.eigenvalues()


class TestTrace:
    def test_square_box_trace(self):
        op = RestrictionOperator(RestrictionSpec(TRACE_GRID, 4.0, 4.0))
        assert op.trace() == pytest.approx(64.0, rel=0.01)

    def test_empty_time_set_traceless(self):
        op = RestrictionOperator(RestrictionSpec(GRID, 0.0, 4.0))
        assert op.trace() == 0.0

    def test_doubling_time_interval_doubles_trace(self):
        half = RestrictionOperator(RestrictionSpec(TRACE_GRID, 2.0, 4.0))
        full = RestrictionOperator(RestrictionSpec(TRACE_GRID, 4.0, 4.0))
        assert full.trace() == pytest.approx(2 * half.trace(), rel=0.01)


class TestSpectrum:
    def test_eigenvalue_band(self, box_op):
        lam = box_op.eigenvalues()
        assert lam.min() >= -1e-10
        assert lam.max() <= 1 + 1e-10

    def test_plunge_count_matches_area(self, box_op):
        area = 64.0
        assert abs(plunge_count(box_op) - area) <= max(2, 0.05 * area)

    def test_ground_eigenfunction_even_bell(self):
        # Halfwidths offset by half a sample make both masks exactly
        # symmetric, and the small area isolates the ground eigenvalue.
        op = RestrictionOperator(RestrictionSpec(GRID, 0.5 + 1 / 32, 0.5 + 1 / 32))
        res = spectrum(op, 2)
        assert res.eigenvalues[0] - res.eigenvalues[1] > 0.5
        v = res.eigenfunctions[0].values
        reflected = np.roll(v[::-1], 1)
        anti = 0.5 * np.linalg.norm(v - reflected) * math.sqrt(GRID.cell_volume)
        assert anti < 1e-6
        assert np.argmax(np.abs(v)) == GRID.n[0] // 2

    def test_eigenfunctions_unit_norm(self, box_op):
        res = spectrum(box_op, 4)
        for f in res.eigenfunctions:
            assert f.norm() == pytest.approx(1.0, abs=1e-8)

    def test_trace_bracketing(self, box_op):
        lam = box_op.eigenvalues()
        k = 10
        low = lam[:k].sum()
        high = low + (lam.size - k) * lam[k - 1]
        assert low - 1e-8 <= box_op.trace() <= high + 1e-8

    def test_k_beyond_time_set_pads_with_unit_samples(self):
        op = RestrictionOperator(RestrictionSpec(GRID, 0.25, 4.0))
        size = int(op.spec.time_mask().sum())
        assert size == 8
        k = size + 3
        res = spectrum(op, k)
        values = np.array([f.values for f in res.eigenfunctions])
        gram = GRID.cell_volume * values.conj() @ values.T
        assert np.abs(gram - np.eye(k)).max() < 1e-12
        for lam, f in zip(res.eigenvalues[:k], res.eigenfunctions):
            assert np.abs(op.apply(f).values - lam * f.values).max() < 1e-10
        outside = ~op.spec.time_mask()
        for f in res.eigenfunctions[size:]:
            assert np.count_nonzero(f.values) == 1
            assert np.count_nonzero(f.values[outside]) == 1
        assert np.all(res.eigenvalues[size:k] == 0.0)

    def test_k_out_of_range_rejected(self, box_op):
        with pytest.raises(ValueError, match="k must be"):
            spectrum(box_op, 0)
        with pytest.raises(ValueError, match="k must be"):
            spectrum(box_op, GRID.n[0] + 1)

    def test_two_dimensional_operator_rejected(self):
        op = RestrictionOperator(RestrictionSpec(GridSpec(2, 16, 0.25), 1.0, 1.0))
        with pytest.raises(ValueError, match="one-dimensional"):
            spectrum(op, 2)


class TestProlateCount:
    def test_count_tracks_area(self):
        grid = GridSpec(1, 2048, 1 / 32)
        ratio = prolate_count(4.0, 0.3, 0.5, grid) / 4.0**2
        assert 0.6 <= ratio <= 1.1

    def test_monotone_in_radius(self):
        grid = GridSpec(1, 1024, 1 / 32)
        counts = [prolate_count(R, 0.3, 0.5, grid) for R in (4.0, 6.0, 8.0)]
        assert counts[0] <= counts[1] <= counts[2]

    def test_monotone_in_eps(self):
        grid = GridSpec(1, 1024, 1 / 32)
        counts = [prolate_count(4.0, eps, 0.5, grid) for eps in (0.2, 0.3, 0.5)]
        assert counts[0] <= counts[1] <= counts[2]

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            prolate_count(4.0, 1.0, 0.5, GRID)
        with pytest.raises(ValueError, match="delta"):
            prolate_count(4.0, 0.3, 0.0, GRID)
        with pytest.raises(ValueError, match="not positive"):
            prolate_count(1.0, 0.3, 0.5, GRID)


@pytest.fixture(scope="module")
def prolate_base():
    op = RestrictionOperator(RestrictionSpec(GRID, 2.0, 2.0))
    return spectrum(op, 4)


class TestTensorProlate:
    def test_ground_tensor_norm(self, prolate_base):
        psi = tensor_prolate_system((0, 0), PhasePoint((0.0, 0.0), (0.0, 0.0)), prolate_base)
        assert psi.norm() == pytest.approx(1.0, abs=1e-8)

    def test_distinct_indices_orthogonal(self, prolate_base):
        center = PhasePoint((1.0, 0.5), (0.5, -1.0))
        built = {
            sig: tensor_prolate_system(sig, center, prolate_base)
            for sig in [(0, 0), (0, 1), (1, 0), (1, 1)]
        }
        sigs = list(built)
        for i, si in enumerate(sigs):
            for sj in sigs[i + 1 :]:
                assert abs(inner_product(built[si], built[sj])) < 1e-6

    def test_concentration_on_cube(self, prolate_base):
        # Per-axis eigenvalues clear 1 - eps^2/2 for eps = 0.3, so the tensor
        # keeps all but eps^2 of its mass on the cube around its center.
        eps = 0.3
        assert prolate_base.eigenvalues[1] >= 1 - eps**2 / 2
        center = PhasePoint((1.0, 0.5), (0.0, 0.0))
        psi = tensor_prolate_system((0, 1), center, prolate_base)
        X, Y = np.meshgrid(psi.grid.axis_points(0), psi.grid.axis_points(1), indexing="ij")
        outside = (np.abs(X - 1.0) > 2.0) | (np.abs(Y - 0.5) > 2.0)
        mass = (np.abs(psi.values[outside]) ** 2).sum() * psi.grid.cell_volume
        assert mass <= eps**2 + 1e-6

    def test_equals_tf_shift_of_origin_tensor(self, prolate_base):
        # pi(a, b) f = exp(2 pi i b.t) f(t - a), as tf_shift and PhasePoint define it
        center = PhasePoint((1.0, 0.5), (0.5, -1.0))
        origin = tensor_prolate_system((0, 1), PhasePoint((0.0, 0.0), (0.0, 0.0)), prolate_base)
        psi = tensor_prolate_system((0, 1), center, prolate_base)
        assert np.abs(psi.values - tf_shift(origin, center).values).max() < 1e-12

    def test_off_grid_translation_rejected(self, prolate_base):
        with pytest.raises(ValueError, match="not a multiple of spacing"):
            tensor_prolate_system((0, 0), PhasePoint((0.3, 0.0), (0.0, 0.0)), prolate_base)

    def test_index_out_of_range_rejected(self, prolate_base):
        with pytest.raises(ValueError, match="outside"):
            tensor_prolate_system((0, 9), PhasePoint((0.0, 0.0), (0.0, 0.0)), prolate_base)


class TestLocalizationOperator:
    def test_full_cover_is_identity(self, gauss):
        f = random_bandlimited(GRID, 4)
        out = localization_operator(f, 8.0, gauss)
        assert np.abs(out.values - f.values).max() < 1e-8

    def test_gaussian_tail_bound(self, gauss):
        err = (gauss - localization_operator(gauss, 3.0, gauss)).norm()
        assert err < math.exp(-math.pi * 9 / 2) * 10

    def test_quadratic_form_bounded(self, gauss):
        for seed in range(3):
            f = random_bandlimited(GRID, seed)
            q = inner_product(localization_operator(f, 4.0, gauss), f).real
            assert -1e-8 <= q <= f.norm() ** 2 + 1e-8

    def test_power_iteration_stays_in_band(self, gauss):
        f = random_bandlimited(GRID, 5)
        for _ in range(20):
            nxt = localization_operator(f, 4.0, gauss)
            rayleigh = inner_product(nxt, f).real / f.norm() ** 2
            assert -1e-8 <= rayleigh <= 1 + 1e-8
            if nxt.norm() < 1e-200:
                break
            f = nxt * (1.0 / nxt.norm())

    def test_self_adjoint(self, gauss):
        f, h = random_bandlimited(GRID, 6), random_bandlimited(GRID, 7)
        lhs = inner_product(localization_operator(f, 4.0, gauss), h)
        rhs = inner_product(f, localization_operator(h, 4.0, gauss))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("R", [1.0, 2.5, 4.0, 8.0])
    def test_matches_definition(self, gauss, R):
        for seed in range(2):
            f = random_bandlimited(GRID, seed)
            ref = cutoff_by_definition(f, R, gauss).values
            assert np.abs(localization_operator(f, R, gauss).values - ref).max() < 1e-12

    @pytest.mark.parametrize("R", [0.75, 1.5, 2.0])
    def test_matches_definition_2d(self, R):
        gauss2 = gaussian_window(GRID_2D)
        for seed in range(2):
            f = random_bandlimited(GRID_2D, seed)
            ref = cutoff_by_definition(f, R, gauss2).values
            assert np.abs(localization_operator(f, R, gauss2).values - ref).max() < 1e-12

    def test_radius_validation(self, gauss):
        with pytest.raises(ValueError, match="outside"):
            localization_operator(gauss, 0.0, gauss)
        with pytest.raises(ValueError, match="outside"):
            localization_operator(gauss, 8.5, gauss)


class TestImproveSystem:
    @pytest.mark.parametrize("R, sigma", [(2.0, 1.0), (3.0, 2.0), (5.0, 0.5)])
    def test_matches_member_loop(self, gauss, R, sigma):
        rng = np.random.default_rng(256)
        centers = [PhasePoint(float(a), float(b)) for a, b in rng.uniform(-3, 3, size=(6, 2))]
        members = [
            tf_shift(gauss, snap_to_grid(GRID, c)) + random_bandlimited(GRID, i) * 0.1
            for i, c in enumerate(centers)
        ]
        system = FunctionSystem(members, centers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = improve_system(system, R, sigma)
            members_ref, errors_ref = improve_by_loop(system, R, sigma, gauss)
        for h, ref in zip(result.system.members, members_ref):
            assert np.abs(h.values - ref.values).max() < 1e-12
        np.testing.assert_allclose(result.modulation_errors, errors_ref, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("R, sigma", [(1.0, 1.0), (1.75, 2.0)])
    def test_matches_member_loop_2d(self, R, sigma):
        gauss2 = gaussian_window(GRID_2D)
        rng = np.random.default_rng(16)
        centers = [PhasePoint(tuple(a), tuple(b)) for a, b in rng.uniform(-1, 1, size=(4, 2, 2))]
        members = [
            tf_shift(gauss2, snap_to_grid(GRID_2D, c)) + random_bandlimited(GRID_2D, i) * 0.1
            for i, c in enumerate(centers)
        ]
        system = FunctionSystem(members, centers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = improve_system(system, R, sigma)
            members_ref, errors_ref = improve_by_loop(system, R, sigma, gauss2)
        for h, ref in zip(result.system.members, members_ref):
            assert np.abs(h.values - ref.values).max() < 1e-12
        np.testing.assert_allclose(result.modulation_errors, errors_ref, rtol=1e-9, atol=1e-13)

    def test_gaussian_system_fixed_point(self, gauss):
        points = [PhasePoint(a, b) for a, b in [(0.0, 0.0), (1.0, -2.0), (-1.5, 0.5)]]
        sys = FunctionSystem([tf_shift(gauss, p) for p in points], points)
        result = improve_system(sys, 6.0)
        worst = max((f - h).norm() for f, h in zip(sys.members, result.system.members))
        assert worst < 1e-6
        assert result.modulation_errors.max() < 1e-6

    def test_off_grid_center_snapped_with_warning(self, gauss):
        centers = [PhasePoint(0.3, 0.0)]
        sys = FunctionSystem([tf_shift(gauss, PhasePoint(0.3125, 0.0))], centers)
        with pytest.warns(UserWarning, match="snapped"):
            result = improve_system(sys, 6.0)
        assert result.system.centers[0].a[0] == pytest.approx(0.3125)

    def test_error_slope_tracks_phase_space_decay(self, gauss):
        # STFT profile (1 + |z|)^{-5} has weighted-decay order 4 after the
        # phase-space dimension is subtracted; with sigma = 2 the cutoff error
        # must fall at least like (1 + R)^{-1.7}.
        x = GRID.axis_points(0)
        xi = GRID.dual().axis_points(0)
        rad = np.sqrt(x[:, None] ** 2 + xi[None, :] ** 2)
        phi = adjoint_stft(StftField(GRID, ((1.0 + rad) ** -5.0).astype(complex)), gauss)
        sys = FunctionSystem([phi], [PhasePoint(0.0, 0.0)])
        radii = [2.0, 3.0, 4.0, 5.0, 6.0]
        errs = [improve_system(sys, R, sigma=2.0).modulation_errors[0] for R in radii]
        slope = np.polyfit(np.log1p(radii), np.log(errs), 1)[0]
        assert slope <= 2 - 4 + 0.3

    def test_riesz_bounds_stable_for_large_radius(self, gauss):
        step = math.sqrt(2)
        points = [
            snap_to_grid(GRID, PhasePoint(step * m, step * k))
            for m in (-1, 0, 1)
            for k in (-1, 0, 1)
        ]
        sys = FunctionSystem([tf_shift(gauss, p) for p in points], points)
        before = frame_bounds(sys)
        after = frame_bounds(improve_system(sys, 6.0).system)
        assert abs(after.lower - before.lower) <= 0.1 * before.lower
        assert abs(after.upper - before.upper) <= 0.1 * before.upper

    def test_improved_members_keep_gaussian_decay(self, gauss):
        sys = FunctionSystem([gauss], [PhasePoint(0.0, 0.0)])
        h = improve_system(sys, 4.0).system.members[0]
        x = GRID.axis_points(0)
        keep = (np.abs(h.values) > 1e-10) & (np.abs(x) <= 4)
        alpha = np.polyfit(x[keep] ** 2, np.log(np.abs(h.values[keep])), 1)[0]
        assert -alpha > 0
