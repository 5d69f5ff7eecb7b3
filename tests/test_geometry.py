"""Density estimates, separation statistics, and point-set serialization."""

import numpy as np
import pytest

from pslab.geometry import (
    DensityEstimate,
    PhasePointSet,
    density_estimate,
    density_trend,
    lattice_point_set,
    separation_stat,
)


def brute_density(lam: PhasePointSet, r: float):
    """Direct count over the same scan lattice density_estimate uses."""
    W = lam.window
    ndim = 2 * lam.dim
    pitch = r / 4.0
    nbins = int(np.ceil(2 * W / pitch - 1e-9))
    starts = -W + pitch * np.arange(nbins - 8 + 1)
    counts = []
    for corner in np.stack(np.meshgrid(*[starts] * ndim, indexing="ij"), axis=-1).reshape(-1, ndim):
        inside = np.all((lam.coords >= corner) & (lam.coords < corner + 2 * r), axis=1)
        counts.append(int(inside.sum()))
    volume = (2.0 * r) ** ndim
    return max(counts) / volume, min(counts) / volume


def brute_separation(lam: PhasePointSet) -> int:
    """Max unit-cube count over every corner built from observed coordinates."""
    ndim = 2 * lam.dim
    best = 0
    for corner in np.stack(
        np.meshgrid(*[np.unique(lam.coords[:, ax]) for ax in range(ndim)], indexing="ij"), axis=-1
    ).reshape(-1, ndim):
        inside = np.all((lam.coords >= corner) & (lam.coords < corner + 1.0), axis=1)
        best = max(best, int(inside.sum()))
    return best


class TestDensityEstimate:
    def test_unit_lattice(self):
        lam = lattice_point_set((1.0, 1.0), 16.0)
        est = density_estimate(lam, 8.0)
        # every half-open cube of side 16 holds exactly 16 integers per axis
        assert est.upper == pytest.approx(1.0, abs=1e-12)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        assert est.interior_margin == pytest.approx(8.0)

    def test_covolume_two_lattice(self):
        lam = lattice_point_set((2.0, 1.0), 16.0)
        est = density_estimate(lam, 8.0)
        assert est.upper == pytest.approx(0.5, abs=1e-12)
        assert est.lower == pytest.approx(0.5, abs=1e-12)

    def test_empty_set(self):
        lam = PhasePointSet(np.zeros((0, 2)), 16.0, 1)
        est = density_estimate(lam, 4.0)
        assert est.upper == 0.0
        assert est.lower == 0.0

    def test_radius_validation(self):
        lam = lattice_point_set((1.0, 1.0), 16.0)
        with pytest.raises(ValueError):
            density_estimate(lam, 0.0)
        with pytest.raises(ValueError):
            density_estimate(lam, 8.5)
        density_estimate(lam, 8.0)  # the boundary case is admissible

    def test_matches_direct_count_on_jittered_lattice(self):
        lam = lattice_point_set((1.0, 1.0), 8.0, jitter=0.08, seed=7)
        for r in (2.0, 4.0):
            est = density_estimate(lam, r)
            upper, lower = brute_density(lam, r)
            assert est.upper == pytest.approx(upper, abs=1e-12)
            assert est.lower == pytest.approx(lower, abs=1e-12)
            assert abs(est.midpoint - 1.0) <= 1.0 / r + 0.1

    def test_matches_direct_count_random(self):
        rng = np.random.default_rng(11)
        lam = PhasePointSet(rng.uniform(-6.0, 6.0, size=(40, 2)), 6.0, 1)
        est = density_estimate(lam, 1.5)
        upper, lower = brute_density(lam, 1.5)
        assert est.upper == pytest.approx(upper, abs=1e-12)
        assert est.lower == pytest.approx(lower, abs=1e-12)
        assert 0.0 <= est.lower <= est.upper

    def test_midpoint_is_bracket_center(self):
        est = DensityEstimate(radius=2.0, upper=1.2, lower=0.8, interior_margin=6.0)
        assert est.midpoint == pytest.approx(1.0)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ValueError):
            DensityEstimate(radius=2.0, upper=0.5, lower=0.8, interior_margin=6.0)


class TestSeparation:
    def test_integer_lattice_is_one(self):
        # half-open cubes [x, x+1)^2 catch exactly one lattice point
        lam = lattice_point_set((1.0, 1.0), 4.0)
        assert separation_stat(lam) == 1

    def test_duplicate_point(self):
        lam = PhasePointSet(np.array([[0.3, 0.4], [0.3, 0.4], [5.0, 5.0]]), 8.0, 1)
        assert separation_stat(lam) >= 2

    def test_two_far_points(self):
        lam = PhasePointSet(np.array([[0.0, 0.0], [10.0, 0.0]]), 16.0, 1)
        assert separation_stat(lam) == 1

    def test_cluster_count(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.8], [0.9, 0.2], [3.0, 3.0]])
        lam = PhasePointSet(pts, 4.0, 1)
        assert separation_stat(lam) == 3

    def test_matches_corner_sweep_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(4):
            lam = PhasePointSet(rng.uniform(-2.5, 2.5, size=(14, 2)), 3.0, 1)
            assert separation_stat(lam) == brute_separation(lam)

    def test_matches_corner_sweep_oracle_2d(self):
        rng = np.random.default_rng(5)
        lam = PhasePointSet(rng.uniform(-1.5, 1.5, size=(7, 4)), 2.0, 2)
        assert separation_stat(lam) == brute_separation(lam)

    def test_matches_corner_sweep_oracle_2d_face_ties(self):
        # quarter-integer coordinates put points on cube faces in all four
        # axes, and the repeated rows are duplicate points
        for seed in range(3):
            coords = np.random.default_rng(seed).integers(-5, 5, size=(30, 4)) / 4
            lam = PhasePointSet(np.concatenate([coords, coords[:4]]), 2.0, 2)
            assert separation_stat(lam) == brute_separation(lam)

    def test_empty_rejected(self):
        lam = PhasePointSet(np.zeros((0, 2)), 4.0, 1)
        with pytest.raises(ValueError):
            separation_stat(lam)


class TestDensityTrend:
    def test_unit_lattice_converges(self):
        lam = lattice_point_set((1.0, 1.0), 16.0)
        errs = [abs(est.upper - 1.0) for est in density_trend(lam, (4.0, 8.0))]
        assert errs[0] <= 0.25 and errs[1] <= 0.125
        assert errs[1] <= errs[0]

    def test_covolume_half_lattice(self):
        s = 1.0 / np.sqrt(2.0)
        lam = lattice_point_set((s, s), 16.0)
        for est in density_trend(lam, (4.0, 8.0)):
            assert abs(est.midpoint - 2.0) <= 1.0 / est.radius
            assert est.lower <= 2.0 + 1.0 / est.radius
            assert est.upper >= 2.0 - 1.0 / est.radius

    def test_radii_must_increase(self):
        lam = lattice_point_set((1.0, 1.0), 16.0)
        with pytest.raises(ValueError):
            density_trend(lam, (8.0, 4.0))


class TestInvariants:
    def test_dilation_scaling(self):
        lam = lattice_point_set((1.0, 1.0), 8.0)
        base = density_estimate(lam, 4.0)
        doubled = density_estimate(PhasePointSet(lam.coords * 2.0, lam.window * 2.0, lam.dim), 8.0)
        assert doubled.upper == pytest.approx(base.upper / 4.0, abs=1e-12)
        assert doubled.lower == pytest.approx(base.lower / 4.0, abs=1e-12)

    def test_adding_points_never_lowers_upper(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(-8.0, 8.0, size=(60, 2))
        small = PhasePointSet(coords[:30], 8.0, 1)
        big = PhasePointSet(coords, 8.0, 1)
        for r in (2.0, 4.0):
            assert density_estimate(big, r).upper >= density_estimate(small, r).upper

    def test_points_outside_window_rejected(self):
        with pytest.raises(ValueError):
            PhasePointSet(np.array([[0.0, 9.0]]), 8.0, 1)
        with pytest.raises(ValueError):
            # the window is half-open, so +W itself lies outside
            PhasePointSet(np.array([[8.0, 0.0]]), 8.0, 1)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        lam = lattice_point_set((1.0, 0.5), 4.0, jitter=0.05, seed=1)
        path = tmp_path / "points.csv"
        lam.save_csv(path)
        back = PhasePointSet.load_csv(path, window=4.0)
        assert back.dim == 1
        assert back.window == 4.0
        np.testing.assert_array_equal(back.coords, lam.coords)

    def test_csv_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(9)
        lam = PhasePointSet(rng.uniform(-2.0, 2.0, size=(5, 4)), 2.5, 2)
        path = tmp_path / "points2.csv"
        lam.save_csv(path)
        back = PhasePointSet.load_csv(path, window=2.5)
        assert back.dim == 2
        np.testing.assert_array_equal(back.coords, lam.coords)

    def test_failed_save_leaves_existing_target(self, tmp_path):
        path = tmp_path / "points.csv"
        lattice_point_set((1.0, 1.0), 2.0).save_csv(path)
        before = path.read_bytes()
        broken = lattice_point_set((1.0, 1.0), 2.0)
        broken.coords = np.array([[object(), object()]], dtype=object)
        with pytest.raises(TypeError):
            broken.save_csv(path)
        assert path.read_bytes() == before
        assert not (tmp_path / "points.csv.tmp").exists()

    def test_load_skips_comments_and_infers_window(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("# generated by hand\na_1,b_1\n0.5,1.5\n-2.25,0.0\n")
        lam = PhasePointSet.load_csv(path)
        assert len(lam) == 2
        assert lam.window == 3.0
        assert lam.coords[1, 0] == -2.25
