"""The cube sweep and the Bargmann quadrature agree with their definitions point by point."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.geometry import PhasePointSet, lattice_point_set, separation_stat
from pslab.grid import GridSpec, SampledFunction
from pslab.stft import ComplexGrid, _bargmann_kernels, bargmann_transform


def random_cube_inputs(seed, m=40):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(m, 2)).T


def cube_count(xs, ys):
    """separation_stat of the points (xs, ys); window 4 holds [-3, 3)."""
    return separation_stat(PhasePointSet(np.column_stack([xs, ys]), 4.0))


def cube_count_by_definition(xs, ys):
    """Max over corners (x0, y0) of the points in [x0, x0+1) x [y0, y0+1).

    A maximizing cube slides down until its lower faces touch points, so the
    corners range over every pair of observed coordinates.
    """
    pts = list(zip(xs.tolist(), ys.tolist()))
    return max(
        sum(1 for x, y in pts if x0 <= x < x0 + 1.0 and y0 <= y < y0 + 1.0)
        for x0 in xs.tolist()
        for y0 in ys.tolist()
    )


class TestCubeCountKernel:
    def test_matches_definition(self):
        # the slab sweep against the brute-force count over all corners; the
        # quarter-integer copies put points exactly on the open cube faces
        for seed in range(5):
            for xs, ys in (random_cube_inputs(seed), np.round(4 * random_cube_inputs(seed)) / 4):
                assert cube_count(xs, ys) == cube_count_by_definition(xs, ys)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=24),
        st.integers(0, 24),
    )
    def test_quarter_grid_ties_and_duplicates(self, quarters, repeats):
        # quarter-integer points sit exactly on cube faces, and the first
        # `repeats` points appear twice
        pts = np.array(quarters + quarters[:repeats], dtype=np.float64) / 4
        xs, ys = pts.T
        assert cube_count(xs, ys) == cube_count_by_definition(xs, ys)

    def test_jittered_lattice_matches_vectorised_definition(self):
        # 400 points of the jittered half-integer lattice; corner i in x times
        # corner j in y counts as the matrix product of two slab indicators
        lam = lattice_point_set((0.5, 0.5), 5.0, jitter=0.2, seed=7)
        xs, ys = lam.coords.T
        assert xs.size == 400
        in_x = (xs[None, :] >= xs[:, None]) & (xs[None, :] < xs[:, None] + 1.0)
        in_y = (ys[None, :] >= ys[:, None]) & (ys[None, :] < ys[:, None] + 1.0)
        counts = in_x.astype(np.int64) @ in_y.astype(np.int64).T
        assert separation_stat(lam) == int(counts.max())

    def test_known_cluster(self):
        xs = np.array([0.1, 0.5, 0.9, 3.0])
        ys = np.array([0.1, 0.8, 0.2, 3.0])
        assert cube_count(xs, ys) == 3


def bargmann_by_definition(f, z_grid):
    """2^(1/4) e^{-pi z^2/2} sum_t w_t exp(2 pi t z) at each z, w_t = f(t) e^{-pi t^2} dt."""
    t = f.grid.axis_points(0).tolist()
    weights = [v * math.exp(-math.pi * tt * tt) * f.grid.cell_volume for tt, v in zip(t, f.values.tolist())]

    def at(z):
        total = sum(w * cmath.exp(2.0 * math.pi * tt * z) for tt, w in zip(t, weights))
        return 2.0**0.25 * cmath.exp(-math.pi * z * z / 2) * total

    return np.array([[at(complex(x, y)) for y in z_grid.im_points] for x in z_grid.re_points])


def random_complex_function(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n[0]
    return SampledFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))


class TestBargmannKernel:
    def test_matches_definition(self):
        # the factored real matmul against the sum over t at each z
        f = random_complex_function(GridSpec(1, 128, 1 / 16), 4)
        z_grid = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.25)
        want = bargmann_by_definition(f, z_grid)
        np.testing.assert_allclose(bargmann_transform(f, z_grid), want, rtol=1e-12, atol=1e-12)

    def test_tables_follow_both_grids(self):
        # interleaved calls switch the cached tables' grid, z-grid or both
        grids = [GridSpec(1, 128, 1 / 16), GridSpec(1, 64, 1 / 8)]
        z_grids = [ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.25), ComplexGrid(-0.5, 0.5, -0.75, 0.75, 0.25)]
        funcs = [random_complex_function(g, seed) for seed, g in enumerate(grids)]
        wants = {(i, j): bargmann_by_definition(funcs[i], z_grids[j]) for i in range(2) for j in range(2)}
        for i, j in [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 1)]:
            got = bargmann_transform(funcs[i], z_grids[j])
            np.testing.assert_allclose(got, wants[i, j], rtol=1e-12, atol=1e-12)

    def test_cached_tables_are_read_only(self):
        for table in _bargmann_kernels(GridSpec(1, 64, 1 / 8), ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.5)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
