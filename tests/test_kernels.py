"""The cube sweep and the Bargmann quadrature agree with their definitions point by point."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.geometry import PhasePointSet, lattice_point_set, separation_stat
from pslab.grid import GridSpec, SampledFunction
from pslab.stft import ComplexGrid, bargmann_transform


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


class TestBargmannKernel:
    def test_matches_definition(self):
        # the factored matmul against 2^(1/4) e^{-pi z^2/2} sum_t w_t exp(2 pi t z)
        # at each z, w_t = f(t) e^{-pi t^2} dt
        rng = np.random.default_rng(4)
        grid = GridSpec(1, 128, 1 / 16)
        f = SampledFunction(grid, rng.normal(size=128) + 1j * rng.normal(size=128))
        t = grid.axis_points(0).tolist()
        weights = [v * math.exp(-math.pi * tt * tt) * grid.cell_volume for tt, v in zip(t, f.values.tolist())]
        z_grid = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.25)

        def by_definition(z):
            total = sum(w * cmath.exp(2.0 * math.pi * tt * z) for tt, w in zip(t, weights))
            return 2.0**0.25 * cmath.exp(-math.pi * z * z / 2) * total

        want = np.array([[by_definition(complex(x, y)) for y in z_grid.im_points] for x in z_grid.re_points])
        np.testing.assert_allclose(bargmann_transform(f, z_grid), want, rtol=1e-12, atol=1e-12)
