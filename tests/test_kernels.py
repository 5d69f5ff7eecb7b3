"""Each vectorised kernel agrees with its definition evaluated point by point."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pslab._kernels as kernels
from pslab.geometry import lattice_point_set


def random_cube_inputs(seed, m=40):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(m, 2)).T


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
                assert kernels.max_cube_count_2axes(xs, ys) == cube_count_by_definition(xs, ys)

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
        assert kernels.max_cube_count_2axes(xs, ys) == cube_count_by_definition(xs, ys)

    def test_jittered_lattice_matches_vectorised_definition(self):
        # 400 points of the jittered half-integer lattice; corner i in x times
        # corner j in y counts as the matrix product of two slab indicators
        xs, ys = lattice_point_set((0.5, 0.5), 5.0, jitter=0.2, seed=7).coords.T
        assert xs.size == 400
        in_x = (xs[None, :] >= xs[:, None]) & (xs[None, :] < xs[:, None] + 1.0)
        in_y = (ys[None, :] >= ys[:, None]) & (ys[None, :] < ys[:, None] + 1.0)
        counts = in_x.astype(np.int64) @ in_y.astype(np.int64).T
        assert kernels.max_cube_count_2axes(xs, ys) == int(counts.max())

    def test_known_cluster(self):
        xs = np.array([0.1, 0.5, 0.9, 3.0])
        ys = np.array([0.1, 0.8, 0.2, 3.0])
        assert kernels.max_cube_count_2axes(xs, ys) == 3


class TestBargmannKernel:
    def test_matches_definition(self):
        # the factored matmul against sum_t w_t exp(2 pi t z) at each z
        rng = np.random.default_rng(4)
        t = np.linspace(-4.0, 4.0, 128)
        weights = rng.normal(size=128) + 1j * rng.normal(size=128)
        re = np.linspace(-1.0, 1.0, 9)
        im = np.linspace(-1.0, 1.0, 7)
        want = np.array(
            [
                [sum(w * cmath.exp(2.0 * math.pi * tt * complex(x, y)) for tt, w in zip(t, weights)) for y in im]
                for x in re
            ]
        )
        np.testing.assert_allclose(kernels.bargmann_sum(t, weights, re, im), want, rtol=1e-12, atol=1e-12)
