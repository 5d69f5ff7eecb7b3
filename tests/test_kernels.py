"""Each vectorised kernel agrees with its definition evaluated point by point."""

import cmath
import math

import numpy as np

import pslab._kernels as kernels


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
    def test_backends_agree(self):
        # the slab sweep against the brute-force count over all corners; the
        # quarter-integer copies put points exactly on the open cube faces
        for seed in range(5):
            for xs, ys in (random_cube_inputs(seed), np.round(4 * random_cube_inputs(seed)) / 4):
                assert kernels.max_cube_count_2axes(xs, ys) == cube_count_by_definition(xs, ys)

    def test_known_cluster(self):
        xs = np.array([0.1, 0.5, 0.9, 3.0])
        ys = np.array([0.1, 0.8, 0.2, 3.0])
        assert kernels.max_cube_count_2axes(xs, ys) == 3


class TestBargmannKernel:
    def test_backends_agree(self):
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
