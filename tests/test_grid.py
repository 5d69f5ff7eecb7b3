import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
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


def make_grid(n=256, step=1 / 16, dim=1):
    return GridSpec(dim, n, step)


def random_function(grid, seed=0, bandlimit=None):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if bandlimit is not None:
        f = SampledFunction(grid, vals)
        fh = fourier_transform(f)
        mask = np.ones(grid.shape, bool)
        for ax in range(grid.dim):
            pts = fh.grid.axis_points(ax).reshape((-1,) + (1,) * (grid.dim - ax - 1))
            mask &= np.abs(pts) <= bandlimit
        fh.values *= mask
        return inverse_fourier_transform(fh)
    return SampledFunction(grid, vals)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 64, 0.1)
    with pytest.raises(ValueError):
        GridSpec(1, 100, 0.1)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 4, 0.1)  # too small
    with pytest.raises(ValueError):
        GridSpec(1, 64, -0.5)


@pytest.mark.parametrize("n", [1024.7, (64, 32.5), float("nan")])
def test_gridspec_refuses_fractional_sample_count(n):
    # int() would truncate 1024.7 to a valid 1024
    with pytest.raises(ValueError, match="whole number"):
        GridSpec(1 if np.isscalar(n) else 2, n, 0.1)
    assert GridSpec(1, 1024.0, 0.1).n == (1024,)


def test_dual_grid_round_trip():
    g = make_grid()
    d = g.dual()
    assert d.step[0] == pytest.approx(1 / (256 / 16))
    assert d.dual() == g


def test_axis_points_origin_centered():
    g = make_grid(n=16, step=0.5)
    pts = g.axis_points()
    assert pts[8] == 0.0
    assert pts[0] == -4.0
    assert pts[-1] == 3.5  # half-open box


def test_fourier_matches_direct_quadrature():
    # independent oracle: the O(N^2) Riemann sum of the transform integral
    g = make_grid(n=64, step=1 / 8)
    f = random_function(g, seed=3)
    fh = fourier_transform(f)
    x = g.axis_points()
    xi = g.dual().axis_points()
    direct = (f.values[None, :] * np.exp(-2j * np.pi * np.outer(xi, x))).sum(axis=1) * g.step[0]
    np.testing.assert_allclose(fh.values, direct, atol=1e-10)


def test_gaussian_is_fourier_invariant():
    g = make_grid()
    w = gaussian_window(g)
    wh = fourier_transform(w)
    assert np.max(np.abs(wh.values - w.values)) < 1e-10


def test_shift_theorem():
    g = make_grid()
    f = random_function(g, seed=1, bandlimit=4.0)
    shifted = SampledFunction(g, tf_shift(f.values, g, [0.5, 0.0]))
    lhs = fourier_transform(shifted).values
    xi = g.dual().axis_points()
    rhs = fourier_transform(f).values * np.exp(-2j * np.pi * 0.5 * xi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@st.composite
def random_grids(draw):
    """d in {1, 2}, 8 to 256 samples and a random spacing per axis."""
    dim = draw(st.sampled_from([1, 2]))
    n = tuple(draw(st.sampled_from([8, 16, 32, 64, 128, 256])) for _ in range(dim))
    step = tuple(draw(st.floats(1e-3, 10.0)) for _ in range(dim))
    return GridSpec(dim, n, step)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_grids(), st.integers(0, 2**32 - 1))
def test_unitarity_and_round_trip(g, seed):
    f, h = random_function(g, seed), random_function(g, seed + 1)
    fh, hh = fourier_transform(f), fourier_transform(h)
    assert fh.norm() == pytest.approx(f.norm(), rel=1e-12)
    assert abs(inner_product(fh, hh) - inner_product(f, h)) < 1e-12 * f.norm() * h.norm()
    back = inverse_fourier_transform(fh)
    assert back.grid == g
    rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-12


def test_parseval_inner_products():
    g = make_grid()
    f = random_function(g, seed=4)
    h = random_function(g, seed=5)
    lhs = inner_product(f, h)
    rhs = inner_product(fourier_transform(f), fourier_transform(h))
    assert abs(lhs - rhs) < 1e-10 * f.norm() * h.norm()


def test_inner_product_conventions():
    g = make_grid()
    w = gaussian_window(g)
    assert inner_product(w, w) == pytest.approx(1.0, abs=1e-10)
    f = random_function(g, seed=6)
    h = random_function(g, seed=7)
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)))
    # conjugate-linear in the second slot
    assert inner_product(f, 2j * h) == pytest.approx(-2j * inner_product(f, h))


def test_inner_product_grid_mismatch():
    f = random_function(make_grid())
    h = random_function(make_grid(step=1 / 8))
    with pytest.raises(GridMismatchError):
        inner_product(f, h)


def test_hermite_orthogonality():
    g = make_grid()
    x = g.axis_points()
    h0 = gaussian_window(g)
    h1 = SampledFunction(g, 2 ** 1.25 * np.sqrt(np.pi) * x * np.exp(-np.pi * x * x))
    assert h1.norm() == pytest.approx(1.0, abs=1e-10)
    assert abs(inner_product(h0, h1)) < 1e-10


def test_tf_shift_identity_and_unitarity():
    g = make_grid()
    f = random_function(g, seed=8)
    same = tf_shift(f.values, g, [0.0, 0.0])
    np.testing.assert_array_equal(same, f.values)
    moved = SampledFunction(g, tf_shift(f.values, g, [1.25, 0.7]))
    assert moved.norm() == pytest.approx(f.norm(), abs=1e-12)


def shift_by_roll(values, grid, a, b):
    """The oracle exp(2 pi i b.x) f(x - a): np.roll by a / step samples, then the phase, a on the grid."""
    moved = np.roll(values, [round(ai / si) for ai, si in zip(a, grid.step)], axis=tuple(range(grid.dim)))
    return moved * np.exp(2j * np.pi * sum(bi * x for bi, x in zip(b, grid.mesh())))


GRID_2D = GridSpec(2, (16, 32), (1 / 4, 1 / 8))
# negative shifts, and shifts past the half-extent (8 in 1-D, 2 and 2 in 2-D) that wrap
SHIFT_CENTERS = {
    1: [[0.0, 0.0], [-3.5, 1.25], [10.0, -2.0], [-12.5, 0.5]],
    2: [[0.0, 0.0, 0.0, 0.0], [-0.75, 1.5, 2.0, -1.0], [3.0, -2.5, -0.5, 0.25], [-5.0, 0.125, 1.0, 3.0]],
}


@pytest.mark.parametrize("grid", [make_grid(), GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("layout", ["window-by-centers", "stack-by-centers", "one-by-one"])
def test_tf_shift_matches_roll_and_phase(grid, layout):
    centers = np.array(SHIFT_CENTERS[grid.dim])
    d = grid.dim
    stack = np.stack([random_function(grid, seed=k).values for k in range(len(centers))])
    window = gaussian_window(grid).values
    if layout == "window-by-centers":
        values, expected = window, [shift_by_roll(window, grid, c[:d], c[d:]) for c in centers]
    elif layout == "stack-by-centers":
        values, expected = stack, [shift_by_roll(f, grid, c[:d], c[d:]) for f, c in zip(stack, centers)]
    else:
        values, centers = stack[1], centers[1]
        expected = shift_by_roll(values, grid, centers[:d], centers[d:])
    shifted = tf_shift(values, grid, centers)
    assert shifted.shape == np.shape(expected)
    np.testing.assert_allclose(shifted, expected, rtol=0, atol=1e-12)


def test_tf_shift_composition_phase():
    # pi(a,b) pi(a',b') = exp(-2 pi i a.b') pi(a+a', b+b'), read off from the
    # definition exp(2 pi i b t) f(t-a); applied to a stack of two functions.
    for grid in (make_grid(), GRID_2D):
        d = grid.dim
        f = np.stack([gaussian_window(grid).values, random_function(grid, seed=9).values])
        first, second = np.array(SHIFT_CENTERS[d][1]), np.array(SHIFT_CENTERS[d][2])
        lhs = tf_shift(tf_shift(f, grid, first), grid, second)
        rhs = np.exp(-2j * np.pi * np.dot(second[:d], first[d:])) * tf_shift(f, grid, first + second)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_tf_shift_rejects_off_grid():
    g = make_grid()
    f = gaussian_window(g).values
    with pytest.raises(ValueError, match="not multiples of spacing"):
        tf_shift(f, g, [0.03, 0.0])
    with pytest.raises(ValueError, match="not multiples of spacing"):
        tf_shift(f, g, [[0.0, 0.0], [0.03, 0.0]])
    snapped = snap_to_grid(g, [0.04, 0.4])
    assert snapped[0] == pytest.approx(1 / 16)
    assert snapped[1] == 0.4
    tf_shift(f, g, snapped)  # does not raise


def test_snap_to_grid_rounds_each_time_axis_by_its_spacing():
    snapped = snap_to_grid(GRID_2D, [[0.3, 0.3, 0.3, -0.3], [-0.4, -0.4, 7.0, 7.0]])
    np.testing.assert_array_equal(snapped, [[0.25, 0.25, 0.3, -0.3], [-0.5, -0.375, 7.0, 7.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1], ids=["time", "frequency"])
def test_tf_shift_rejects_non_finite_coordinates(bad, column):
    g = make_grid()
    centers = np.zeros((3, 2))
    centers[1, column] = bad
    with pytest.raises(ValueError, match="finite"):
        tf_shift(gaussian_window(g).values, g, centers)


@pytest.mark.parametrize(
    "values_shape, centers_shape",
    [
        ((256,), (3,)),  # 2d + 1 coordinates
        ((256,), (4, 4)),  # 2-D centers on a 1-D grid
        ((3, 256), (4, 2)),  # three functions, four centers
        ((256,), (2, 2, 2)),  # a grid of centers, not rows
    ],
)
def test_tf_shift_rejects_mismatched_centers(values_shape, centers_shape):
    g = make_grid()
    with pytest.raises(ValueError, match="centers"):
        tf_shift(np.ones(values_shape, dtype=complex), g, np.zeros(centers_shape))


def test_tf_shift_rejects_values_of_another_grid():
    with pytest.raises(GridMismatchError):
        tf_shift(np.ones(128, dtype=complex), make_grid(), [0.0, 0.0])


def test_gaussian_window_moments():
    g = make_grid()
    w = gaussian_window(g)
    assert w.norm() == pytest.approx(1.0, abs=1e-10)
    # second moment against an independent quadrature oracle at 10x resolution
    xf = np.linspace(-8, 8, 40961)
    oracle = np.trapezoid(xf**2 * np.sqrt(2) * np.exp(-2 * np.pi * xf**2), xf)
    x = g.axis_points()
    discrete = g.step[0] * np.sum(x**2 * np.abs(w.values) ** 2)
    assert discrete == pytest.approx(oracle, abs=1e-8)
    assert discrete == pytest.approx(1 / (4 * np.pi), abs=1e-8)


def test_gaussian_tensor_structure():
    g2 = GridSpec(2, 64, 1 / 8)
    g1 = GridSpec(1, 64, 1 / 8)
    w2 = gaussian_window(g2)
    w1 = gaussian_window(g1)
    np.testing.assert_allclose(w2.values, np.outer(w1.values, w1.values), rtol=1e-12)
    assert w2.norm() == pytest.approx(1.0, abs=1e-10)


def test_sampled_function_shape_check():
    g = make_grid()
    with pytest.raises(ValueError):
        SampledFunction(g, np.zeros(100))
    with pytest.raises(ValueError):
        SampledFunction(g, np.full(256, np.nan))


def test_arithmetic_requires_same_grid():
    f = random_function(make_grid())
    h = random_function(make_grid(n=512))
    with pytest.raises(GridMismatchError):
        _ = f + h
