import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import (
    GridMismatchError,
    GridSpec,
    PhasePoint,
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
    shifted = tf_shift(f, PhasePoint(0.5, 0.0))
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
    same = tf_shift(f, PhasePoint(0.0, 0.0))
    np.testing.assert_array_equal(same.values, f.values)
    moved = tf_shift(f, PhasePoint(1.25, 0.7))
    assert moved.norm() == pytest.approx(f.norm(), abs=1e-12)


def test_tf_shift_composition_phase():
    # pi(a,b) pi(a',b') = exp(-2 pi i a.b') pi(a+a', b+b'), read off from the
    # definition exp(2 pi i b t) f(t-a).
    g = make_grid()
    f = gaussian_window(g)
    a, b = 0.5, 1.25
    ap, bp = -0.25, 2.0
    lhs = tf_shift(tf_shift(f, PhasePoint(ap, bp)), PhasePoint(a, b))
    rhs = np.exp(-2j * np.pi * a * bp) * tf_shift(f, PhasePoint(a + ap, b + bp))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10


def test_tf_shift_rejects_off_grid():
    g = make_grid()
    f = gaussian_window(g)
    with pytest.raises(ValueError):
        tf_shift(f, PhasePoint(0.03, 0.0))
    snapped = snap_to_grid(g, PhasePoint(0.04, 0.4))
    assert snapped.a[0] == pytest.approx(1 / 16)
    tf_shift(f, snapped)  # does not raise


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
