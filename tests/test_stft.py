import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab import GridSpec, SampledFunction, gaussian_window, inner_product, tf_shift
from pslab.localization import modulation_weight
from pslab.operators import cutoff_extent
from pslab.stft import (
    ComplexGrid,
    adjoint_stft,
    bargmann_transform,
    multiplier_matrix,
    stft,
)

from test_cli import run_python
from test_grid import random_function


def shifted(f, a, b):
    """pi(a, b) f, with a and b given per axis or as scalars in 1-D."""
    return SampledFunction(f.grid, tf_shift(f.values, f.grid, np.hstack([a, b])))


@pytest.fixture(scope="module")
def setup():
    g = GridSpec(1, 256, 1 / 16)
    return g, gaussian_window(g)


def cell_measure(grid):
    """The phase-space cell of a field on ``grid``: a time step times a frequency step per axis."""
    return grid.cell_volume * grid.dual().cell_volume


def test_field_shape_and_measure(setup):
    g, w = setup
    field = stft(gaussian_window(g), w)
    assert field.shape == (256, 256) and field.dtype == np.complex128
    assert cell_measure(g) == pytest.approx(g.step[0] * g.dual().step[0])


@pytest.mark.parametrize("shape", [(256,), (256, 255), (128, 256), (256, 256, 1)])
def test_adjoint_refuses_a_field_off_the_phase_space_grid(setup, shape):
    g, w = setup
    with pytest.raises(ValueError, match="does not match phase-space grid"):
        adjoint_stft(np.zeros(shape, dtype=complex), w)


def test_stft_center_value(setup):
    g, w = setup
    field = stft(w, w)
    assert abs(field[128, 128] - 1.0) < 1e-10


def test_stft_matches_inner_product_definition(setup):
    # oracle: the defining inner products, evaluated directly for a few cells
    g, w = setup
    f = random_function(g, seed=11, bandlimit=4.0)
    field = stft(f, w)
    for jt, jf in [(128, 128), (120, 140), (140, 100), (97, 131)]:
        x = g.axis_points()[jt]
        xi = g.dual().axis_points()[jf]
        direct = inner_product(f, shifted(w, x, xi))
        assert field[jt, jf] == pytest.approx(direct, abs=1e-12)


def test_gaussian_ambiguity_modulus(setup):
    # |V_g g| for the unit Gaussian against dense quadrature and closed form
    g, w = setup
    field = stft(w, w)
    xs = g.axis_points()
    xis = g.dual().axis_points()
    closed = np.exp(-np.pi * (xs[:, None] ** 2 + xis[None, :] ** 2) / 2)
    assert np.max(np.abs(np.abs(field) - closed)) < 1e-8
    # quadrature oracle at one off-axis point, 10x finer grid
    x0, xi0 = 0.5, 0.75
    t = np.linspace(-8, 8, 40961)
    integ = np.sqrt(2) * np.exp(-np.pi * t**2) * np.exp(-np.pi * (t - x0) ** 2) * np.exp(-2j * np.pi * xi0 * t)
    oracle = abs(np.trapezoid(integ, t))
    jt, jf = 128 + 8, 128 + 12
    assert abs(field[jt, jf]) == pytest.approx(oracle, abs=1e-8)


def test_moyal_identity(setup):
    g, w = setup
    f = random_function(g, seed=12)
    field_norm = math.sqrt(cell_measure(g) * float(np.sum(np.abs(stft(f, w)) ** 2)))
    assert field_norm == pytest.approx(f.norm(), rel=1e-8)


def test_inversion(setup):
    g, w = setup
    for seed in (1, 2, 3):
        f = random_function(g, seed=seed)
        back = adjoint_stft(stft(f, w), w)
        rel = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-8


def test_adjoint_identity(setup):
    g, w = setup
    f = random_function(g, seed=13)
    h = random_function(g, seed=14)
    Fh = stft(h, w)
    lhs = inner_product(adjoint_stft(Fh, w), f)
    rhs = cell_measure(g) * np.sum(Fh * np.conj(stft(f, w)))
    assert abs(lhs - rhs) < 1e-10


def test_single_cell_field_synthesizes_shifted_window(setup):
    g, w = setup
    field = np.zeros((256, 256), dtype=complex)
    jt, jf = 128 + 16, 128 - 8
    field[jt, jf] = 1.0 / cell_measure(g)
    out = adjoint_stft(field, w)
    x = g.axis_points()[jt]
    xi = g.dual().axis_points()[jf]
    expected = shifted(w, x, xi)
    assert np.max(np.abs(out.values - expected.values)) < 1e-10


@pytest.fixture(scope="module")
def setup_2d():
    g = GridSpec(2, 16, 1 / 4)
    return g, gaussian_window(g)


def test_adjoint_identity_2d(setup_2d):
    g, w = setup_2d
    f = random_function(g, seed=13)
    h = random_function(g, seed=14)
    Fh = stft(h, w)
    lhs = inner_product(adjoint_stft(Fh, w), f)
    rhs = cell_measure(g) * np.sum(Fh * np.conj(stft(f, w)))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_single_cell_field_synthesizes_shifted_window_2d(setup_2d):
    g, w = setup_2d
    field = np.zeros(g.shape + g.shape, dtype=complex)
    jt, jf = (8 + 3, 8 - 2), (8 - 1, 8 + 4)
    field[jt + jf] = 1.0 / cell_measure(g)
    out = adjoint_stft(field, w)
    x = tuple(g.axis_points(ax)[jt[ax]] for ax in range(2))
    xi = tuple(g.dual().axis_points(ax)[jf[ax]] for ax in range(2))
    expected = shifted(w, x, xi)
    assert np.max(np.abs(out.values - expected.values)) < 1e-12


def test_covariance(setup):
    g, w = setup
    f = random_function(g, seed=15, bandlimit=3.0)
    a, b = 0.5, 1.0  # on-grid shifts in both axes of the field
    field = stft(f, w)
    moved = stft(shifted(f, a, b), w)
    sa = int(round(a / g.step[0]))
    sb = int(round(b / g.dual().step[0]))
    rolled = np.roll(np.roll(np.abs(field), sa, axis=0), sb, axis=1)
    # compare away from the wrap seam
    err = np.abs(np.abs(moved) - rolled)[20:-20, 20:-20]
    assert np.max(err) < 1e-8


def test_window_norm_validation(setup):
    g, w = setup
    with pytest.raises(ValueError):
        stft(w, SampledFunction(g, np.zeros(256)))


def test_stft_2d_matches_definition():
    g = GridSpec(2, 16, 1 / 4)
    w = gaussian_window(g)
    f = random_function(g, seed=16)
    field = stft(f, w)
    assert field.shape == (16, 16, 16, 16)
    jt = (10, 7)
    jf = (9, 12)
    x = tuple(g.axis_points(ax)[jt[ax]] for ax in range(2))
    xi = tuple(g.dual().axis_points(ax)[jf[ax]] for ax in range(2))
    direct = inner_product(f, shifted(w, x, xi))
    assert field[jt + jf] == pytest.approx(direct, abs=1e-12)
    back = adjoint_stft(field, w)
    rel = np.linalg.norm((back.values - f.values).ravel()) / np.linalg.norm(f.values.ravel())
    assert rel < 1e-8


def multiplier_by_definition(window, symbol, f):
    """V_w* (symbol . V_w f), analysis and synthesis over the whole field."""
    return adjoint_stft(symbol * stft(f, window), window)


def ragged_slabs(mp, size):
    """Make multiplier_matrix cut its ``size`` rows and lags into three slabs, the last one short."""
    width = size // 3 + 1
    assert -(-size // width) >= 3 and size % width
    mp.setattr("pslab.stft._SLAB_ENTRIES", size * width)
    mp.setattr("pslab.stft._SLAB_COLUMNS", 1)


@pytest.mark.parametrize("kind", ["mask", "weight"])
def test_multiplier_matrix_matches_definition(kind, monkeypatch):
    # oracle: every column of the 64 x 64 matrix against analysis + synthesis
    g = GridSpec(1, 64, 1 / 8)
    ragged_slabs(monkeypatch, 64)
    w = gaussian_window(g)
    rng = np.random.default_rng(64)
    symbol = rng.random((64, 64)) < 0.4 if kind == "mask" else 1.0 + 10.0 * rng.random((64, 64))
    A = multiplier_matrix(w, symbol.__getitem__)
    assert A.dtype == np.complex128  # a random symbol is not even in frequency
    assert_matches_definition(A, w, symbol)


@pytest.mark.parametrize("kind", ["mask", "weight"])
def test_multiplier_matrix_2d_matches_definition(kind, monkeypatch):
    g = GridSpec(2, 16, 1 / 4)
    ragged_slabs(monkeypatch, 256)
    w = gaussian_window(g)
    rng = np.random.default_rng(16)
    shape = g.shape + g.shape
    symbol = rng.random(shape) < 0.4 if kind == "mask" else 1.0 + 10.0 * rng.random(shape)
    A = multiplier_matrix(w, symbol.__getitem__)
    assert A.shape == (256, 256) and A.dtype == np.complex128
    assert_matches_definition(A, w, symbol)


def assert_matches_definition(A, window, symbol):
    """A against analysis + synthesis: on every unit vector in 1-D, on three random functions in 2-D."""
    g = window.grid
    if g.dim == 1:
        size = g.n[0]
        dense = np.array([multiplier_by_definition(window, symbol, SampledFunction(g, e)).values for e in np.eye(size)])
        assert np.abs(A - dense.T).max() < 1e-12 * np.abs(dense).max()
        return
    for seed in range(3):
        f = random_function(g, seed=seed)
        ref = multiplier_by_definition(window, symbol, f).values.ravel()
        assert np.abs(A @ f.values.ravel() - ref).max() < 1e-12 * np.abs(ref).max()


def even_symbol(grid, kind):
    """The cube mask at half the cutoff extent or at all of it, where the unpaired -n/2 frequency is
    kept, or the modulation weight at sigma = kind's number."""
    if kind.startswith("cube"):
        R = cutoff_extent(grid) * (1.0 if kind == "cube-edge" else 0.5)
        mask = True
        for coords in grid.phase_mesh():
            mask = mask & (np.abs(coords) <= R)
        return mask
    return modulation_weight(grid, float(kind.split("-")[1]))


@pytest.mark.parametrize("grid", [GridSpec(1, 64, 1 / 8), GridSpec(2, 16, 1 / 4)], ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["cube", "cube-edge", "weight-0.5", "weight-1", "weight-2"])
def test_real_window_and_even_symbol_give_a_real_matrix(grid, kind, monkeypatch):
    ragged_slabs(monkeypatch, math.prod(grid.n))
    w = gaussian_window(grid)
    symbol = even_symbol(grid, kind)
    A = multiplier_matrix(w, symbol.__getitem__)
    assert A.dtype == np.float64
    assert_matches_definition(A, w, symbol)


def test_odd_slab_after_even_ones_turns_the_matrix_complex(monkeypatch):
    # time rows are built from n/2 on, so rows 0..15 come in the second and third slabs
    g = GridSpec(1, 64, 1 / 8)
    ragged_slabs(monkeypatch, 64)
    w = gaussian_window(g)
    symbol = modulation_weight(g, 1.0)
    symbol[:16] += np.random.default_rng(5).random((16, 64))
    A = multiplier_matrix(w, symbol.__getitem__)
    assert A.dtype == np.complex128
    assert_matches_definition(A, w, symbol)


def test_complex_window_gives_a_complex_matrix():
    g = GridSpec(1, 64, 1 / 8)
    w = shifted(gaussian_window(g), 0.5, 1.0)
    symbol = modulation_weight(g, 1.0)
    A = multiplier_matrix(w, symbol.__getitem__)
    assert A.dtype == np.complex128
    assert_matches_definition(A, w, symbol)


def test_multiplier_slabs_are_at_least_sixteen_wide(monkeypatch):
    # a 64-entry slab would be one time row or lag column of 64; the floor makes it 16, so each
    # of the two FFT loops takes 64 / 16 slabs
    calls = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda *args, **kwargs: calls.append(1) or ifftn(*args, **kwargs))
    monkeypatch.setattr("pslab.stft._SLAB_ENTRIES", 64)
    g = GridSpec(1, 64, 1 / 8)
    multiplier_matrix(gaussian_window(g), modulation_weight(g, 1.0).__getitem__)
    assert len(calls) == 2 * 64 // 16


def test_multiplier_matrix_peak_memory_is_the_result_and_a_slab():
    # peak RSS growth of one real 1024 x 1024 weight matrix (8 MiB) in a fresh
    # process; a small call first loads the FFT code and its buffers
    code = (
        "import resource, sys\n"
        "from pslab import GridSpec, gaussian_window\n"
        "from pslab.localization import modulation_weight\n"
        "from pslab.stft import multiplier_matrix\n"
        "small = GridSpec(1, 64, 1 / 8)\n"
        "multiplier_matrix(gaussian_window(small), modulation_weight(small, 1.0).__getitem__)\n"
        "g = GridSpec(1, 1024, 1 / 32)\n"
        "window, weight = gaussian_window(g), modulation_weight(g, 1.0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "A = multiplier_matrix(window, weight.__getitem__)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(A.dtype, (after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    dtype, growth = run_python(code).split()
    assert dtype == "float64"
    assert int(growth) <= 1.5 * 1024 * 1024 * 8


def test_multiplier_matrix_rejects_bad_symbol(setup):
    g, w = setup
    with pytest.raises(ValueError, match="broadcast"):
        multiplier_matrix(w, np.ones((256, 255)).__getitem__)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]), n=st.sampled_from([8, 16]))
def test_multiplier_hermitian_with_mask_spectrum_in_unit_band(seed, dim, n):
    # any unit-norm window: V* 1_Q V is an orthogonal projection compressed, so 0 <= A <= I
    g = GridSpec(dim, n, 1 / math.sqrt(n))
    rng = np.random.default_rng(seed)
    w = random_function(g, seed=seed)
    w = w * (1.0 / w.norm())
    mask = rng.random(g.shape + g.shape) < rng.random()
    with pytest.MonkeyPatch.context() as mp:
        ragged_slabs(mp, n**dim)
        A = multiplier_matrix(w, mask.__getitem__)
    assert np.abs(A - A.conj().T).max() < 1e-14
    lam = np.linalg.eigvalsh(A)
    assert lam.min() >= -1e-12
    assert lam.max() <= 1 + 1e-12


def test_bargmann_of_gaussian_is_one(setup):
    g, w = setup
    zg = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.05)
    B = bargmann_transform(w, zg)
    assert np.max(np.abs(B - 1.0)) < 1e-8


def test_bargmann_gaussian_quadrature_oracle(setup):
    # independent 10x-resolution quadrature at a handful of z values
    g, w = setup
    zg = ComplexGrid(-0.5, 0.5, -0.5, 0.5, 0.25)
    B = bargmann_transform(w, zg)
    t = np.linspace(-8, 8, 40961)
    for iz, z in [((0, 0), -0.5 - 0.5j), ((2, 1), -0.25j), ((4, 4), 0.5 + 0.5j)]:
        integrand = 2 ** 0.25 * np.exp(-np.pi * t * t) * np.exp(-np.pi * t * t) * np.exp(2 * np.pi * t * z)
        oracle = 2 ** 0.25 * np.exp(-np.pi * z * z / 2) * np.trapezoid(integrand, t)
        assert B[iz] == pytest.approx(oracle, abs=1e-8)


def test_bargmann_of_shifted_gaussian_is_kernel(setup):
    g, w = setup
    w1, w2 = 0.5, 0.75
    f = shifted(w, w1, -w2)
    zg = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.1)
    B = bargmann_transform(f, zg)
    wc = w1 + 1j * w2
    pred = np.abs(np.exp(np.pi * np.conj(wc) * zg.mesh())) * np.exp(-np.pi * abs(wc) ** 2 / 2)
    assert np.max(np.abs(np.abs(B) - pred)) < 1e-6


def test_bargmann_linearity(setup):
    g, w = setup
    f = random_function(g, seed=17)
    h = random_function(g, seed=18)
    zg = ComplexGrid(-0.5, 0.5, -0.5, 0.5, 0.25)
    lhs = bargmann_transform(SampledFunction(g, 2.0 * f.values + 3j * h.values), zg)
    rhs = 2.0 * bargmann_transform(f, zg) + 3j * bargmann_transform(h, zg)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_bargmann_stft_bridge(setup):
    # |Bf(x+i xi)| e^{-pi |z|^2 / 2} = |V_g f(x, -xi)| at phase-space grid points
    g, w = setup
    f = shifted(gaussian_window(g), 0.25, 0.5)
    field = stft(f, w)
    zg = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.25)
    B = bargmann_transform(f, zg)
    dxi = g.dual().step[0]
    for ir, xv in enumerate(zg.re_points):
        for ii, xiv in enumerate(zg.im_points):
            jt = int(round(xv / g.step[0])) + 128
            jf = int(round(-xiv / dxi)) + 128
            lhs = abs(B[ir, ii]) * np.exp(-np.pi * (xv**2 + xiv**2) / 2)
            assert lhs == pytest.approx(abs(field[jt, jf]), abs=1e-6)


def test_bargmann_entirety(setup):
    # fourth-order central differences: |dbar B| / |d B| over the interior is
    # at the level of the stencil's truncation error for an analytic field
    g, w = setup
    f = shifted(w, 0.5, -0.5) + 0.5 * gaussian_window(g)
    zg = ComplexGrid(-1.0, 1.0, -1.0, 1.0, 0.02)
    B = bargmann_transform(f, zg)

    def diff4(axis):
        inner = [slice(2, -2)] * 2
        out = (-np.roll(B, -2, axis) + 8 * np.roll(B, -1, axis) - 8 * np.roll(B, 1, axis) + np.roll(B, 2, axis))
        return out[tuple(inner)] / (12 * zg.step)

    dx, dy = diff4(0), diff4(1)
    dbar = 0.5 * (dx + 1j * dy)
    dz = 0.5 * (dx - 1j * dy)
    assert np.linalg.norm(dbar) / np.linalg.norm(dz) < 1e-5


def test_complex_grid_step_must_tile_both_sides():
    for args in ((0.0, 1.0, 0.0, 0.7, 0.35), (0.0, 0.7, 0.0, 1.0, 0.35)):
        with pytest.raises(ValueError, match="does not tile"):
            ComplexGrid(*args)
    zg = ComplexGrid(-2.0, 2.0, -2.0, 2.0, 4 / 95)
    assert zg.re_points.size == zg.im_points.size == 96
    assert abs(zg.re_points[-1] - 2.0) < 1e-12


def test_bargmann_rejects_2d():
    g = GridSpec(2, 16, 1 / 4)
    with pytest.raises(ValueError):
        bargmann_transform(gaussian_window(g), ComplexGrid(-1, 1, -1, 1, 0.1))
