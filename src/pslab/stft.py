"""Short-time Fourier transform, its adjoint, STFT multipliers, and the Bargmann transform.

The STFT is evaluated on the full phase-space grid: every time shift on the
sample grid crossed with every frequency on the dual grid.  At that
granularity analysis and synthesis are exact adjoints of each other and the
inversion ``V* V = I`` holds discretely for a unit-norm window, so the
tolerances downstream are rounding-level rather than discretization-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    SampledFunction,
    _centered_fft,
    _require_same_grid,
)


@dataclass
class StftField:
    """Samples of V_g f on the (time grid) x (dual grid) phase-space lattice.

    ``values[j..., k...]`` is the coefficient at time shift ``x_j`` and
    frequency ``xi_k``; the phase-space cell measure is ``prod(step) *
    prod(dual step)``.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        expected = self.grid.shape + self.grid.dual().shape
        if values.shape != expected:
            raise ValueError(f"field shape {values.shape} does not match phase-space grid {expected}")
        self.values = values

    @property
    def cell_measure(self) -> float:
        return self.grid.cell_volume * self.grid.dual().cell_volume

    def norm(self) -> float:
        """L2 norm over phase space with the cell measure."""
        return math.sqrt(self.cell_measure * float(np.sum(np.abs(self.values) ** 2)))


def _check_window(window: SampledFunction) -> None:
    wnorm = window.norm()
    if not (1e-6 <= wnorm <= 1e6):
        raise ValueError(f"window norm {wnorm:g} outside [1e-6, 1e6]")


def _shifted_windows(grid: GridSpec, values: np.ndarray):
    """Yield ``(lead, bank)`` with bank[j, t...] = values[(t - s) mod n], s = (lead, j) - n // 2.

    ``lead`` runs over the time shifts of all axes but the last.  The shifts
    along the last axis are gathered once and tiled twice along each leading
    axis, so every ``bank`` is a view; d = 1 has a single lead.
    """
    n = grid.n[-1]
    shifts = np.arange(n)[:, None] - n // 2
    bank = np.moveaxis(np.take(values, (np.arange(n) - shifts) % n, axis=-1), -2, 0)
    for ax in range(1, grid.dim):
        bank = np.concatenate([bank, bank], axis=ax)
    for lead in np.ndindex(grid.shape[:-1]):
        # a cyclic roll by s along an axis of length m is the slice [m - s mod m, +m) of the tiling
        start = [m - (j - m // 2) % m for j, m in zip(lead, grid.n)]
        yield lead, bank[(slice(None),) + tuple(slice(a, a + m) for a, m in zip(start, grid.n))]


def stft(f: SampledFunction, window: SampledFunction) -> StftField:
    """V_w f(x_j, xi_k) = (f, tf_shift(window, (x_j, xi_k))) on the full grid.

    Computed as one FFT per time shift: the k-block at shift x_j is the
    forward transform of f * conj(window(. - x_j)).
    """
    _require_same_grid(f, window)
    _check_window(window)
    g = f.grid
    axes = tuple(range(1, g.dim + 1))
    out = np.empty(g.shape + g.shape, dtype=np.complex128)
    for lead, bank in _shifted_windows(g, np.conj(window.values)):
        block = np.multiply(f.values, bank, out=out[lead])
        np.multiply(_centered_fft(block, axes=axes), g.cell_volume, out=block)
    return StftField(g, out)


def adjoint_stft(field: StftField, window: SampledFunction) -> SampledFunction:
    """Cell-measure-weighted superposition sum_jk F[j,k] tf_shift(window,(x_j,xi_k))."""
    if field.grid != window.grid:
        raise ValueError("field phase-space grid does not match the window grid")
    _check_window(window)
    g = window.grid
    axes = tuple(range(1, g.dim + 1))
    out = np.zeros(g.shape, dtype=np.complex128)
    for lead, bank in _shifted_windows(g, window.values):
        # rows[j, t] = sum_k F[lead, j, k] exp(2 pi i x_t.xi_k)
        rows = _centered_fft(field.values[lead], axes=axes, inverse=True)
        rows *= math.prod(g.n)
        out += np.einsum("j...,j...->...", rows, bank)
    return SampledFunction(g, out * field.cell_measure)


def multiplier_matrix(window: SampledFunction, symbol) -> np.ndarray:
    """Matrix of the STFT multiplier V_w* diag(symbol) V_w on flattened samples.

    ``symbol`` broadcasts to the phase-space grid ``(time shift j, frequency
    k)``.  With P[u, l] = w[u] conj(w[u - l]) and K[j, l] = sum_k symbol[j, k]
    exp(2 pi i l.(k - n/2)/n), entry [t, t - l] is the circular convolution
    over j of P[., l] with K[., l], evaluated at t + n/2 and scaled by
    cell_volume/n^d.  That costs a few FFTs over the phase-space grid instead
    of one analysis and one synthesis per column; the result is n^d x n^d,
    the size of one STFT field.
    """
    _check_window(window)
    g = window.grid
    d = g.dim
    shape = g.shape + g.shape
    try:
        symbol = np.broadcast_to(symbol, shape)
    except ValueError:
        raise ValueError(f"symbol shape {np.shape(symbol)} does not broadcast to {shape}") from None
    time_axes = tuple(range(d))
    lag_axes = tuple(range(d, 2 * d))
    # per-axis indices over the (time, lag) grid, and u - l mod n on each axis
    pos = [np.arange(n).reshape((-1,) + (1,) * (2 * d - ax - 1)) for ax, n in enumerate(g.n)]
    lag = [np.arange(n).reshape((-1,) + (1,) * (d - ax - 1)) for ax, n in enumerate(g.n)]
    diff = tuple((p - q) % n for p, q, n in zip(pos, lag, g.n))
    pairs = window.values.reshape(g.shape + (1,) * d) * np.conj(window.values[diff])
    size = math.prod(g.n)
    kernel = np.fft.ifftn(symbol, axes=lag_axes) * size
    kernel *= (-1.0) ** sum(lag)
    conv = np.fft.fftn(pairs, axes=time_axes) * np.fft.fftn(kernel, axes=time_axes)
    del pairs, kernel
    conv = np.fft.ifftn(conv, axes=time_axes)
    centered = tuple((p + n // 2) % n for p, n in zip(pos, g.n))
    return conv[centered + diff].reshape(size, size) * (g.cell_volume / size)


@dataclass(frozen=True)
class ComplexGrid:
    """A rectangle in the complex plane sampled with a common spacing."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    step: float

    def __post_init__(self):
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("empty complex rectangle")
        if not (self.step > 0):
            raise ValueError("z-grid spacing must be positive")

    @property
    def re_points(self) -> np.ndarray:
        count = int(round((self.re_max - self.re_min) / self.step)) + 1
        return self.re_min + self.step * np.arange(count)

    @property
    def im_points(self) -> np.ndarray:
        count = int(round((self.im_max - self.im_min) / self.step)) + 1
        return self.im_min + self.step * np.arange(count)

    def mesh(self) -> np.ndarray:
        return self.re_points[:, None] + 1j * self.im_points[None, :]


def bargmann_transform(f: SampledFunction, z_grid: ComplexGrid) -> np.ndarray:
    """Evaluate 2^(1/4) exp(-pi z^2/2) int f(t) exp(-pi t^2) exp(2 pi t z) dt.

    Direct quadrature over the time grid (the kernel exp(2 pi t z) is not a
    modulation at complex z, so there is no FFT shortcut); the t-integrand
    decays like a Gaussian so the Riemann sum converges spectrally.
    """
    if f.grid.dim != 1:
        raise ValueError("bargmann_transform is implemented for dim 1 only")
    t = f.grid.axis_points()
    weights = f.values * np.exp(-np.pi * t * t) * f.grid.cell_volume
    # exp(2 pi t (x + iy)) factors into a growth and a modulation part, so the
    # sum over t at every z is one complex matmul
    growth = np.exp(2.0 * np.pi * np.outer(t, z_grid.re_points)) * weights[:, None]
    modulation = np.exp(2.0j * np.pi * np.outer(t, z_grid.im_points))
    z = z_grid.mesh()
    return 2.0 ** 0.25 * np.exp(-np.pi * z * z / 2.0) * (growth.T @ modulation)


def cauchy_riemann_residual(values: np.ndarray, step: float) -> float:
    """Relative size of the discrete dbar derivative of a complex field.

    Fourth-order central differences along both axes; returns
    ``||dbar F|| / ||d F||`` over the interior.  Small values certify that the
    field is (a sampling of) an analytic function.
    """
    if values.shape[0] < 5 or values.shape[1] < 5:
        raise ValueError("need at least 5 points per axis for the stencil")

    def diff4(a, axis):
        s = [slice(2, -2)] * a.ndim
        up1 = np.roll(a, -1, axis)
        dn1 = np.roll(a, 1, axis)
        up2 = np.roll(a, -2, axis)
        dn2 = np.roll(a, 2, axis)
        out = (-up2 + 8 * up1 - 8 * dn1 + dn2) / (12 * step)
        return out[tuple(s)]

    dx = diff4(values, 0)
    dy = diff4(values, 1)
    dbar = 0.5 * (dx + 1j * dy)
    dz = 0.5 * (dx - 1j * dy)
    denom = float(np.linalg.norm(dz))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(dbar)) / denom
