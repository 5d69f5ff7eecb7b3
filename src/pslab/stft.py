"""Short-time Fourier transform, its adjoint, STFT multipliers, and the Bargmann transform.

The STFT is evaluated on the full phase-space grid: every time shift on the
sample grid crossed with every frequency on the dual grid.  At that
granularity analysis and synthesis are exact adjoints of each other and the
inversion ``V* V = I`` holds discretely for a unit-norm window, so the
tolerances downstream are rounding-level rather than discretization-level.
"""

from __future__ import annotations

import functools
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
    """V_w f(x_j, xi_k) = (f, pi(x_j, xi_k) w) on the full grid, pi(a, b) = :func:`~pslab.grid.tf_shift`.

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
    """Cell-measure-weighted superposition sum_jk F[j, k] pi(x_j, xi_k) w, pi(a, b) = :func:`~pslab.grid.tf_shift`."""
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


# Complex entries in each slab-sized temporary of multiplier_matrix: a slab is
# a block of time rows or lag columns of about this many entries, 0.5 MiB
# together with the index arrays and FFT copies that work on it.
_SLAB_ENTRIES = 1 << 13


def multiplier_matrix(window: SampledFunction, symbol) -> np.ndarray:
    """Matrix of the STFT multiplier V_w* diag(symbol) V_w on flattened samples.

    ``symbol`` broadcasts to the phase-space grid ``(time shift j, frequency
    k)``.  With P[u, l] = w[u] conj(w[u - l]) and K[j, l] = sum_k symbol[j, k]
    exp(2 pi i l.(k - n/2)/n), entry [t, t - l] is the circular convolution
    over j of P[., l] with K[., l], evaluated at t + n/2 and scaled by
    cell_volume/n^d.  That costs a few FFTs over the phase-space grid instead
    of one analysis and one synthesis per column.

    The n^d x n^d result is the only full-size array: K is built in it a few
    time rows at a time (rolled by n/2, so the convolution at t + n/2 lands
    on row t), each slab of lag columns is convolved over time and written
    back in lag layout [t, l], and each row is then flipped and rolled to
    [t, s].  The workspace is the result plus one slab of ``_SLAB_ENTRIES``.
    """
    _check_window(window)
    g = window.grid
    d = g.dim
    shape = g.shape + g.shape
    try:
        symbol = np.broadcast_to(symbol, shape)
    except ValueError:
        raise ValueError(f"symbol shape {np.shape(symbol)} does not broadcast to {shape}") from None
    size = math.prod(g.n)
    width = max(1, _SLAB_ENTRIES // size)
    slabs = [slice(lo, lo + width) for lo in range(0, size, width)]
    # per-axis index of every flattened time row or lag column
    flat = np.unravel_index(np.arange(size), g.shape)
    out = np.empty((size, size), dtype=np.complex128)
    for rows in slabs:
        shifted = tuple((i[rows] + n // 2) % n for i, n in zip(flat, g.n))
        out[rows] = np.fft.ifftn(symbol[shifted], axes=tuple(range(1, d + 1))).reshape(-1, size)
    # K is n^d ifftn(symbol) times (-1)^l and the sum is scaled by cell_volume/n^d: P carries the rest
    scale = (-1.0) ** sum(flat) * g.cell_volume
    time_axes = tuple(range(d))
    lag_layout = out.reshape(g.shape + (size,))
    pos = [np.arange(n).reshape((-1,) + (1,) * (d - ax)) for ax, n in enumerate(g.n)]
    for cols in slabs:
        pairs = np.conj(window.values[tuple((p - l[cols]) % n for p, l, n in zip(pos, flat, g.n))])
        pairs *= window.values[..., None]
        pairs *= scale[cols]
        conv = np.fft.fftn(pairs, axes=time_axes)
        del pairs
        conv *= np.fft.fftn(lag_layout[..., cols], axes=time_axes)
        lag_layout[..., cols] = np.fft.ifftn(conv, axes=time_axes)
    # row t holds entry [t, s] in lag column t - s; gather it back to column s
    for rows in slabs:
        lag = np.ravel_multi_index(tuple((t[rows, None] - t) % n for t, n in zip(flat, g.n)), g.shape)
        out[rows] = np.take_along_axis(out[rows], lag, axis=1)
    return out


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
        # a step that does not tile a side would put the last point past it
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            ratio = (hi - lo) / self.step
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ValueError(f"z-grid spacing {self.step} does not tile the side [{lo}, {hi}]")

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


@functools.lru_cache(maxsize=1)
def _bargmann_kernels(grid: GridSpec, z_grid: ComplexGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the Bargmann quadrature on one (time grid, z-grid) pair.

    exp(2 pi t (x + iy)) factors into the real growth table exp(2 pi t x) and
    the modulation table exp(2 pi i t y); the prefactor is 2^(1/4) e^{-pi z^2/2}.
    Callers transform one function at a time on the same grids, so one entry
    keeps the tables across calls and holds no more than a call allocates.
    """
    t = grid.axis_points()
    growth = np.exp(2.0 * np.pi * np.outer(t, z_grid.re_points))
    modulation = np.exp(2.0j * np.pi * np.outer(t, z_grid.im_points))
    z = z_grid.mesh()
    prefactor = 2.0 ** 0.25 * np.exp(-np.pi * z * z / 2.0)
    for table in (growth, modulation, prefactor):
        table.setflags(write=False)
    return growth, modulation, prefactor


def bargmann_transform(f: SampledFunction, z_grid: ComplexGrid) -> np.ndarray:
    """Evaluate 2^(1/4) exp(-pi z^2/2) int f(t) exp(-pi t^2) exp(2 pi t z) dt.

    Direct quadrature over the time grid (the kernel exp(2 pi t z) is not a
    modulation at complex z, so there is no FFT shortcut); the t-integrand
    decays like a Gaussian so the Riemann sum converges spectrally.  The
    exponential tables depend only on the grid and the z-grid and are built
    once per pair; a call weights the modulation table by f(t) e^{-pi t^2} dt
    and contracts it with the real growth table in one real matrix product.
    """
    if f.grid.dim != 1:
        raise ValueError("bargmann_transform is implemented for dim 1 only")
    growth, modulation, prefactor = _bargmann_kernels(f.grid, z_grid)
    t = f.grid.axis_points()
    weights = f.values * np.exp(-np.pi * t * t) * f.grid.cell_volume
    rhs = weights[:, None] * modulation
    # a real matrix times a complex one is a real product over the (re, im) float pairs
    return prefactor * (growth.T @ rhs.view(np.float64)).view(np.complex128)

