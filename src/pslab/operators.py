"""Restriction operators L = P1 P2 P1, prolate systems, and phase-space cutoffs.

Set membership follows the half-open convention: a d=1 interval of halfwidth
rho around c is [c - rho, c + rho), which makes traces of on-grid intervals
exact count ratios.  d=2 sets are open balls; only operator application is
offered there, dense spectra stay one-dimensional.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._csvio import _write_csv
from .frames import FunctionSystem
from .grid import (
    GridSpec,
    PhasePoint,
    SampledFunction,
    _centered_fft,
    gaussian_window,
    snap_to_grid,
    tf_shift,
)
from .localization import modulation_norm
from .stft import StftField, adjoint_stft, stft

DENSE_LIMIT = 4096


def _center_tuple(value, dim: int) -> tuple[float, ...]:
    if value == ():
        return (0.0,) * dim
    if np.isscalar(value):
        return (float(value),) * dim
    out = tuple(float(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"center needs {dim} components, got {len(out)}")
    return out


def _axis_mask(points: np.ndarray, center: float, halfwidth: float) -> np.ndarray:
    return (points >= center - halfwidth) & (points < center + halfwidth)


def _ball_mask(grid: GridSpec, center, halfwidth: float) -> np.ndarray:
    if grid.dim == 1:
        return _axis_mask(grid.axis_points(0), center[0], halfwidth)
    rsq = np.zeros(grid.shape)
    for ax, coords in enumerate(grid.mesh()):
        rsq = rsq + (coords - center[ax]) ** 2
    return rsq < halfwidth**2


def _check_margin(grid: GridSpec, center, halfwidth: float, what: str) -> None:
    for ax in range(grid.dim):
        he = grid.half_extent(ax)
        margin = 4 * grid.step[ax]
        full = center[ax] - halfwidth <= -he and center[ax] + halfwidth >= he
        if full:
            continue
        if center[ax] + halfwidth > he - margin or center[ax] - halfwidth < -(he - margin):
            raise ValueError(
                f"{what} set [{center[ax] - halfwidth}, {center[ax] + halfwidth}) needs "
                f"4-sample margin inside [-{he}, {he}) or full coverage"
            )


@dataclass
class RestrictionSpec:
    """Time interval/ball and frequency interval/ball cut out of a grid."""

    grid: GridSpec
    time_halfwidth: float
    freq_halfwidth: float
    time_center: tuple[float, ...] = ()
    freq_center: tuple[float, ...] = ()

    def __post_init__(self):
        if self.time_halfwidth < 0 or self.freq_halfwidth < 0:
            raise ValueError("halfwidths must be nonnegative")
        self.time_center = _center_tuple(self.time_center, self.grid.dim)
        self.freq_center = _center_tuple(self.freq_center, self.grid.dim)
        _check_margin(self.grid, self.time_center, self.time_halfwidth, "time")
        _check_margin(self.grid.dual(), self.freq_center, self.freq_halfwidth, "frequency")

    def time_mask(self) -> np.ndarray:
        return _ball_mask(self.grid, self.time_center, self.time_halfwidth)

    def freq_mask(self) -> np.ndarray:
        return _ball_mask(self.grid.dual(), self.freq_center, self.freq_halfwidth)


class RestrictionOperator:
    """Self-adjoint PSD composition: time cut, frequency cut, time cut."""

    def __init__(self, spec: RestrictionSpec):
        self.spec = spec
        self._mt = spec.time_mask().astype(float)
        self._mf = spec.freq_mask().astype(float)
        self._matrix: np.ndarray | None = None
        self._eigs: np.ndarray | None = None

    @property
    def grid(self) -> GridSpec:
        return self.spec.grid

    def apply(self, f: SampledFunction) -> SampledFunction:
        if f.grid != self.grid:
            raise ValueError("function grid does not match the operator grid")
        axes = tuple(range(self.grid.dim))
        cut = self._mt * f.values
        hat = _centered_fft(cut, axes, inverse=False)
        back = _centered_fft(self._mf * hat, axes, inverse=True)
        return SampledFunction(self.grid, self._mt * back)

    def matrix(self) -> np.ndarray:
        """Dense Hermitian form, assembled column-block by column-block."""
        if self._matrix is not None:
            return self._matrix
        if self.grid.dim != 1:
            raise ValueError("dense assembly is one-dimensional")
        n = self.grid.n[0]
        if n > DENSE_LIMIT:
            raise ValueError(f"dense assembly capped at N={DENSE_LIMIT}, grid has {n}")
        out = np.empty((n, n), dtype=complex)
        for start in range(0, n, 512):
            block = np.zeros((n, min(512, n - start)), dtype=complex)
            cols = np.arange(block.shape[1])
            block[start + cols, cols] = self._mt[start + cols]
            hat = _centered_fft(block, (0,), inverse=False)
            back = _centered_fft(self._mf[:, None] * hat, (0,), inverse=True)
            out[:, start : start + block.shape[1]] = self._mt[:, None] * back
        self._matrix = 0.5 * (out + np.conj(out).T)
        return self._matrix

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix())))

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, descending."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.matrix())[::-1].copy()
        return self._eigs


@dataclass
class OperatorSpectrum:
    """Full eigenvalue profile plus the leading eigenfunctions."""

    eigenvalues: np.ndarray
    eigenfunctions: list[SampledFunction]
    trace: float

    def __post_init__(self):
        lam = self.eigenvalues
        if (np.diff(lam) > 0).any():
            raise ValueError("eigenvalues must be descending")
        if lam.min() < -1e-10 or lam.max() > 1 + 1e-10:
            raise ValueError(f"eigenvalues outside [0, 1] band: [{lam.min()}, {lam.max()}]")
        if abs(self.trace - lam.sum()) > 1e-8:
            raise ValueError("trace must equal the eigenvalue sum")


def spectrum(op: RestrictionOperator, k: int) -> OperatorSpectrum:
    """Top-k eigenpairs (L2-normalized) over the full eigenvalue profile."""
    n = op.grid.n[0] if op.grid.dim == 1 else -1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    lam = op.eigenvalues()
    _, vecs = scipy.linalg.eigh(op.matrix(), subset_by_index=(n - k, n - 1))
    scale = 1.0 / math.sqrt(op.grid.cell_volume)
    funcs = [SampledFunction(op.grid, vecs[:, k - 1 - j] * scale) for j in range(k)]
    return OperatorSpectrum(lam, funcs, float(lam.sum()))


def plunge_count(op: RestrictionOperator) -> int:
    """Number of eigenvalues above 1/2, the Landau-type area count."""
    return int((op.eigenvalues() > 0.5).sum())


def prolate_count(R: float, eps: float, delta: float, grid: GridSpec) -> int:
    """Eigenvalues >= 1 - eps^2 of the [-(R - R^delta), R - R^delta]^2 cutoff."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    rho = R - R**delta
    if rho <= 0:
        raise ValueError(f"R - R^delta = {rho} is not positive")
    op = RestrictionOperator(RestrictionSpec(grid, rho, rho))
    return int((op.eigenvalues() >= 1 - eps**2).sum())


def tensor_prolate_system(sigma: tuple[int, int], center: PhasePoint, base: OperatorSpectrum) -> SampledFunction:
    """Modulated translate of a prolate tensor product on the doubled grid."""
    base_grid = base.eigenfunctions[0].grid
    if base_grid.dim != 1:
        raise ValueError("base spectrum must be one-dimensional")
    if center.dim != 2 or len(sigma) != 2:
        raise ValueError("tensor prolates are two-dimensional")
    if any(not 0 <= s < len(base.eigenfunctions) for s in sigma):
        raise ValueError(f"indices {sigma} outside the {len(base.eigenfunctions)} computed eigenfunctions")
    step = base_grid.step[0]
    grid2 = GridSpec(2, base_grid.n[0], step)
    factors = []
    for j in range(2):
        ratio = center.a[j] / step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(f"translation {center.a[j]} is not a grid multiple of {step}")
        phi = np.roll(base.eigenfunctions[sigma[j]].values, round(ratio))
        x = base_grid.axis_points(0)
        factors.append(np.exp(-2j * np.pi * center.b[j] * x) * phi)
    return SampledFunction(grid2, np.multiply.outer(factors[0], factors[1]))


def localization_operator(f: SampledFunction, R: float, window: SampledFunction | None = None) -> SampledFunction:
    """A_R f: keep the STFT on the phase-space cube [-R, R]^{2d}, resynthesize."""
    if window is None:
        window = gaussian_window(f.grid)
    dual = f.grid.dual()
    extents = [f.grid.half_extent(ax) for ax in range(f.grid.dim)]
    extents += [dual.half_extent(ax) for ax in range(dual.dim)]
    if not 0 < R <= min(extents):
        raise ValueError(f"R={R} outside (0, {min(extents)}] for this phase-space grid")
    field = stft(f, window)
    mask = np.ones(field.values.shape, dtype=bool)
    for ax in range(f.grid.dim):
        pts = f.grid.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (2 * f.grid.dim - ax - 1))
    for ax in range(f.grid.dim):
        pts = dual.axis_points(ax)
        mask &= (np.abs(pts) <= R).reshape((-1,) + (1,) * (f.grid.dim - ax - 1))
    cut = StftField(field.grid, np.where(mask, field.values, 0.0))
    return adjoint_stft(cut, window)


@dataclass
class ImproveResult:
    """Outcome of smoothing a system through the phase-space cutoff."""

    system: FunctionSystem
    modulation_errors: np.ndarray
    sigma: float


def improve_system(
    system: FunctionSystem,
    R: float,
    sigma: float = 1.0,
    window: SampledFunction | None = None,
) -> ImproveResult:
    """De-shift members to the origin, apply A_R, re-shift.

    Members are carried to phi_n = pi(a_n, b_n)^{-1} f_n, smoothed to
    psi_n = A_R phi_n, and returned as h_n = pi(a_n, b_n) psi_n under the
    original centers.  ``modulation_errors[n]`` is ||phi_n - psi_n|| in the
    sigma-weighted modulation norm.
    """
    grid = system.grid
    improved = []
    errors = np.empty(len(system))
    centers = []
    for idx, (f, c) in enumerate(zip(system.members, system.centers)):
        snapped = snap_to_grid(grid, c)
        if max(abs(s - v) for s, v in zip(snapped.a + snapped.b, c.a + c.b)) > 1e-12:
            warnings.warn(f"center ({c.a}, {c.b}) snapped to the grid for member {idx}", stacklevel=2)
        centers.append(snapped)
        ab = sum(ai * bi for ai, bi in zip(snapped.a, snapped.b))
        back = PhasePoint(tuple(-v for v in snapped.a), tuple(-v for v in snapped.b))
        phi = tf_shift(f, back) * np.exp(-2j * np.pi * ab)
        psi = localization_operator(phi, R, window)
        errors[idx] = modulation_norm(phi - psi, sigma)
        improved.append(tf_shift(psi, snapped))
    out = FunctionSystem(improved, centers, system.label + "-improved")
    return ImproveResult(out, errors, sigma)


def save_spectrum_csv(path, spec_result: OperatorSpectrum, comments=()) -> None:
    """Eigenvalues as CSV rows index,eigenvalue with #-comment provenance."""
    rows = [f"{i},{float(lam)!r}" for i, lam in enumerate(spec_result.eigenvalues)]
    _write_csv(path, "index,eigenvalue", rows, comments)
