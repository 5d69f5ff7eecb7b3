"""Restriction operators L = P1 P2 P1, their spectra, and phase-space cutoffs.

Sets are centred at the origin.  Set membership follows the half-open
convention: a d=1 interval of halfwidth rho is [-rho, rho), which makes
traces of on-grid intervals exact count ratios.  d=2 sets are open balls;
only operator application is offered there, dense spectra stay
one-dimensional.

Spectra come from the |T| x |T| Toeplitz section of the restriction operator
(the periodic discrete-prolate matrix), and the phase-space cutoff A_R is an
assembled STFT-multiplier matrix; both are exact rewrites of the FFT-defined
operators, not approximations.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridMismatchError,
    GridSpec,
    PhasePoint,
    SampledFunction,
    _centered_fft,
    gaussian_window,
    snap_to_grid,
    tf_shift,
)

DENSE_LIMIT = 4096


def _ball_mask(grid: GridSpec, halfwidth: float) -> np.ndarray:
    if grid.dim == 1:
        points = grid.axis_points(0)
        return (points >= -halfwidth) & (points < halfwidth)
    return grid.radius_squared() < halfwidth**2


def _check_margin(grid: GridSpec, halfwidth: float, what: str) -> None:
    for ax in range(grid.dim):
        he = grid.half_extent(ax)
        if he - 4 * grid.step[ax] < halfwidth < he:
            raise ValueError(
                f"{what} set [{-halfwidth}, {halfwidth}) needs "
                f"4-sample margin inside [-{he}, {he}) or full coverage"
            )


@dataclass
class RestrictionSpec:
    """Origin-centred time interval/ball and frequency interval/ball cut out of a grid."""

    grid: GridSpec
    time_halfwidth: float
    freq_halfwidth: float

    def __post_init__(self):
        if self.time_halfwidth < 0 or self.freq_halfwidth < 0:
            raise ValueError("halfwidths must be nonnegative")
        _check_margin(self.grid, self.time_halfwidth, "time")
        _check_margin(self.grid.dual(), self.freq_halfwidth, "frequency")

    def time_mask(self) -> np.ndarray:
        return _ball_mask(self.grid, self.time_halfwidth)

    def freq_mask(self) -> np.ndarray:
        return _ball_mask(self.grid.dual(), self.freq_halfwidth)


class RestrictionOperator:
    """Self-adjoint PSD composition: time cut, frequency cut, time cut."""

    def __init__(self, spec: RestrictionSpec):
        self.spec = spec
        self._mt = spec.time_mask().astype(float)
        self._mf = spec.freq_mask().astype(float)
        self._support = np.flatnonzero(self._mt)
        self._sec: np.ndarray | None = None
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

    def _section(self) -> np.ndarray:
        """The |T| x |T| Hermitian Toeplitz block c[(j - j') mod N], T = supp(mt).

        The frequency cut is the circulant with kernel c = ifft(ifftshift(mf)),
        so the operator is that circulant compressed to T and zero elsewhere.
        """
        if self._sec is None:
            if self.grid.dim != 1:
                raise ValueError("dense assembly is one-dimensional")
            size = self._support.size
            if size > DENSE_LIMIT:
                raise ValueError(f"dense assembly capped at |T|={DENSE_LIMIT}, time set has {size}")
            c = np.fft.ifft(np.fft.ifftshift(self._mf))
            self._sec = c[np.subtract.outer(self._support, self._support) % self.grid.n[0]]
        return self._sec

    def trace(self) -> float:
        """|T| |Omega| / N^d: every diagonal entry of the section is c[0] = mean(mf)."""
        return self._support.size * int(np.count_nonzero(self._mf)) / self._mf.size

    def eigenvalues(self) -> np.ndarray:
        """All N eigenvalues, descending: the section's plus N - |T| zeros."""
        if self._eigs is None:
            lam = np.linalg.eigvalsh(self._section())
            # sorted, not concatenated: section eigenvalues can be -1e-17
            lam = np.concatenate([lam, np.zeros(self.grid.n[0] - lam.size)])
            self._eigs = np.sort(lam)[::-1].copy()
        return self._eigs


def plunge_count(op: RestrictionOperator) -> int:
    """Number of eigenvalues above 1/2, the Landau-type area count."""
    return int((op.eigenvalues() > 0.5).sum())


def cutoff_extent(grid: GridSpec) -> float:
    """Largest R for which the cube [-R, R]^{2d} fits the phase-space grid."""
    return min(g.half_extent(ax) for g in (grid, grid.dual()) for ax in range(grid.dim))


def _cutoff_matrix(grid: GridSpec, R: float, window: SampledFunction) -> np.ndarray:
    """Matrix of A_R = V* 1_Q V, Q the phase-space cube [-R, R]^{2d}."""
    from .stft import multiplier_matrix
    if window.grid != grid:
        raise GridMismatchError(f"grids differ: {grid} vs {window.grid}")
    extent = cutoff_extent(grid)
    if not 0 < R <= extent:
        raise ValueError(f"R={R} outside (0, {extent}] for this phase-space grid")
    mask = True
    for coords in grid.phase_mesh():
        mask = mask & (np.abs(coords) <= R)
    return multiplier_matrix(window, mask)


def localization_operator(f: SampledFunction, R: float, window: SampledFunction | None = None) -> SampledFunction:
    """A_R f: keep the STFT on the phase-space cube [-R, R]^{2d}, resynthesize."""
    if window is None:
        window = gaussian_window(f.grid)
    out = _cutoff_matrix(f.grid, R, window) @ f.values.ravel()
    return SampledFunction(f.grid, out.reshape(f.grid.shape))


@functools.lru_cache(maxsize=1)
def _weight_matrix(grid: GridSpec, sigma: float) -> np.ndarray:
    """Read-only STFT-multiplier matrix of the sigma-weighted modulation norm.

    ``improve`` runs one radius at a time with the same grid and sigma, so one
    entry spares a rebuild per radius and holds only the matrix a call needs.
    """
    from .localization import modulation_weight
    from .stft import multiplier_matrix
    weight = multiplier_matrix(gaussian_window(grid), modulation_weight(grid, sigma))
    weight.setflags(write=False)
    return weight


@dataclass
class ImproveResult:
    """Outcome of smoothing a system through the phase-space cutoff."""

    system: FunctionSystem
    modulation_errors: np.ndarray


def improve_system(system: FunctionSystem, R: float, sigma: float = 1.0) -> ImproveResult:
    """De-shift members to the origin, apply A_R, re-shift.

    Members are carried to phi_n = pi(a_n, b_n)^{-1} f_n, smoothed to
    psi_n = A_R phi_n, and returned as h_n = pi(a_n, b_n) psi_n under the
    original centers.  ``modulation_errors[n]`` is ||phi_n - psi_n|| in the
    sigma-weighted modulation norm.  A_R and the modulation weight are
    STFT-multiplier matrices applied to all members by matrix products; A_R
    is assembled once per call, the weight once per (grid, sigma) and reused
    by the next call with the same pair.
    """
    from .frames import FunctionSystem
    grid = system.grid
    # the weight first, so its float symbol is gone before the cutoff matrix exists
    weight = _weight_matrix(grid, sigma)
    cutoff = _cutoff_matrix(grid, R, gaussian_window(grid))
    phis = np.empty((len(system), cutoff.shape[0]), dtype=complex)
    centers = []
    for idx, (f, c) in enumerate(zip(system.members, system.centers)):
        snapped = snap_to_grid(grid, c)
        if max(abs(s - v) for s, v in zip(snapped.a + snapped.b, c.a + c.b)) > 1e-12:
            warnings.warn(f"center ({c.a}, {c.b}) snapped to the grid for member {idx}", stacklevel=2)
        centers.append(snapped)
        ab = sum(ai * bi for ai, bi in zip(snapped.a, snapped.b))
        back = PhasePoint(tuple(-v for v in snapped.a), tuple(-v for v in snapped.b))
        phis[idx] = (tf_shift(f, back) * np.exp(-2j * np.pi * ab)).values.ravel()
    psis = phis @ cutoff.T
    residual = phis - psis
    # squared M2_sigma norm of each residual row: cell_volume * Re(h* M_W h)
    quad = np.einsum("mt,mt->m", np.conj(residual), residual @ weight.T).real
    errors = np.sqrt(grid.cell_volume * quad)
    improved = [tf_shift(SampledFunction(grid, psi.reshape(grid.shape)), c) for psi, c in zip(psis, centers)]
    return ImproveResult(FunctionSystem(improved, centers), errors)
