"""Restriction operators L = P1 P2 P1, their spectra, and phase-space cutoffs.

Sets are centred at the origin.  Set membership follows the half-open
convention: a d=1 interval of halfwidth rho is [-rho, rho), which makes
traces of on-grid intervals exact count ratios.  d=2 sets are open balls;
only operator application is offered there, dense spectra stay
one-dimensional.

Spectra come from the |T| x |T| Toeplitz section of the restriction operator
(the periodic discrete-prolate matrix), and the phase-space cutoff A_R is
applied axis by axis through its 1-D STFT-multiplier factors; both are exact
rewrites of the FFT-defined operators, not approximations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import GridSpec, SampledFunction, _centered_fft, gaussian_window, snap_to_grid, tf_shift


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
        if self.grid.dim != 1:
            raise ValueError("dense assembly is one-dimensional")
        c = np.fft.ifft(np.fft.ifftshift(self._mf))
        return c[np.subtract.outer(self._support, self._support) % self.grid.n[0]]

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
            self._eigs.setflags(write=False)  # shared by every caller: a write would corrupt the cache
        return self._eigs


def plunge_count(op: RestrictionOperator) -> int:
    """Number of eigenvalues above 1/2, the Landau-type area count."""
    return int((op.eigenvalues() > 0.5).sum())


def cutoff_extent(grid: GridSpec) -> float:
    """Largest R for which the cube [-R, R]^{2d} fits the phase-space grid."""
    return min(g.half_extent(ax) for g in (grid, grid.dual()) for ax in range(grid.dim))


def _apply_cutoff(values: np.ndarray, grid: GridSpec, R: float) -> np.ndarray:
    """A_R = V* 1_Q V on the trailing grid axes of ``values``, Q = [-R, R]^{2d}.

    The cube and the Gaussian window factor over the axes, so A_R is the
    Kronecker product of the 1-D cutoffs on GridSpec(1, n, dx), one per axis.
    """
    from .stft import multiplier_matrix
    extent = cutoff_extent(grid)
    if not 0 < R <= extent:
        raise ValueError(f"R={R} outside (0, {extent}] for this phase-space grid")
    for ax in range(grid.dim):
        line = GridSpec(1, grid.n[ax], grid.step[ax])
        keep = [np.abs(g.axis_points()) <= R for g in (line, line.dual())]
        factor = multiplier_matrix(gaussian_window(line), keep[0][:, None] & keep[1])
        # factor @ acts along axis -2, the first axis of a 2-D grid; @ factor.T along the last
        values = values @ factor.T if ax == grid.dim - 1 else factor @ values
    return values


def localization_operator(f: SampledFunction, R: float) -> SampledFunction:
    """A_R f: keep the Gaussian-window STFT on the phase-space cube [-R, R]^{2d}, resynthesize."""
    return SampledFunction(f.grid, _apply_cutoff(f.values, f.grid, R))


def improve_system(
    members: np.ndarray, centers: np.ndarray, grid: GridSpec, radii: Sequence[float], sigma: float = 1.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """De-shift members to the origin, apply A_R for each radius R, re-shift.

    ``members`` stacks M functions on ``grid`` and ``centers`` holds their
    (M, 2d) phase-space centers (a, b).  Members are carried once to
    phi_n = pi(a_n, b_n)^{-1} f_n, smoothed to psi_n = A_R phi_n, and returned
    as h_n = pi(a_n, b_n) psi_n, one (h, modulation errors) pair per radius in
    order.  ``modulation errors[n]`` is ||phi_n - psi_n|| in the sigma-weighted
    modulation norm.  Every radius is smoothed first; then the weight, an
    STFT-multiplier matrix and the only n^d x n^d one, is built once and
    applied to all residuals by matrix products.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    from .frames import _stack_size
    from .localization import modulation_weight
    from .stft import multiplier_matrix
    M, d = _stack_size(members, grid), grid.dim
    if centers.shape != (M, 2 * d):
        raise ValueError(f"centers of shape {centers.shape} do not label {M} members on a {d}-D grid")
    snapped = snap_to_grid(grid, centers)
    for idx in np.flatnonzero(np.abs(snapped - centers).max(axis=1) > 1e-12):
        warnings.warn(f"center {centers[idx]} snapped to the grid for member {idx}", stacklevel=2)
    # pi(a, b)^{-1} = exp(-2 pi i a.b) pi(-a, -b)
    phis = tf_shift(members, grid, -snapped)
    phis *= np.exp(-2j * np.pi * (snapped[:, :d] * snapped[:, d:]).sum(axis=1)).reshape((M,) + (1,) * d)
    smoothed = [_apply_cutoff(phis, grid, R) for R in radii]
    weight = multiplier_matrix(gaussian_window(grid), modulation_weight(grid, sigma))
    results = []
    while smoothed:
        # popped, so each smoothed stack is freed once its re-shifted copy is made
        psis = smoothed.pop(0)
        residual = (phis - psis).reshape(M, -1)
        # squared M2_sigma norm of each residual row: cell_volume * Re(h* M_W h)
        quad = np.einsum("mt,mt->m", np.conj(residual), residual @ weight.T).real
        results.append((tf_shift(psis, grid, snapped), np.sqrt(grid.cell_volume * quad)))
    return results
