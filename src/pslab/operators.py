"""Restriction operators L = P1 P2 P1, prolate systems, and phase-space cutoffs.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .frames import FunctionSystem
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
from .localization import modulation_weight
from .stft import multiplier_matrix

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
    """Top-k eigenpairs (L2-normalized) over the full eigenvalue profile.

    Eigenfunctions are the section's eigenvectors, zero-padded off T; for
    k > |T| the rest are unit samples off T, which the operator annihilates.
    """
    import scipy.linalg  # imported here: it costs every CLI start ~0.27 s and only this needs it

    if op.grid.dim != 1:
        raise ValueError("dense assembly is one-dimensional")
    n = op.grid.n[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    lam = op.eigenvalues()
    size = op._support.size
    top = min(k, size)
    vecs = np.zeros((n, k), dtype=complex)
    if top:
        _, sec = scipy.linalg.eigh(op._section(), subset_by_index=(size - top, size - 1))
        vecs[op._support, :top] = sec[:, ::-1]
    off = np.flatnonzero(op._mt == 0)[: k - top]
    vecs[off, top + np.arange(off.size)] = 1.0
    scale = 1.0 / math.sqrt(op.grid.cell_volume)
    funcs = [SampledFunction(op.grid, vecs[:, j] * scale) for j in range(k)]
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
    """pi(center) applied to a prolate tensor product on the doubled grid."""
    base_grid = base.eigenfunctions[0].grid
    if base_grid.dim != 1:
        raise ValueError("base spectrum must be one-dimensional")
    if center.dim != 2 or len(sigma) != 2:
        raise ValueError("tensor prolates are two-dimensional")
    if any(not 0 <= s < len(base.eigenfunctions) for s in sigma):
        raise ValueError(f"indices {sigma} outside the {len(base.eigenfunctions)} computed eigenfunctions")
    first, second = (base.eigenfunctions[s].values for s in sigma)
    origin = SampledFunction(GridSpec(2, base_grid.n[0], base_grid.step[0]), np.multiply.outer(first, second))
    return tf_shift(origin, center)


def cutoff_extent(grid: GridSpec) -> float:
    """Largest R for which the cube [-R, R]^{2d} fits the phase-space grid."""
    return min(g.half_extent(ax) for g in (grid, grid.dual()) for ax in range(grid.dim))


def _cutoff_matrix(grid: GridSpec, R: float, window: SampledFunction) -> np.ndarray:
    """Matrix of A_R = V* 1_Q V, Q the phase-space cube [-R, R]^{2d}."""
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
    assembled once as STFT-multiplier matrices and applied to all members by
    matrix products.
    """
    grid = system.grid
    gauss = gaussian_window(grid)
    cutoff = _cutoff_matrix(grid, R, gauss)
    weight = multiplier_matrix(gauss, modulation_weight(grid, sigma))
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
