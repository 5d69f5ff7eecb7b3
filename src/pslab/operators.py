"""Restriction operators L = P_T P_Omega P_T, their spectra, and phase-space cutoffs.

A restriction operator is given by its grid and two halfwidths: the time
set T = [-rho_t, rho_t) on a one-dimensional grid and the frequency set
Omega = [-rho_f, rho_f) on its dual, each a range of sample indices, so
traces are exact count ratios and only the oracle masks span the grid.

Spectra come from the |T| x |T| Toeplitz section of the restriction operator
(the periodic discrete-prolate matrix, with a closed-form Dirichlet kernel),
and the phase-space cutoff A_R is applied axis by axis through its real 1-D
STFT-multiplier factors, each in closed form; both are exact rewrites of the
FFT-defined operators, not approximations.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .grid import GridSpec, SampledFunction, _centered_fft, gaussian_window, snap_to_grid, tf_shift


def _first_index_at_least(n: int, step: float, x: float) -> int:
    """The first index j in [0, n) with (j - n//2) step >= x, or n if there is none.

    This is the float test the masks make.  It is monotone in j, so stepping
    from the estimate x / step tests only the samples next to the boundary.
    """
    j = math.ceil(min(max(x / step, -(n // 2)), n - n // 2)) + n // 2
    while j > 0 and (j - 1 - n // 2) * step >= x:
        j -= 1
    while j < n and (j - n // 2) * step < x:
        j += 1
    return j


def _index_ranges(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> list[tuple[int, int]]:
    """The sample ranges [lo, hi) of T on ``grid`` and of Omega on its dual.

    Each set must leave a 4-sample margin inside its periodic box or cover it.
    """
    if grid.dim != 1:
        raise ValueError("restriction operators run on one-dimensional grids")
    ranges = []
    for g, rho, what in ((grid, time_halfwidth, "time"), (grid.dual(), freq_halfwidth, "frequency")):
        if not rho >= 0:  # also refuses NaN, which would give an empty set
            raise ValueError("halfwidths must be nonnegative")
        he = g.half_extent()
        if he - 4 * g.step[0] < rho < he:
            raise ValueError(
                f"{what} set [{-rho}, {rho}) needs 4-sample margin inside [-{he}, {he}) or full coverage"
            )
        ranges.append(tuple(_first_index_at_least(g.n[0], g.step[0], x) for x in (-rho, rho)))
    return ranges


def restriction_masks(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> list[np.ndarray]:
    """The time mask of T on ``grid`` and the frequency mask of Omega on its dual."""
    ranges, j = _index_ranges(grid, time_halfwidth, freq_halfwidth), np.arange(grid.n[0])
    return [(j >= lo) & (j < hi) for lo, hi in ranges]


def apply_restriction(values: np.ndarray, grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> np.ndarray:
    """P_T P_Omega P_T applied to samples on ``grid``: the FFT definition."""
    if values.shape != grid.shape:
        raise ValueError(f"values of shape {values.shape} do not match the grid shape {grid.shape}")
    mt, mf = restriction_masks(grid, time_halfwidth, freq_halfwidth)
    hat = _centered_fft(mt * values, (0,), inverse=False)
    return mt * _centered_fft(mf * hat, (0,), inverse=True)


def restriction_section(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> np.ndarray:
    """The |T| x |T| Hermitian Toeplitz block c[j - j'] on the samples j, j' in T.

    c = ifft(ifftshift(mf)) sums e^{2 pi i k m / N} over Omega's integer frequencies f0 <= k < f0 + K:
    c[m] = e^{i pi (2 f0 + K - 1) m / N} sin(pi K m / N) / (N sin(pi m / N)) and c[0] = K / N.
    """
    n = grid.n[0]
    (t0, t1), (f0, f1) = _index_ranges(grid, time_halfwidth, freq_halfwidth)
    size, K, f0 = t1 - t0, f1 - f0, f0 - n // 2
    # angles pi p / N, each product reduced mod 2N, its factor's period, while exact; min(m, N - m) keeps sin off pi
    turns = [[(2 * f0 + K - 1) * m % (2 * n) / n, K * m % (2 * n) / n, min(m, n - m) / n] for m in range(1, size)]
    phase, numer, denom = np.pi * np.array(turns).reshape(-1, 3).T
    c = np.exp(1j * phase) * np.sin(numer) / (n * np.sin(denom))
    kernel = np.concatenate([c[::-1].conj(), [K / n], c])
    return kernel[np.subtract.outer(np.arange(size), np.arange(size)) + size - 1]


def restriction_trace(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> float:
    """|T| |Omega| / N: every diagonal entry of the section is c[0] = K / N."""
    (t0, t1), (f0, f1) = _index_ranges(grid, time_halfwidth, freq_halfwidth)
    return (t1 - t0) * (f1 - f0) / grid.n[0]


def restriction_spectrum(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> np.ndarray:
    """The section's |T| eigenvalues, descending; the operator's other N - |T| are exactly 0."""
    return np.linalg.eigvalsh(restriction_section(grid, time_halfwidth, freq_halfwidth))[::-1]


def plunge_count(grid: GridSpec, time_halfwidth: float, freq_halfwidth: float) -> int:
    """Number of eigenvalues above 1/2, the Landau-type area count."""
    return int((restriction_spectrum(grid, time_halfwidth, freq_halfwidth) > 0.5).sum())


def cutoff_extent(grid: GridSpec) -> float:
    """Largest R for which the cube [-R, R]^{2d} fits the phase-space grid."""
    return min(g.half_extent(ax) for g in (grid, grid.dual()) for ax in range(grid.dim))


def _cutoff_factor(line: GridSpec, R: float) -> np.ndarray:
    """The real n x n matrix of the 1-D cutoff A_R on ``line``, in closed form.

    A_R[t, s] = dx beta[(t - s) mod n] sum_{|x_j| <= R} w[(t - s_j) mod n] w[(s - s_j) mod n]
    over the time shifts s_j = j - n/2, w the real Gaussian window and beta =
    ifft(ifftshift(1_{|xi| <= R})) the kernel of the frequency band.  beta is
    real: the band is symmetric, and its unpaired -n/2 edge adds (-1)^l / n.
    """
    n, dx = line.n[0], line.step[0]
    keep_t, keep_f = (np.abs(g.axis_points()) <= R for g in (line, line.dual()))
    beta = np.fft.ifft(np.fft.ifftshift(keep_f)).real
    w = gaussian_window(line).values.real
    # bank[j, t] = w[(t - s_j) mod n] on the kept shifts
    bank = w[(np.arange(n) - (np.flatnonzero(keep_t) - n // 2)[:, None]) % n]
    factor = bank.T @ bank
    # beta[(t - s) mod n] = [beta[1:], beta][t - s + n - 1], a strided view read backwards along s
    factor *= np.lib.stride_tricks.sliding_window_view(np.concatenate([beta[1:], beta]), n)[:, ::-1]
    factor *= dx
    return factor


def _apply_cutoff(values: np.ndarray, grid: GridSpec, R: float) -> np.ndarray:
    """A_R = V* 1_Q V on the trailing grid axes of ``values``, Q = [-R, R]^{2d}.

    The cube and the Gaussian window factor over the axes, so A_R is the
    Kronecker product of the real 1-D cutoffs on GridSpec(1, n, dx), one per
    axis, each applied to the real and imaginary parts of ``values`` apart.
    """
    extent = cutoff_extent(grid)
    if not 0 < R <= extent:
        raise ValueError(f"R={R} outside (0, {extent}] for this phase-space grid")
    parts = [np.ascontiguousarray(values.real), np.ascontiguousarray(values.imag)]
    for ax in range(grid.dim):
        factor = _cutoff_factor(GridSpec(1, grid.n[ax], grid.step[ax]), R)
        # factor @ acts along axis -2, the first axis of a 2-D grid; @ factor.T along the last
        parts = [p @ factor.T if ax == grid.dim - 1 else factor @ p for p in parts]
    out = np.empty(parts[0].shape, dtype=complex)
    out.real, out.imag = parts
    return out


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
    modulation norm.  Every radius is smoothed first; then the weight, a real
    STFT-multiplier matrix and the only n^d x n^d one, is built from its
    symbol evaluated a slab of time rows at a time, and applied to the real
    and imaginary parts of all residuals by matrix products.
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
    weight = multiplier_matrix(gaussian_window(grid), lambda rows: modulation_weight(grid, sigma, rows))
    results = []
    while smoothed:
        # popped, so each smoothed stack is freed once its re-shifted copy is made
        psis = smoothed.pop(0)
        # squared M2_sigma norm of each residual row a + ib: cell_volume (a.Wa + b.Wb), W real symmetric
        parts = [(phis.real - psis.real).reshape(M, -1), (phis.imag - psis.imag).reshape(M, -1)]
        quad = sum(np.einsum("mt,mt->m", p, p @ weight.T) for p in parts)
        results.append((tf_shift(psis, grid, snapped), np.sqrt(grid.cell_volume * quad)))
    return results
