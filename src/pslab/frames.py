"""Finite function systems: Gramians, duals, tight versions, decay fits.

A system of M functions is a complex ``(M,) + grid.shape`` stack passed beside
its grid; phase-space centers, where used, are an (M, 2d) array of rows (a, b).
Index conventions follow G[m, n] = (f_n, f_m).  A Riesz sequence's dual has
Gramian G^{-1}, which :func:`dual_gram` returns, refused at CONDITION_LIMIT.
Coefficient matrices that reconstruct functions (duals, tight systems) act
with the transposed inverse, for a Hermitian Gramian its entrywise conjugate,
so the biorthogonality and tight-Gram postconditions hold for complex systems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridMismatchError, GridSpec, _centered_fft, null_space_floor
from .localization import TAIL_MASS_THRESHOLD, tail_mass

GRAM_FLOOR = 1e-12
# Gramian condition number at which a dual or tight system is refused, or
# below which capped orthonormalizations drop directions
CONDITION_LIMIT = 1e10
# Fewest members whose Gram localization_fit fits a decay law to
DECAY_FIT_MEMBERS = 8


def _stack_size(members: np.ndarray, grid: GridSpec) -> int:
    """The member count M of an ``(M,) + grid.shape`` stack; any other shape, or M = 0, is refused."""
    if members.shape[1:] != grid.shape:
        raise GridMismatchError(f"member stack of shape {members.shape} does not hold samples of grid {grid.shape}")
    if len(members) == 0:
        raise ValueError("a system needs at least one member")
    return len(members)


class FrameBounds(NamedTuple):
    lower: float
    upper: float
    as_frame_on_span: bool


@dataclass
class DecayFit:
    """Power-law fit |G[m,n]| ~ C (1 + |center_m - center_n|)^{-s}."""

    exponent: float
    constant: float
    r2: float
    bins: list[tuple[float, float]]

    def __post_init__(self):
        if self.constant <= 0:
            raise ValueError("fit constant must be positive")
        if not self.bins:
            raise ValueError("fit carries no bins")
        if not (0.0 <= self.r2 <= 1.0 + 1e-12):
            raise ValueError(f"r^2 out of range: {self.r2}")


@dataclass
class CommutationLedger:
    """Coefficients c[m,n,j] = (x_j f_n, g_m), d[m,n,j] = (xi_j fhat_n, ghat_m).

    ``per_n_identity_residual[n]`` measures |dim - 2 pi i sum_{m,j}
    (c[m,n,j] d[n,m,j] - d[m,n,j] c[n,m,j])|, which vanishes for a complete
    biorthogonal pair.  ``truncation_defect[n, j]`` is the norm of the part of
    x_j f_n that the finite system cannot reconstruct; interior residuals are
    only meaningful where this defect is small.
    """

    c: np.ndarray
    dcoef: np.ndarray
    per_n_identity_residual: np.ndarray
    truncation_defect: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.c).all() and np.isfinite(self.dcoef).all()):
            raise ValueError("ledger coefficients must be finite")
        if (self.per_n_identity_residual < 0).any():
            raise ValueError("residuals must be nonnegative")
        if (self.truncation_defect < 0).any():
            raise ValueError("truncation defects must be nonnegative")


def gramian(members: np.ndarray, grid: GridSpec) -> np.ndarray:
    """G[m, n] = (f_n, f_m), Hermitian PSD up to roundoff."""
    V = members.reshape(_stack_size(members, grid), -1)
    G = grid.cell_volume * (np.conj(V) @ V.T)
    return 0.5 * (G + np.conj(G).T)


def frame_bounds(members: np.ndarray, grid: GridSpec) -> FrameBounds:
    """Extreme Gramian eigenvalues on the numerically nonzero eigenspace.

    Finite systems are never frames for the whole sample space; the returned
    bounds are Riesz-sequence bounds on the span, flagged accordingly when
    rank deficiency forced dropping null directions.
    """
    eigs = np.linalg.eigvalsh(gramian(members, grid))
    kept = eigs[eigs > null_space_floor(eigs[-1], eigs.size)]
    if kept.size == 0:
        return FrameBounds(0.0, 0.0, True)
    return FrameBounds(float(kept[0]), float(kept[-1]), kept.size < eigs.size)


def _refuse_ill_conditioned(w_max: float, w_min: float, task: str) -> None:
    """Refuse a Gramian whose extreme eigenvalues give a condition number of CONDITION_LIMIT or more."""
    cond = w_max / w_min if w_min > 0 else math.inf
    if cond >= CONDITION_LIMIT:
        raise ValueError(f"Gramian condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; no stable {task}")


def dual_gram(G: np.ndarray) -> np.ndarray:
    """G^{-1}, the Gramian of the biorthogonal dual of a system with Gramian G; refused at CONDITION_LIMIT."""
    w = np.linalg.eigvalsh(G)
    _refuse_ill_conditioned(w[-1], w[0], "dual")
    return np.linalg.inv(G)


def dual_system(members: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Biorthogonal system, coefficients conj(G^{-1}): (f_n, g_m) = delta_{nm} to machine precision."""
    Vd = np.conj(dual_gram(gramian(members, grid))) @ members.reshape(len(members), -1)
    return Vd.reshape(members.shape)


def _inverse_sqrt_weights(spectra: Sequence[np.ndarray], capped: bool = False) -> tuple[list[np.ndarray], int]:
    """Weights w**-0.5 of the kept eigenvalues (0 for the dropped) and the number dropped.

    ``spectra`` are the ascending spectra of the diagonal blocks of one
    Gramian, or of the whole Gramian as a single block; M is their total
    size and w_max their largest eigenvalue.  Eigenvalues up to
    :func:`~pslab.grid.null_space_floor` (w_max * M * eps) span the numerical
    null space and get weight 0.  A span whose condition number reaches
    CONDITION_LIMIT is refused, or if ``capped`` the directions below
    w_max / CONDITION_LIMIT are dropped instead.
    """
    w_max = max(w[-1] for w in spectra if w.size)
    tol = null_space_floor(w_max, sum(w.size for w in spectra))
    floor = max(tol, w_max / CONDITION_LIMIT) if capped else tol
    kept = [w > floor for w in spectra]
    if not any(k.any() for k in kept):
        raise ValueError("Gramian is numerically zero; nothing to orthonormalize")
    if not capped:
        _refuse_ill_conditioned(w_max, min(w[k].min() for w, k in zip(spectra, kept) if k.any()), "tight system")
    scales = [np.zeros_like(w) for w in spectra]
    for scale, w, k in zip(scales, spectra, kept):
        scale[k] = w[k] ** -0.5
    return scales, sum(int(np.count_nonzero(~k)) for k in kept)


def _inverse_sqrt_rows(G: np.ndarray, rows=slice(None), capped: bool = False) -> tuple[np.ndarray, int]:
    """Rows ``rows`` of the pseudo-inverse G^{-1/2}, all by default, and the number of directions dropped.

    The eigenvalue weights follow :func:`_inverse_sqrt_weights`.  A redundant
    lattice truncates to a rank-deficient Gramian whose weakest retained
    directions are edge artifacts; capping drops them and perturbs the rows at
    the order of the cap.
    """
    w, U = np.linalg.eigh(G)
    (scale,), dropped = _inverse_sqrt_weights([w], capped)
    return (U[rows] * scale) @ np.conj(U).T, dropped


def canonical_tight(members: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Loewdin orthonormalization: coefficients conj(G^{-1/2}).

    Rank-deficient Gramians (overcomplete systems) use the pseudo-inverse
    square root, so the output Gramian is the orthogonal projection onto the
    span rather than the identity; its span-restricted bounds are still (1, 1).
    """
    inv_sqrt, _ = _inverse_sqrt_rows(gramian(members, grid))
    Vt = np.conj(inv_sqrt) @ members.reshape(len(members), -1)
    return Vt.reshape(members.shape)


def localization_fit(G: np.ndarray, centers: np.ndarray) -> DecayFit:
    """Bin |G| by the distance of the (M, 2d) centers (width 1), fit log max vs log(1 + dist).

    Diagonal entries are excluded.  Bins whose maximum sits below the 1e-12
    floor are dropped from the fit; if fewer than two bins survive, the decay
    outruns measurement and the exponent is the +inf sentinel.
    """
    if centers.ndim != 2 or centers.shape[1] not in (2, 4):
        raise ValueError(f"centers of shape {centers.shape} are not an (M, 2d) array")
    M = len(centers)
    if M < DECAY_FIT_MEMBERS:
        raise ValueError(f"need at least {DECAY_FIT_MEMBERS} members to fit decay, got {M}")
    if G.shape != (M, M):
        raise ValueError(f"Gram shape {G.shape} does not match {M} centers")
    dist = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    mod = np.abs(G)
    off = ~np.eye(M, dtype=bool)
    bins: list[tuple[float, float]] = []
    nbins = int(np.floor(dist[off].max())) + 1 if off.any() else 0
    for k in range(nbins):
        sel = off & (dist >= k) & (dist < k + 1)
        if not sel.any():
            continue
        flat = np.where(sel, mod, -1.0)
        m_at = np.unravel_index(np.argmax(flat), flat.shape)
        bins.append((float(dist[m_at]), float(mod[m_at])))
    if len(bins) < 4:
        raise ValueError(f"only {len(bins)} nonempty distance bins; need 4")
    fit_pts = [(d, v) for d, v in bins if v > GRAM_FLOOR]
    if len(fit_pts) < 2:
        return DecayFit(math.inf, GRAM_FLOOR, 1.0, bins)
    x = np.log1p([d for d, _ in fit_pts])
    y = np.log([v for _, v in fit_pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float((resid**2).sum()) / ss_tot)
    return DecayFit(float(-slope), float(np.exp(intercept)), r2, bins)


def commutation_ledger(members: np.ndarray, dual: np.ndarray, grid: GridSpec) -> CommutationLedger:
    """Multiplication and derivative coefficients plus the identity residual.

    The per-index residual compares the grid dimension with the finite-M
    commutator sum; it is near zero when the pair is complete around index n
    and grows toward the truncation edge.
    """
    M, d = _stack_size(members, grid), grid.dim
    if dual.shape != members.shape:
        raise GridMismatchError("system and dual must match in grid and size")
    dual_grid, axes = grid.dual(), tuple(range(1, d + 1))
    # a self-dual pair (an orthonormal system) shares its stack and transforms
    V = members.reshape(M, -1)
    Vd = V if dual is members else dual.reshape(M, -1)
    biorth = grid.cell_volume * (V @ np.conj(Vd).T)
    defect = np.abs(biorth - np.eye(M)).max()
    if defect > 1e-6:
        raise ValueError(f"pair is not biorthogonal: max deviation {defect:.3e}")
    hats = _centered_fft(members, axes) * grid.cell_volume
    if max(tail_mass(members, grid), tail_mass(hats, dual_grid)) > TAIL_MASS_THRESHOLD:
        warnings.warn("members carry boundary mass in time or frequency; moments may be truncated", stacklevel=2)
    # c and d via spectral derivatives, and the norm of x_j f_n minus its reconstruction from c
    Vh = hats.reshape(M, -1)
    Vdh = Vh if dual is members else (_centered_fft(dual, axes) * grid.cell_volume).reshape(M, -1)
    c = np.empty((M, M, d), dtype=complex)
    dcoef = np.empty((M, M, d), dtype=complex)
    truncation = np.empty((M, d))
    for j in range(d):
        xj = np.broadcast_to(grid.mesh()[j], grid.shape).ravel()
        xij = np.broadcast_to(dual_grid.mesh()[j], dual_grid.shape).ravel()
        c[:, :, j] = grid.cell_volume * (np.conj(Vd) @ (xj * V).T)
        dcoef[:, :, j] = dual_grid.cell_volume * (np.conj(Vdh) @ (xij * Vh).T)
        truncation[:, j] = np.linalg.norm(xj * V - c[:, :, j].T @ V, axis=1) * np.sqrt(grid.cell_volume)
    sums = 2j * np.pi * (
        np.einsum("mnj,nmj->n", c, dcoef) - np.einsum("mnj,nmj->n", dcoef, c)
    )
    residual = np.abs(d - sums)
    return CommutationLedger(c, dcoef, residual, truncation)
