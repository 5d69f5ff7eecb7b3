"""Finite function systems: Gramians, duals, tight versions, decay fits.

Index conventions follow G[m, n] = (f_n, f_m).  Coefficient matrices that
reconstruct functions (duals, tight systems) act with the transposed inverse,
which for a Hermitian Gramian is its entrywise conjugate; written naively the
formulas only hold for real Gramians, and the biorthogonality and tight-Gram
postconditions here are exact for complex systems too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridMismatchError, GridSpec, PhasePoint, SampledFunction, fourier_transform
from .localization import TAIL_MASS_THRESHOLD, tail_mass

GRAM_FLOOR = 1e-12


@dataclass
class FunctionSystem:
    """Sampled functions with phase-space center labels on a common grid."""

    members: list[SampledFunction]
    centers: list[PhasePoint]

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a system needs at least one member")
        if len(self.members) != len(self.centers):
            raise ValueError(f"{len(self.members)} members vs {len(self.centers)} centers")
        grid = self.members[0].grid
        for m in self.members[1:]:
            if m.grid != grid:
                raise GridMismatchError("system members live on different grids")
        for c in self.centers:
            if c.dim != grid.dim:
                raise ValueError(f"center dim {c.dim} does not match grid dim {grid.dim}")

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid

    def __len__(self) -> int:
        return len(self.members)

    def member_matrix(self) -> np.ndarray:
        """Members as rows, samples flattened."""
        return np.stack([m.values.ravel() for m in self.members])


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


def gramian(sys: FunctionSystem) -> np.ndarray:
    """G[m, n] = (f_n, f_m), Hermitian PSD up to roundoff."""
    V = sys.member_matrix()
    G = sys.grid.cell_volume * (np.conj(V) @ V.T)
    return 0.5 * (G + np.conj(G).T)


def frame_bounds(sys: FunctionSystem) -> FrameBounds:
    """Extreme Gramian eigenvalues on the numerically nonzero eigenspace.

    Finite systems are never frames for the whole sample space; the returned
    bounds are Riesz-sequence bounds on the span, flagged accordingly when
    rank deficiency forced dropping null directions.
    """
    G = gramian(sys)
    eigs = np.linalg.eigvalsh(G)
    tol = eigs[-1] * len(sys) * np.finfo(float).eps
    kept = eigs[eigs > tol]
    if kept.size == 0:
        return FrameBounds(0.0, 0.0, True)
    return FrameBounds(float(kept[0]), float(kept[-1]), kept.size < eigs.size)


def _solve_coefficients(sys: FunctionSystem):
    G = gramian(sys)
    cond = np.linalg.cond(G)
    if cond >= 1e10:
        raise ValueError(f"Gramian condition number {cond:.3e} exceeds 1e10; no stable dual")
    return G, cond


def dual_system(sys: FunctionSystem) -> FunctionSystem:
    """Biorthogonal system: (f_n, g_m) = delta_{nm} to machine precision."""
    G, _ = _solve_coefficients(sys)
    Vd = np.linalg.solve(np.conj(G), sys.member_matrix())
    members = [SampledFunction(sys.grid, row.reshape(sys.grid.shape)) for row in Vd]
    return FunctionSystem(members, list(sys.centers))


def _inverse_sqrt_weights(spectra: Sequence[np.ndarray], cap: float | None = None) -> tuple[list[np.ndarray], int]:
    """Weights w**-0.5 of the kept eigenvalues (0 for the dropped) and the number dropped.

    ``spectra`` are the ascending spectra of the diagonal blocks of one
    Gramian, or of the whole Gramian as a single block; M is their total
    size and w_max their largest eigenvalue.  Eigenvalues up to
    w_max * M * eps span the numerical null space and get weight 0.  Without a
    cap, a span condition number of 1e10 or more is refused; with one, the
    directions below cap * w_max are dropped instead.
    """
    w_max = max(w[-1] for w in spectra if w.size)
    tol = w_max * sum(w.size for w in spectra) * np.finfo(float).eps
    floor = tol if cap is None else max(tol, w_max * cap)
    kept = [w > floor for w in spectra]
    if not any(k.any() for k in kept):
        raise ValueError("Gramian is numerically zero; nothing to orthonormalize")
    if cap is None:
        cond = w_max / min(w[k].min() for w, k in zip(spectra, kept) if k.any())
        if cond >= 1e10:
            raise ValueError(f"Gramian condition number {cond:.3e} on the span exceeds 1e10; no stable tight system")
    scales = [np.zeros_like(w) for w in spectra]
    for scale, w, k in zip(scales, spectra, kept):
        scale[k] = w[k] ** -0.5
    return scales, sum(int(np.count_nonzero(~k)) for k in kept)


def _inverse_sqrt_factors(G: np.ndarray, cap: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors U and weights s with (U * s) @ U^H the pseudo-inverse G^{-1/2}.

    The weights follow the rule of :func:`_inverse_sqrt_weights`.
    """
    w, U = np.linalg.eigh(G)
    (scale,), _ = _inverse_sqrt_weights([w], cap)
    return U, scale


def canonical_tight(sys: FunctionSystem) -> FunctionSystem:
    """Loewdin orthonormalization: coefficients conj(G^{-1/2}).

    Rank-deficient Gramians (overcomplete systems) use the pseudo-inverse
    square root, so the output Gramian is the orthogonal projection onto the
    span rather than the identity; its span-restricted bounds are still (1, 1).
    """
    U, scale = _inverse_sqrt_factors(gramian(sys))
    inv_sqrt = (U * scale) @ np.conj(U).T
    Vt = np.conj(inv_sqrt) @ sys.member_matrix()
    members = [SampledFunction(sys.grid, row.reshape(sys.grid.shape)) for row in Vt]
    return FunctionSystem(members, list(sys.centers))


def localization_fit(G: np.ndarray, centers: Sequence[PhasePoint]) -> DecayFit:
    """Bin |G| by center distance (width 1), fit log max vs log(1 + dist).

    Diagonal entries are excluded.  Bins whose maximum sits below the 1e-12
    floor are dropped from the fit; if fewer than two bins survive, the decay
    outruns measurement and the exponent is the +inf sentinel.
    """
    M = len(centers)
    if M < 8:
        raise ValueError(f"need at least 8 members to fit decay, got {M}")
    if G.shape != (M, M):
        raise ValueError(f"Gram shape {G.shape} does not match {M} centers")
    pts = np.stack([c.as_vector() for c in centers])
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
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


def dual_localization_check(sys: FunctionSystem, s_threshold: float) -> tuple[DecayFit, DecayFit]:
    """Fit the Gram and its inverse; the primal must clear the threshold."""
    G, _ = _solve_coefficients(sys)
    primal = localization_fit(G, sys.centers)
    if primal.exponent <= s_threshold:
        raise ValueError(
            f"primal decay exponent {primal.exponent:.2f} does not exceed threshold {s_threshold}"
        )
    dual = localization_fit(np.linalg.inv(G), sys.centers)
    return primal, dual


def commutation_ledger(sys: FunctionSystem, dual: FunctionSystem) -> CommutationLedger:
    """Multiplication and derivative coefficients plus the identity residual.

    The per-index residual compares the grid dimension with the finite-M
    commutator sum; it is near zero when the pair is complete around index n
    and grows toward the truncation edge.
    """
    if sys.grid != dual.grid or len(sys) != len(dual):
        raise GridMismatchError("system and dual must match in grid and size")
    grid, dual_grid = sys.grid, sys.grid.dual()
    V, Vd = sys.member_matrix(), dual.member_matrix()
    biorth = grid.cell_volume * (V @ np.conj(Vd).T)
    defect = np.abs(biorth - np.eye(len(sys))).max()
    if defect > 1e-6:
        raise ValueError(f"pair is not biorthogonal: max deviation {defect:.3e}")
    hats = [fourier_transform(m) for m in sys.members]
    if any(max(tail_mass(m), tail_mass(h)) > TAIL_MASS_THRESHOLD for m, h in zip(sys.members, hats)):
        warnings.warn("members carry boundary mass in time or frequency; moments may be truncated", stacklevel=2)
    # c and d via spectral derivatives, and the norm of x_j f_n minus its reconstruction from c
    Vh = np.stack([h.values.ravel() for h in hats])
    Vdh = np.stack([fourier_transform(m).values.ravel() for m in dual.members])
    M, d = len(sys), grid.dim
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
