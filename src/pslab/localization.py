"""Localization functionals: power moments, tail mass, weighted phase-space norms.

Moments use the true (non-wrapped) distance on the centered box.  A function
whose mass reaches the box boundary would have its moments silently capped by
the truncation; :func:`tail_mass` measures the relative mass near the box
edge, and callers warn when it exceeds ``TAIL_MASS_THRESHOLD``.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SampledFunction, fourier_transform, gaussian_window
from .stft import StftField, stft

TAIL_MASS_THRESHOLD = 1e-6


def moment(f: SampledFunction, center, s: float, side: str = "time") -> float:
    """Riemann sum of |x - center|^{2s} |f|^2 on the requested side."""
    if s < 0:
        raise ValueError(f"moment exponent s must be >= 0, got {s}")
    if side not in ("time", "frequency"):
        raise ValueError(f"side must be 'time' or 'frequency', got {side!r}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    g = f if side == "time" else fourier_transform(f)
    if center.size != g.grid.dim:
        raise ValueError(f"center has {center.size} components, grid needs {g.grid.dim}")
    weight = sum((coords - c) ** 2 for coords, c in zip(g.grid.mesh(), center))
    if s != 1.0:
        weight = weight**s
    return float(g.grid.cell_volume * np.sum(weight * np.abs(g.values) ** 2))


def tail_mass(f: SampledFunction) -> float:
    """Relative mass beyond 3/4 of the half-extent, |x_i| > 3 L_i/8 on some axis."""
    mask = np.zeros(f.grid.shape, dtype=bool)
    for ax, coords in enumerate(f.grid.mesh()):
        mask |= np.broadcast_to(np.abs(coords) > 0.75 * f.grid.half_extent(ax), f.grid.shape)
    total = float(np.sum(np.abs(f.values) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(f.values[mask]) ** 2)) / total


def modulation_norm(f: SampledFunction, s: float) -> float:
    """M2_s norm: weighted L2 norm of the Gaussian-window STFT over phase space."""
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    field = stft(f, gaussian_window(f.grid))
    return weighted_field_norm(field, s)


def modulation_weight(grid: GridSpec, s: float) -> np.ndarray:
    """The weight (1+|(x,xi)|)^{2s} on the phase-space grid of ``grid``.

    One float array of shape ``grid.shape + grid.shape`` (time axes, then
    frequency).
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    coords = grid.phase_mesh()
    # one full-size array, built in place: the coordinates are sparse
    weight = np.zeros(np.broadcast_shapes(*(c.shape for c in coords)))
    for c in coords:
        weight += c * c
    np.sqrt(weight, out=weight)
    weight += 1.0
    return np.power(weight, 2.0 * s, out=weight)


def weighted_field_norm(field: StftField, s: float) -> float:
    """L2_s norm of a phase-space field with weight (1+|(x,xi)|)^{2s}."""
    w = modulation_weight(field.grid, s)
    return math.sqrt(field.cell_measure * float(np.sum(w * np.abs(field.values) ** 2)))


def amalgam_norm(field: StftField, s: float) -> float:
    """W(L2_s) norm: per-unit-box sups, weighted by (1+|k|+|n|)^{2s}.

    The box (k, n) + [0,1)^{2d} takes the max of |F|^2 over the samples it
    contains; |k| and |n| are Euclidean norms of the integer box corners.
    Needs the grid to resolve unit boxes (spacing <= 1/2 on both axes).
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    g = field.grid
    if max(g.step + g.dual().step) > 0.5:
        raise ValueError("phase-space grid too coarse to resolve unit boxes (need spacing <= 1/2)")
    d = g.dim
    corners = [np.floor(c).astype(np.int64) for c in g.phase_mesh()]
    low = [int(k.min()) for k in corners]
    sup = np.zeros(tuple(int(k.max()) - lo + 1 for k, lo in zip(corners, low)))
    box = np.broadcast_arrays(*(k - lo for k, lo in zip(corners, low)))
    np.maximum.at(sup, tuple(box), np.abs(field.values) ** 2)
    # the integer corner (k, n) of each box
    kn = np.meshgrid(*(np.arange(m) + lo for m, lo in zip(sup.shape, low)), indexing="ij", sparse=True)
    knorm, nnorm = (np.sqrt(sum(c * c for c in half)) for half in (kn[:d], kn[d:]))
    weight = (1.0 + knorm + nnorm) ** (2.0 * s)
    return math.sqrt(float(np.sum(sup * weight)))


def sampled_weighted_sum(field: StftField, lam: PhasePointSet, z, s: float) -> float:
    """(sum_n |F(z + lambda_n)|^2 (1 + |z + lambda_n|)^{2s})^{1/2}.

    F is evaluated by nearest grid cell; points falling outside the field's
    phase-space box are an error rather than silently dropped.
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    g = field.grid
    d = g.dim
    if lam.dim != d:
        raise ValueError(f"point set dim {lam.dim} does not match field dim {d}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != 2 * d:
        raise ValueError(f"z must have {2 * d} components")
    if len(lam) == 0:
        return 0.0
    shifted = lam.coords + z[None, :]
    idx = []
    for col, ni, si in zip(shifted.T, g.n + g.dual().n, g.step + g.dual().step):
        j = np.round(col / si).astype(np.int64) + ni // 2
        if j.min() < 0 or j.max() >= ni:
            raise ValueError("shifted points fall outside the phase-space box")
        idx.append(j)
    samples = np.abs(field.values[tuple(idx)]) ** 2
    weight = (1.0 + np.sqrt((shifted**2).sum(axis=1))) ** (2.0 * s)
    return math.sqrt(float(np.sum(samples * weight)))
