"""Localization functionals: power moments, tail mass, weighted phase-space norms.

Moments use the true (non-wrapped) distance on the centered box.  A function
whose mass reaches the box boundary would have its moments silently capped by
the truncation; :func:`tail_mass` measures the relative mass near the box
edge, and callers warn when it exceeds ``TAIL_MASS_THRESHOLD``.

The phase-space norms read a field as :func:`~pslab.stft.stft` returns it, a
plain ``grid.shape + grid.shape`` array, beside the grid it lives on.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SampledFunction, _phase_field, fourier_transform, gaussian_window

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


def tail_mass(values: np.ndarray, grid: GridSpec) -> float:
    """Largest relative mass beyond 3/4 of the half-extent, |x_i| > 3 L_i/8 on some axis,
    of the functions stacked on the leading axes of ``values``, each against its own total."""
    mask = np.zeros(grid.shape, dtype=bool)
    for ax, coords in enumerate(grid.mesh()):
        mask |= np.broadcast_to(np.abs(coords) > 0.75 * grid.half_extent(ax), grid.shape)
    power = np.abs(values) ** 2
    total = power.sum(axis=tuple(range(-grid.dim, 0)))
    tail = power[..., mask].sum(axis=-1)
    return float(np.max(np.divide(tail, total, out=np.zeros_like(total), where=total > 0)))


def modulation_norm(f: SampledFunction, s: float) -> float:
    """M2_s norm: weighted L2 norm of the Gaussian-window STFT over phase space."""
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    from .stft import stft
    return weighted_field_norm(stft(f, gaussian_window(f.grid)), f.grid, s)


def modulation_weight(grid: GridSpec, s: float, rows=...) -> np.ndarray:
    """The weight (1+|(x,xi)|)^{2s} on the phase-space grid of ``grid``.

    One float array of shape ``grid.shape + grid.shape`` (time axes, then
    frequency), or with ``rows``, an index into ``grid.shape``, the weight on
    those time rows alone: the indexed time shape + ``grid.shape``.
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    time = grid.radius_squared()[rows]
    # one array of the result's size, built in place: the frequency coordinates are sparse
    weight = np.empty(time.shape + grid.shape)
    weight[...] = time.reshape(time.shape + (1,) * grid.dim)
    for c in grid.dual().mesh():
        weight += c * c
    np.sqrt(weight, out=weight)
    weight += 1.0
    return np.power(weight, 2.0 * s, out=weight)


def weighted_field_norm(field: np.ndarray, grid: GridSpec, s: float) -> float:
    """L2_s norm of a phase-space field on ``grid`` with weight (1+|(x,xi)|)^{2s}."""
    field = _phase_field(field, grid)
    w = modulation_weight(grid, s)
    return math.sqrt(grid.cell_volume * grid.dual().cell_volume * float(np.sum(w * np.abs(field) ** 2)))


def amalgam_norm(field: np.ndarray, grid: GridSpec, s: float) -> float:
    """W(L2_s) norm: per-unit-box sups, weighted by (1+|k|+|n|)^{2s}.

    The box (k, n) + [0,1)^{2d} takes the max of |F|^2 over the samples it
    contains; |k| and |n| are Euclidean norms of the integer box corners.
    Needs the grid to resolve unit boxes (spacing <= 1/2 on both axes).
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    field = _phase_field(field, grid)
    if max(grid.step + grid.dual().step) > 0.5:
        raise ValueError("phase-space grid too coarse to resolve unit boxes (need spacing <= 1/2)")
    d = grid.dim
    corners = [np.floor(c).astype(np.int64) for c in grid.phase_mesh()]
    low = [int(k.min()) for k in corners]
    sup = np.zeros(tuple(int(k.max()) - lo + 1 for k, lo in zip(corners, low)))
    box = np.broadcast_arrays(*(k - lo for k, lo in zip(corners, low)))
    np.maximum.at(sup, tuple(box), np.abs(field) ** 2)
    # the integer corner (k, n) of each box
    kn = np.meshgrid(*(np.arange(m) + lo for m, lo in zip(sup.shape, low)), indexing="ij", sparse=True)
    knorm, nnorm = (np.sqrt(sum(c * c for c in half)) for half in (kn[:d], kn[d:]))
    weight = (1.0 + knorm + nnorm) ** (2.0 * s)
    return math.sqrt(float(np.sum(sup * weight)))


def sampled_weighted_sum(field: np.ndarray, grid: GridSpec, points: np.ndarray, z, s: float) -> float:
    """(sum_n |F(z + lambda_n)|^2 (1 + |z + lambda_n|)^{2s})^{1/2} over the rows lambda_n of ``points``.

    ``points`` is an (M, 2d) array of phase-space points (x, xi) for the
    grid's d.  F is evaluated by nearest grid cell; points falling outside
    the field's phase-space box are an error rather than silently dropped.
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    field = _phase_field(field, grid)
    d = grid.dim
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 * d:
        raise ValueError(f"points of shape {points.shape} are not (M, {2 * d}) for a {d}-D field")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != 2 * d:
        raise ValueError(f"z must have {2 * d} components")
    if len(points) == 0:
        return 0.0
    shifted = points + z[None, :]
    idx = []
    for col, ni, si in zip(shifted.T, grid.n + grid.dual().n, grid.step + grid.dual().step):
        j = np.round(col / si).astype(np.int64) + ni // 2
        if j.min() < 0 or j.max() >= ni:
            raise ValueError("shifted points fall outside the phase-space box")
        idx.append(j)
    samples = np.abs(field[tuple(idx)]) ** 2
    weight = (1.0 + np.sqrt((shifted**2).sum(axis=1))) ** (2.0 * s)
    return math.sqrt(float(np.sum(samples * weight)))
