"""Localization functionals: power moments, optimal centers, weighted norms.

Moments use the true (non-wrapped) distance on the centered box.  A function
whose mass reaches the box boundary would have its moments silently capped by
the truncation, so reports carry a tail-mass warning when more than 1e-6 of
the relative mass sits outside the central half of the box.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import PhasePointSet
from .grid import GridSpec, PhasePoint, SampledFunction, fourier_transform, gaussian_window
from .stft import StftField, stft

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TAIL_MASS_THRESHOLD = 1e-6


@dataclass
class LocalizationReport:
    """Both-sided power moments of a function at its optimal centers."""

    s: float
    time_moment: float
    freq_moment: float
    center: PhasePoint
    total: float
    tail_warning: bool = False
    weight_convention: str = "euclidean"

    def __post_init__(self):
        if self.time_moment < 0 or self.freq_moment < 0:
            raise ValueError("moments must be nonnegative")
        if not math.isclose(self.total, self.time_moment + self.freq_moment, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError("total must equal time_moment + freq_moment")

    def to_json(self) -> dict:
        dim = self.center.dim
        a = self.center.a[0] if dim == 1 else list(self.center.a)
        b = self.center.b[0] if dim == 1 else list(self.center.b)
        return {
            "s": self.s,
            "time_moment": self.time_moment,
            "freq_moment": self.freq_moment,
            "center_a": a,
            "center_b": b,
            "total": self.total,
            "tail_warning": self.tail_warning,
        }


def _side_function(f: SampledFunction, side: str) -> SampledFunction:
    if side == "time":
        return f
    if side == "frequency":
        return fourier_transform(f)
    raise ValueError(f"side must be 'time' or 'frequency', got {side!r}")


def _distance_power(grid: GridSpec, center, s: float) -> np.ndarray:
    out = np.zeros((1,) * grid.dim)
    for ax, coords in enumerate(grid.mesh()):
        out = out + (coords - center[ax]) ** 2
    return out if s == 1.0 else out**s


def moment(f: SampledFunction, center, s: float, side: str = "time") -> float:
    """Riemann sum of |x - center|^{2s} |f|^2 on the requested side."""
    if s < 0:
        raise ValueError(f"moment exponent s must be >= 0, got {s}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    g = _side_function(f, side)
    if center.size != g.grid.dim:
        raise ValueError(f"center has {center.size} components, grid needs {g.grid.dim}")
    weight = _distance_power(g.grid, center, s)
    return float(g.grid.cell_volume * np.sum(weight * np.abs(g.values) ** 2))


def tail_mass(f: SampledFunction) -> float:
    """Relative mass outside the central box |x_i| <= L_i/4."""
    mask = np.zeros(f.grid.shape, dtype=bool)
    for ax, coords in enumerate(f.grid.mesh()):
        mask |= np.broadcast_to(np.abs(coords) > f.grid.half_extent(ax) / 2, f.grid.shape)
    total = float(np.sum(np.abs(f.values) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(f.values[mask]) ** 2)) / total


def _golden_min(fun, lo: float, hi: float, tol: float):
    """Golden-section minimum of fun on [lo, hi]; returns (argmin, min)."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fun(d)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def optimal_center(f: SampledFunction, s: float, side: str = "time"):
    """Minimize moment(f, a, s) over centers a.

    Coarse scan at grid resolution (plus the centroid as a seed), then
    golden-section refinement per axis to 1e-4 * spacing.  Returns
    ``(center, value)`` with value the minimum over everything probed.
    """
    if s <= 0:
        raise ValueError(f"optimal_center needs s > 0, got {s}")
    g = _side_function(f, side)
    if g.norm() == 0.0:
        raise ValueError("optimal_center of the zero function")
    mass = np.abs(g.values) ** 2 * g.grid.cell_volume
    total = float(mass.sum())
    dim = g.grid.dim

    best_val = math.inf
    best = np.zeros(dim)

    def probe(center):
        nonlocal best_val, best
        val = float(np.sum(_distance_power(g.grid, center, s) * mass))
        if val < best_val:
            best_val = val
            best = np.asarray(center, dtype=float).copy()
        return val

    # coarse scan over grid points, chunked to bound memory
    axes = [g.grid.axis_points(ax) for ax in range(dim)]
    if dim == 1:
        x = axes[0]
        flat = mass
        for start in range(0, x.size, 256):
            cand = x[start : start + 256]
            vals = ((np.abs(x[None, :] - cand[:, None]) ** 2) ** s * flat[None, :]).sum(axis=1)
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val = float(vals[k])
                best = np.array([cand[k]])
    else:
        # decimate the candidate mesh so the scan stays O(64^2) evaluations;
        # the refinement bracket below widens by the same stride
        stride = max(1, axes[0].size // 64, axes[1].size // 64)
        for c0 in axes[0][::stride]:
            diff0 = (axes[0] - c0) ** 2
            for c1 in axes[1][::stride]:
                dist = diff0[:, None] + (axes[1][None, :] - c1) ** 2
                val = float(np.sum((dist if s == 1.0 else dist**s) * mass))
                if val < best_val:
                    best_val = val
                    best = np.array([c0, c1])

    # centroid seed (exact optimum for s = 1)
    centroid = np.array(
        [float(np.sum(np.broadcast_to(c, g.grid.shape) * mass)) / total for c in g.grid.mesh()]
    )
    probe(centroid)

    # per-axis golden-section refinement around the incumbent
    stride = 1 if dim == 1 else max(1, axes[0].size // 64, axes[1].size // 64)
    for sweep in range(1 if dim == 1 else 3):
        for ax in range(dim):
            step = g.grid.step[ax]

            def line(t, ax=ax):
                cand = best.copy()
                cand[ax] = t
                return probe(cand)

            _golden_min(line, best[ax] - stride * step, best[ax] + stride * step, 1e-4 * step)

    return tuple(best), best_val


def localization_report(f: SampledFunction, s: float) -> LocalizationReport:
    """Optimal-center moments on both sides plus the tail-mass diagnostic."""
    a, tm = optimal_center(f, s, "time")
    b, fm = optimal_center(f, s, "frequency")
    fhat = fourier_transform(f)
    warn = tail_mass(f) > TAIL_MASS_THRESHOLD or tail_mass(fhat) > TAIL_MASS_THRESHOLD
    if warn:
        warnings.warn("function mass reaches the box boundary; moments may be truncated", stacklevel=2)
    return LocalizationReport(
        s=s,
        time_moment=tm,
        freq_moment=fm,
        center=PhasePoint(a, b),
        total=tm + fm,
        tail_warning=warn,
    )


def weighted_l2_norm(f: SampledFunction, s: float) -> float:
    """The L2_s norm (int |f|^2 (1+|x|)^{2s} dx)^{1/2} on the grid."""
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    w = (1.0 + np.sqrt(f.grid.radius_squared())) ** (2.0 * s)
    return math.sqrt(f.grid.cell_volume * float(np.sum(w * np.abs(f.values) ** 2)))


def modulation_norm(f: SampledFunction, s: float) -> float:
    """M2_s norm: weighted L2 norm of the Gaussian-window STFT over phase space."""
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    field = stft(f, gaussian_window(f.grid))
    return weighted_field_norm(field, s)


def modulation_weight(grid: GridSpec, s: float) -> np.ndarray:
    """The weight (1+|(x,xi)|)^{2s} on the phase-space grid of ``grid``.

    Broadcastable to ``grid.shape + grid.shape`` (time axes, then frequency).
    """
    if s < 0:
        raise ValueError(f"weight exponent s must be >= 0, got {s}")
    d = grid.dim
    rsq = np.zeros((1,) * (2 * d))
    for ax in range(d):
        c = grid.axis_points(ax).reshape((-1,) + (1,) * (2 * d - ax - 1))
        rsq = rsq + c * c
    dual = grid.dual()
    for ax in range(d):
        c = dual.axis_points(ax).reshape((-1,) + (1,) * (d - ax - 1))
        rsq = rsq + c * c
    return (1.0 + np.sqrt(rsq)) ** (2.0 * s)


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
    dual = g.dual()
    for ax in range(g.dim):
        if g.step[ax] > 0.5 or dual.step[ax] > 0.5:
            raise ValueError("phase-space grid too coarse to resolve unit boxes (need spacing <= 1/2)")
    d = g.dim
    axis_idx = []
    offsets = []
    sizes = []
    for ax in range(2 * d):
        pts = g.axis_points(ax) if ax < d else dual.axis_points(ax - d)
        k = np.floor(pts).astype(np.int64)
        off = int(k.min())
        axis_idx.append(k - off)
        offsets.append(off)
        sizes.append(int(k.max()) - off + 1)
    sup = np.zeros(tuple(sizes))
    mesh = np.meshgrid(*axis_idx, indexing="ij", sparse=True)
    np.maximum.at(sup, tuple(np.broadcast_arrays(*mesh)), np.abs(field.values) ** 2)
    corner_axes = [np.arange(n) + off for n, off in zip(sizes, offsets)]
    tnorm = np.zeros(tuple(sizes))
    fnorm = np.zeros(tuple(sizes))
    for ax in range(d):
        c = corner_axes[ax].reshape((-1,) + (1,) * (2 * d - ax - 1))
        tnorm = tnorm + c.astype(float) ** 2
    for ax in range(d, 2 * d):
        c = corner_axes[ax].reshape((-1,) + (1,) * (2 * d - ax - 1))
        fnorm = fnorm + c.astype(float) ** 2
    weight = (1.0 + np.sqrt(tnorm) + np.sqrt(fnorm)) ** (2.0 * s)
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
    dual = g.dual()
    idx = []
    for ax in range(2 * d):
        spec = g if ax < d else dual
        sax = ax if ax < d else ax - d
        ni, si = spec.n[sax], spec.step[sax]
        j = np.round(shifted[:, ax] / si).astype(np.int64) + ni // 2
        if j.min() < 0 or j.max() >= ni:
            raise ValueError("shifted points fall outside the phase-space box")
        idx.append(j)
    samples = np.abs(field.values[tuple(idx)]) ** 2
    weight = (1.0 + np.sqrt((shifted**2).sum(axis=1))) ** (2.0 * s)
    return math.sqrt(float(np.sum(samples * weight)))
