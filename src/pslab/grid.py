"""Centered sample grids, sampled functions, and the basic unitary operations.

Everything downstream works on origin-centered periodic grids: axis ``i``
carries ``n[i]`` samples spaced ``step[i]`` apart covering the half-open box
``[-n[i]*step[i]/2, n[i]*step[i]/2)``.  The matching frequency grid has the
same point count and spacing ``1/(n[i]*step[i])``, so the dual of the dual is
the original grid and a transform round trip is exact up to rounding.

The forward transform approximates ``fhat(xi) = int f(x) exp(-2 pi i x.xi) dx``
as a Riemann sum, which for even ``n`` is an exact rearrangement of the FFT
(phase ramps absorbed by fftshift/ifftshift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _sample_count(value) -> int:
    try:
        if float(value).is_integer():
            return int(value)
    except OverflowError:
        raise ValueError("points per axis overflow a float") from None
    raise ValueError(f"points per axis must be a whole number, got {value!r}")


def _as_tuple(value, dim, cast):
    if np.isscalar(value):
        return (cast(value),) * dim
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """An origin-centered uniform grid on R^dim.

    Args:
        dim: spatial dimension, 1 or 2.
        n: samples per axis, a power of two >= 8 (scalar or per-axis tuple).
        step: sample spacing per axis, > 0 (scalar or per-axis tuple), its box n * step and the dual's finite.
    """

    dim: int
    n: tuple[int, ...]
    step: tuple[float, ...]
    # the grid this one is the dual of: 1/(n * (1/(n * s))) need not round back to s
    _dual: GridSpec | None = field(init=False, repr=False, compare=False)

    def __init__(self, dim, n, step):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        n = _as_tuple(n, dim, _sample_count)
        step = _as_tuple(step, dim, float)
        for ni, si in zip(n, step):
            if ni < 8 or ni & (ni - 1):
                raise ValueError(f"points per axis must be a power of two >= 8, got {ni}")
            if not (si > 0 and math.isfinite(ni * si) and math.isfinite(ni * (1.0 / (ni * si)))):
                raise ValueError(f"spacing must be positive with finite boxes, got {si} for {ni:.6g} samples")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "_dual", None)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.step))

    def axis_points(self, axis: int = 0) -> np.ndarray:
        """Sample positions along one axis, from -n*step/2 inclusive."""
        ni, si = self.n[axis], self.step[axis]
        return (np.arange(ni) - ni // 2) * si

    def half_extent(self, axis: int = 0) -> float:
        """Half the periodic box length along one axis."""
        return self.n[axis] * self.step[axis] / 2.0

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays broadcast to the full grid shape."""
        axes = [self.axis_points(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def phase_mesh(self) -> tuple[np.ndarray, ...]:
        """Phase-space coordinates broadcast over ``shape + dual().shape``.

        The time axes of this grid come first, then the frequency axes of its
        dual: the layout of every STFT field and phase-space weight.
        """
        axes = [g.axis_points(i) for g in (self, self.dual()) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the full grid."""
        return sum(c * c for c in self.mesh())

    def dual(self) -> "GridSpec":
        """The frequency grid matching this one; its dual is this grid again."""
        if self._dual is None:
            dual = GridSpec(self.dim, self.n, tuple(1.0 / (ni * si) for ni, si in zip(self.n, self.step)))
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual


class GridMismatchError(ValueError):
    """Raised when two sampled functions live on different grids."""


@dataclass
class SampledFunction:
    """Complex samples of a function on a :class:`GridSpec`."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("sample values must be finite")
        self.values = values

    def norm(self) -> float:
        """L2 norm under the grid's Riemann weight."""
        return math.sqrt(self.grid.cell_volume * float(np.sum(np.abs(self.values) ** 2)))

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__


def _require_same_grid(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def _phase_field(field, grid: GridSpec) -> np.ndarray:
    """``field`` as a complex array, refused unless it has the :meth:`GridSpec.phase_mesh` shape of ``grid``."""
    field = np.asarray(field, dtype=np.complex128)
    expected = grid.shape + grid.dual().shape
    if field.shape != expected:
        raise ValueError(f"field shape {field.shape} does not match phase-space grid {expected}")
    return field


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """Riemann-sum L2 inner product, conjugate-linear in the second slot."""
    _require_same_grid(f, g)
    return complex(f.grid.cell_volume * np.sum(f.values * np.conj(g.values)))


def _centered_fft(values: np.ndarray, axes, inverse: bool = False) -> np.ndarray:
    """DFT between centered index layouts (origin at index n//2 on each axis)."""
    work = np.fft.ifftshift(values, axes=axes)
    work = np.fft.ifftn(work, axes=axes) if inverse else np.fft.fftn(work, axes=axes)
    return np.fft.fftshift(work, axes=axes)


def fourier_transform(f: SampledFunction) -> SampledFunction:
    """Forward transform onto the dual grid (unitary between sample grids)."""
    out = _centered_fft(f.values, axes=tuple(range(f.grid.dim))) * f.grid.cell_volume
    return SampledFunction(f.grid.dual(), out)


def inverse_fourier_transform(fhat: SampledFunction) -> SampledFunction:
    """Inverse of :func:`fourier_transform`; lands on ``fhat.grid.dual()``."""
    g = fhat.grid
    scale = float(np.prod(g.n)) * g.cell_volume
    out = _centered_fft(fhat.values, axes=tuple(range(g.dim)), inverse=True) * scale
    return SampledFunction(g.dual(), out)


def tf_shift(values: np.ndarray, grid: GridSpec, centers) -> np.ndarray:
    """Apply pi(a, b) f = exp(2 pi i b.t) f(t - a) on the trailing grid axes of ``values``.

    ``values`` is one function on ``grid`` or an (M,) + grid.shape stack, and
    ``centers`` one phase-space point (a, b) of 2d coordinates or an (M, 2d)
    array of them; the leading shapes broadcast, so one window and M centers
    give M atoms.  The time shift must land on the grid (a an integer multiple
    of the spacing); callers snap off-grid centers themselves so the snap is a
    visible decision, not a silent one.
    """
    d = grid.dim
    values = np.asarray(values)
    centers = np.asarray(centers, dtype=float)
    if values.shape[values.ndim - d :] != grid.shape:
        raise GridMismatchError(f"values of shape {values.shape} do not hold samples of grid {grid.shape}")
    if centers.ndim not in (1, 2) or centers.shape[-1] != 2 * d:
        raise ValueError(f"centers of shape {centers.shape} are not (2d,) or (M, 2d) rows for a {d}-D grid")
    if not np.isfinite(centers).all():
        raise ValueError("phase-space coordinates must be finite")
    ratio = centers[..., :d] / np.array(grid.step)
    nearest = np.round(ratio)
    off = np.abs(ratio - nearest) > 1e-9 * np.maximum(1.0, np.abs(ratio))
    if off.any():
        raise ValueError(f"time shifts {centers[..., :d][off]} are not multiples of spacing {grid.step}")
    try:
        lead = np.broadcast_shapes(values.shape[: values.ndim - d], centers.shape[:-1])
    except ValueError:
        raise ValueError(f"{centers.shape[:-1]} centers do not match values of shape {values.shape}") from None
    values = np.broadcast_to(values, lead + grid.shape)
    shifts = np.broadcast_to(nearest.astype(int), lead + (d,))
    freqs = np.broadcast_to(centers[..., d:], lead + (d,))
    axes, mesh = tuple(range(d)), grid.mesh()
    # row by row into one output: a whole-stack gather and phase would hold several stacks
    out = np.empty(lead + grid.shape, dtype=complex)
    for idx in np.ndindex(lead):
        row = np.roll(values[idx], tuple(shifts[idx]), axis=axes)
        for coords, b in zip(mesh, freqs[idx]):
            row = row * np.exp(2j * np.pi * b * coords)
        out[idx] = row
    return out


def snap_to_grid(grid: GridSpec, centers) -> np.ndarray:
    """Round the time columns of (2d,) or (M, 2d) centers to the nearest grid multiple per axis."""
    snapped = np.array(centers, dtype=float)
    step = np.array(grid.step)
    snapped[..., : grid.dim] = np.round(snapped[..., : grid.dim] / step) * step
    return snapped


def _lattice_reach(window: float, pitch: float) -> int:
    """floor(window / pitch), taking a ratio within 1e-9 (relative) of an integer as that integer.

    0.3 / 0.1 is 2.9999999999999996; a plain floor would drop the outer ring
    of lattice points that lies on the window's edge.
    """
    ratio = window / pitch
    if not math.isfinite(ratio):
        raise ValueError(f"window {window!r} over pitch {pitch!r} is not a finite number of lattice steps")
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= 1e-9 * ratio else math.floor(ratio)


def null_space_floor(w_max: float, order: int) -> float:
    """w_max * order * eps: eigenvalues of an order x order Gramian up to this are roundoff, its null space."""
    return w_max * order * np.finfo(float).eps


def gaussian_window(grid: GridSpec) -> SampledFunction:
    """The unit-norm Gaussian ``2**(d/4) exp(-pi |x|^2)`` sampled on ``grid``."""
    values = 2.0 ** (grid.dim / 4.0) * np.exp(-np.pi * grid.radius_squared())
    return SampledFunction(grid, values.astype(np.complex128))
