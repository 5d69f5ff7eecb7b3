"""Beurling-type density estimates and separation statistics for point sets.

A finite point set in phase space only supports density estimates at a fixed
cube radius, so every estimate carries its radius and experiments reason
about trends over radii instead of a single limiting number.  Cubes are
half-open, ``[x - r, x + r)`` per axis, which keeps lattice counts exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import _write_csv


@dataclass
class PhasePointSet:
    """A finite multiset of phase-space points inside the cube Q(0, window).

    ``coords`` is the (npoints, 2*dim) array with time coordinates first,
    then frequency coordinates.
    """

    coords: np.ndarray
    window: float
    dim: int = 1

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        if coords.size == 0:
            coords = coords.reshape(0, 2 * self.dim)
        if coords.shape[1] != 2 * self.dim:
            raise ValueError(f"expected {2 * self.dim} columns, got {coords.shape[1]}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("point coordinates must be finite")
        if not (self.window > 0):
            raise ValueError("observation window must be positive")
        if coords.size and (coords.min() < -self.window or coords.max() >= self.window):
            raise ValueError("points must lie inside the half-open window cube")
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    def save_csv(self, path) -> None:
        d = self.dim
        header = ",".join([f"a_{j + 1}" for j in range(d)] + [f"b_{j + 1}" for j in range(d)])
        rows = [",".join(repr(float(v)) for v in row) for row in self.coords]
        _write_csv(path, header, rows, ())

    @classmethod
    def load_csv(cls, path, window: float | None = None) -> "PhasePointSet":
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
        if not rows:
            raise ValueError(f"no data rows in {path}")
        header = [h.strip() for h in rows[0]]
        ncols = len(header)
        if ncols % 2 or not header[0].startswith("a_"):
            raise ValueError(f"expected columns a_1..a_d,b_1..b_d, got {header}")
        dim = ncols // 2
        data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=np.float64)
        if window is None:
            window = math.floor(np.max(np.abs(data))) + 1.0 if data.size else 1.0
        return cls(data, window, dim)


@dataclass(frozen=True)
class DensityEstimate:
    """Count-per-volume extremes of Q(x, r) windows scanned over the interior."""

    radius: float
    upper: float
    lower: float
    interior_margin: float

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper and math.isfinite(self.upper)):
            raise ValueError("density estimates must satisfy 0 <= lower <= upper < inf")

    @property
    def midpoint(self) -> float:
        """Point estimate: center of the [lower, upper] bracket."""
        return 0.5 * (self.lower + self.upper)


def scan_bins(window: float, r: float) -> int:
    """Bins per axis of density_estimate's pitch-r/4 histogram over Q(0, window)."""
    return int(math.ceil(8 * window / r - 1e-9))


def density_estimate(lam: PhasePointSet, r: float) -> DensityEstimate:
    """Max and min of count(Q(x, r)) / (2r)^{2d} over a pitch r/4 scan lattice.

    Scan centers keep Q(x, r) inside the observation window, so both extremes
    are interior statistics; the retained margin is reported alongside.
    Counts are exact: points are binned at pitch r/4 (half-open) and each cube
    is a block sum of 8 consecutive bins per axis.
    """
    W = lam.window
    if not (0 < r <= W / 2):
        raise ValueError(f"radius {r} outside (0, window/2] for window {W}")
    ndim = 2 * lam.dim
    pitch = r / 4.0
    nbins = scan_bins(W, r)
    block = np.zeros((nbins,) * ndim)
    if len(lam):
        idx = np.floor((lam.coords + W) / pitch).astype(np.int64)
        np.clip(idx, 0, nbins - 1, out=idx)
        np.add.at(block, tuple(idx.T), 1.0)
    # block sums over 8 bins per axis: differences of slices of one
    # cumulative sum with a leading zero
    for ax in range(ndim):
        cut = (slice(None),) * ax
        csum = np.zeros(block.shape[:ax] + (block.shape[ax] + 1,) + block.shape[ax + 1 :])
        np.cumsum(block, axis=ax, out=csum[cut + (slice(1, None),)])
        block = csum[cut + (slice(8, None),)] - csum[cut + (slice(None, -8),)]
    volume = (2.0 * r) ** ndim
    return DensityEstimate(
        radius=r,
        upper=float(block.max()) / volume,
        lower=float(block.min()) / volume,
        interior_margin=W - r,
    )


def _sweep_axes(columns: Sequence[np.ndarray]) -> int:
    """Exact max count over the unit cubes whose lower corners are point coordinates.

    One column is one sort: the points >= xs[j] start at the first index of
    xs[j]'s run of ties, so "stop index - j" undercounts inside a run and is
    exact at its first index.  With more columns, the first is sorted and cut
    into the slabs [x0, x0+1), one per distinct x0 (``searchsorted`` with
    side="left" gives the half-open bounds), and the sweep recurses on the
    remaining columns of each slab, largest slab first, stopping at the first
    slab holding no more points than the best count found.
    """
    if len(columns) == 1:
        xs = np.sort(columns[0])
        return int((np.searchsorted(xs, xs + 1.0, "left") - np.arange(xs.size)).max())
    order = np.argsort(columns[0], kind="stable")
    xs = columns[0][order]
    lo = np.searchsorted(xs, xs, "left")
    hi = np.searchsorted(xs, xs + 1.0, "left")
    first = np.flatnonzero(lo == np.arange(xs.size))
    first = first[np.argsort(lo[first] - hi[first], kind="stable")]
    rest = [c[order] for c in columns[1:]]
    best = 0
    for start, stop in zip(lo[first].tolist(), hi[first].tolist()):
        if stop - start <= best:
            break
        best = max(best, _sweep_axes([c[start:stop] for c in rest]))
    return best


def separation_stat(lam: PhasePointSet) -> int:
    """Exact max of card(Λ ∩ (x + [0,1)^{2d})) over all cube positions x.

    The count changes only when a cube face crosses a point coordinate and a
    maximizing cube can be slid until its lower faces touch points, so the
    sweep over observed coordinates is exhaustive rather than sampled.  Every
    axis but the last is cut into sorted slabs, one per distinct lower face,
    and the last is counted by one sort; a slab of s points costs one
    O(s log s) sort, and slabs no larger than the best count are skipped.
    """
    if len(lam) == 0:
        raise ValueError("separation_stat needs a nonempty point set")
    return _sweep_axes([lam.coords[:, j] for j in range(lam.coords.shape[1])])


def density_trend(lam: PhasePointSet, radii: Sequence[float]) -> list[DensityEstimate]:
    """density_estimate at each radius; radii must be strictly increasing."""
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return [density_estimate(lam, r) for r in radii]


def lattice_point_set(spacings: Sequence[float], window: float, jitter: float = 0.0, seed: int | None = None) -> PhasePointSet:
    """All points of the rectangular lattice prod(spacings[i] * Z) inside Q(0, window).

    Optional uniform jitter in [-jitter, jitter) per coordinate (seeded);
    jittered points are clamped inside the half-open window.
    """
    ndim = len(spacings)
    if ndim % 2:
        raise ValueError("need one spacing per phase-space axis (2 per dim)")
    axes = []
    for s in spacings:
        if s <= 0:
            raise ValueError("lattice spacings must be positive")
        kmax = math.ceil(window / s)
        pts = np.arange(-kmax, kmax + 1) * s
        axes.append(pts[(pts >= -window) & (pts < window)])
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    if jitter > 0:
        rng = np.random.default_rng(seed)
        coords = coords + rng.uniform(-jitter, jitter, coords.shape)
        eps = 1e-12 * max(1.0, window)
        np.clip(coords, -window, window - eps, out=coords)
    return PhasePointSet(coords, window, ndim // 2)
