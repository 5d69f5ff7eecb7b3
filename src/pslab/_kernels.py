"""The two loop-heavy kernels: Bargmann quadrature and the sorted unit-cube sweep."""

from __future__ import annotations

import numpy as np


def bargmann_sum(tpts: np.ndarray, weights: np.ndarray, zre: np.ndarray, zim: np.ndarray) -> np.ndarray:
    """Sum_t weights[t] * exp(2 pi t z) on the rectangle zre x zim."""
    tpts = np.asarray(tpts, np.float64)
    weights = np.asarray(weights, np.complex128)
    zre = np.asarray(zre, np.float64)
    zim = np.asarray(zim, np.float64)
    # exp(2 pi t (x+iy)) factors into a real and a modulation part, so the
    # double sum is a single complex matmul.
    growth = np.exp(2.0 * np.pi * np.outer(tpts, zre)) * weights[:, None]
    modulation = np.exp(2.0j * np.pi * np.outer(tpts, zim))
    return (growth.astype(np.complex128).T @ modulation).astype(np.complex128)


def unit_slabs(xs: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Sort ``xs`` and cut it into the slabs [x0, x0+1) with x0 a point coordinate.

    Returns the sorting permutation and one (start, stop) range of the sorted
    order per distinct x0, largest slab first.  The bounds come from
    ``searchsorted`` with side="left", i.e. the half-open tests x >= x0 and
    x < x0 + 1.0.
    """
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    lo = np.searchsorted(xs, xs, "left")
    hi = np.searchsorted(xs, xs + 1.0, "left")
    first = np.flatnonzero(lo == np.arange(xs.size))  # one slab per distinct x0
    first = first[np.argsort(lo[first] - hi[first], kind="stable")]
    return order, list(zip(lo[first].tolist(), hi[first].tolist()))


def max_cube_count_2axes(xs: np.ndarray, ys: np.ndarray) -> int:
    """Exact max of |points in [x,x+1) x [y,y+1)| over all cube positions.

    The count only changes when a cube face crosses a point coordinate, and a
    maximizing cube can always be slid until its lower faces touch points, so
    sweeping corners over the observed coordinates is exhaustive.  Each slab
    [x0, x0+1) is a contiguous run of the x-sorted points; sorting its s y
    values and one ``searchsorted`` count every [y0, y0+1) at once, O(s log s)
    per slab.  Slabs come largest first, so the sweep stops at the first slab
    holding no more points than the best cube found.
    """
    xs = np.asarray(xs, np.float64)
    ys = np.asarray(ys, np.float64)
    order, slabs = unit_slabs(xs)
    ys = ys[order]
    best = 0
    for start, stop in slabs:
        if stop - start <= best:
            break
        sub = np.sort(ys[start:stop])
        # the points >= sub[j] start at the first index of sub[j]'s run of
        # ties, so "stop index - j" undercounts inside a run and is exact at
        # its first index
        counts = np.searchsorted(sub, sub + 1.0, "left") - np.arange(sub.size)
        best = max(best, int(counts.max()))
    return best
