"""The two loop-heavy kernels: Bargmann quadrature and the unit-cube sweep."""

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


def max_cube_count_2axes(xs: np.ndarray, ys: np.ndarray) -> int:
    """Exact max of |points in [x,x+1) x [y,y+1)| over all cube positions.

    The count only changes when a cube face crosses a point coordinate, and a
    maximizing cube can always be slid until its lower faces touch points, so
    sweeping corners over the observed coordinates is exhaustive.
    """
    xs = np.asarray(xs, np.float64)
    ys = np.asarray(ys, np.float64)
    best = 0
    for x0 in xs:
        in_slab = (xs >= x0) & (xs < x0 + 1.0)
        if int(in_slab.sum()) <= best:
            continue
        sub = ys[in_slab]
        for y0 in sub:
            c = int(((sub >= y0) & (sub < y0 + 1.0)).sum())
            if c > best:
                best = c
    return best
