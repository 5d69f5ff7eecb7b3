"""Deterministic test-function builders shared by tests and experiments."""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec, SampledFunction, gaussian_window, inverse_fourier_transform, snap_to_grid, tf_shift


def hermite_functions(grid: GridSpec, count: int) -> np.ndarray:
    """First `count` Hermite functions, orthonormal for the e^{-pi x^2} scaling, as a (count,) + grid.shape stack.

    Built by the normalized three-term recurrence
    h_{k+1} = x sqrt(4 pi / (k+1)) h_k - sqrt(k / (k+1)) h_{k-1},
    seeded with h_0 = 2^{1/4} e^{-pi x^2}.  The Fourier transform acts on h_k
    as multiplication by (-i)^k.
    """
    if grid.dim != 1:
        raise ValueError("hermite_functions is one-dimensional")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    x = grid.axis_points(0)
    values = np.empty((count,) + grid.shape, dtype=complex)
    values[0] = 2.0**0.25 * np.exp(-math.pi * x**2)
    if count > 1:
        values[1] = 2.0**1.25 * math.sqrt(math.pi) * x * np.exp(-math.pi * x**2)
    for k in range(1, count - 1):
        values[k + 1] = x * math.sqrt(4.0 * math.pi / (k + 1)) * values[k] - math.sqrt(k / (k + 1.0)) * values[k - 1]
    return values


def two_bump(grid: GridSpec, separation: float = 3.0) -> SampledFunction:
    """Unit-norm sum of two Gaussians centered at +-separation."""
    centers = np.zeros((2, 2 * grid.dim))
    centers[:, : grid.dim] = [[separation], [-separation]]
    pair = tf_shift(gaussian_window(grid).values, grid, snap_to_grid(grid, centers))
    f = SampledFunction(grid, pair.sum(axis=0))
    return f * (1.0 / f.norm())


def random_bandlimited(grid: GridSpec, seed: int, bandlimit: float = 4.0) -> SampledFunction:
    """Unit-norm function with random spectrum supported in |xi| <= bandlimit."""
    rng = np.random.default_rng(seed)
    dual = grid.dual()
    spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    spec[dual.radius_squared() > bandlimit**2] = 0.0
    f = inverse_fourier_transform(SampledFunction(dual, spec))
    return f * (1.0 / f.norm())


def standard_corpus(grid: GridSpec, seed: int = 0) -> list[SampledFunction]:
    """The 20-function corpus: Hermites, shifted Gaussians, bumps, noise.

    Deterministic given (grid, seed); all members have unit norm up to the
    Hermite discretization error.
    """
    if grid.dim != 1:
        raise ValueError("standard_corpus is one-dimensional")
    members = [SampledFunction(grid, v) for v in hermite_functions(grid, 6)]
    centers = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.5, -2.0), (-2.5, 0.5), (0.5, 3.0)]
    shifted = tf_shift(gaussian_window(grid).values, grid, snap_to_grid(grid, centers))
    members.extend(SampledFunction(grid, v) for v in shifted)
    members.append(two_bump(grid, 3.0))
    members.append(two_bump(grid, 2.0))
    members.extend(random_bandlimited(grid, seed + k) for k in range(6))
    return members
