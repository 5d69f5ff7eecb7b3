"""pslab: numerics for phase-space localization of function systems."""

__version__ = "0.1.0"

from .grid import (
    GridMismatchError,
    GridSpec,
    SampledFunction,
    fourier_transform,
    gaussian_window,
    inner_product,
    inverse_fourier_transform,
    snap_to_grid,
    tf_shift,
)

__all__ = [
    "GridMismatchError",
    "GridSpec",
    "SampledFunction",
    "fourier_transform",
    "gaussian_window",
    "inner_product",
    "inverse_fourier_transform",
    "snap_to_grid",
    "tf_shift",
    "__version__",
]
