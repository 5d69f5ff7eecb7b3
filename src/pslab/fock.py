"""Normalized reproducing-kernel Grams on finite windows of the Fock plane.

Points are complex arrays of z = x + iy; the normalized kernel at z has unit
norm, so Gram entries live in the closed unit disk and their moduli depend
only on pairwise distances.  Index conventions match the function-system
Gramian: G[m, n] pairs member n against member m.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .grid import null_space_floor


def _lattice_reach(window: float, pitch: float) -> int:
    """floor(window / pitch), taking a ratio within 1e-9 (relative) of an integer as that integer.

    0.3 / 0.1 is 2.9999999999999996; a plain floor would drop the outer ring
    of lattice points that lies on the window's edge.
    """
    ratio = window / pitch
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= 1e-9 * ratio else math.floor(ratio)


def lattice_points(alpha: float, window: float) -> np.ndarray:
    """The square lattice alpha (Z + iZ) clipped to the disk |z| <= window, m-major: alpha (m + ik)."""
    if alpha <= 0:
        raise ValueError(f"lattice pitch must be positive, got {alpha}")
    if not (window > 0 and math.isfinite(window)):
        raise ValueError(f"window radius must be positive and finite, got {window}")
    reach = _lattice_reach(window, alpha)
    k = alpha * np.arange(-reach, reach + 1)
    lam = np.add.outer(k, 1j * k).ravel()
    return lam[np.abs(lam) <= window + 1e-12]


class SweepRow(NamedTuple):
    alpha: float
    density: float
    lower: float
    upper: float
    condition: float


def gaussian_atom_gram(a, b) -> np.ndarray:
    """Closed-form Gram of the atoms e^{2 pi i b t} g(t - a), g = 2^{1/4} e^{-pi t^2}.

    G[m, n] = exp(-pi |z_n - z_m|^2 / 2) exp(i pi (b_n - b_m)(a_n + a_m)) with
    z = (a, b), the inner product of atom n with atom m.  Under the Bargmann
    isometry this is D* K D, K the normalized Fock kernel Gram at
    lam = a - i b and D = diag(exp(i pi a_n b_n)).  When every phase is an
    exact multiple of pi (lattices with integer alpha * beta) the Gram is
    returned real, with signs taken from the integer parity, not from exp.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    db = np.subtract.outer(b, b)
    # turns[m, n] = (b_m - b_n)(a_m + a_n): minus the phase of entry [m, n], over pi
    turns = db * np.add.outer(a, a)
    modulus = np.subtract.outer(a, a) ** 2
    modulus += db**2
    del db
    modulus *= -0.5 * np.pi
    np.exp(modulus, out=modulus)
    if not np.fmod(turns, 1.0).any():
        np.negative(modulus, out=modulus, where=np.fmod(turns, 2.0) != 0)
        return modulus
    G = -1j * np.pi * turns
    del turns
    np.exp(G, out=G)
    G *= modulus
    return G


def fock_gram(lam) -> np.ndarray:
    """Closed-form Gram of the normalized kernels at distinct finite points: :func:`_kernel_block` (lam, lam)."""
    lam = np.asarray(lam, dtype=complex)
    if lam.size < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(lam).all():
        raise ValueError("points must be finite")
    dist = np.abs(np.subtract.outer(lam, lam))
    np.fill_diagonal(dist, np.inf)
    if dist.min() < 1e-12:
        raise ValueError("duplicate points make the kernel Gram singular")
    return _kernel_block(lam, lam)


# Rows of the orbit terms evaluated at a time by rotation_blocks.
_SLAB_ROWS = 128


def _kernel_block(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """K[m, n] = (k_{t_n}, k_{r_m}) = exp(pi r_m conj(t_n) - pi(|r_m|^2 + |t_n|^2)/2).

    The phase is antisymmetric in (r, t) term by term, so K(lam, lam) is
    exactly Hermitian with an exactly unit diagonal.
    """
    dist2 = np.abs(np.subtract.outer(r, t)) ** 2
    phase = np.multiply.outer(r.imag, t.real) - np.multiply.outer(r.real, t.imag)
    return np.exp(-0.5 * np.pi * dist2 + 1j * np.pi * phase)


def rotation_blocks(reps: np.ndarray, origin: bool) -> list[np.ndarray]:
    """The four character blocks of the kernel Gram of a set invariant under z -> iz.

    The set is the orbits {r, ir, -r, -ir} of the points ``reps``, plus 0 when
    ``origin`` is set.  Since K(i lam, i mu) = K(lam, mu), the rotation commutes
    with the Gram, which is block diagonal in the orthonormal vectors
    (1/2) sum_j i^{jk} e_{i^j s}, k = 0..3:

        B_k[r, s] = sum_j i^{jk} K[r, i^j s].

    The origin is fixed, so it joins block 0 only, as its first row and column
    (B_0[0, s] = 2 K[0, s]).  The union of the four spectra is the spectrum of
    the full Gram, which is never formed.
    """
    reps = np.asarray(reps, dtype=complex)
    size = reps.size
    b0 = np.empty((size + origin, size + origin), dtype=complex)
    b1, b2, b3 = (np.empty((size, size), dtype=complex) for _ in range(3))
    # rows in slabs, so the orbit terms e_j = K[r, i^j s] stay small beside the blocks
    for lo in range(0, size, _SLAB_ROWS):
        rows = slice(lo, lo + _SLAB_ROWS)
        e0, e1, e2, e3 = (_kernel_block(reps[rows], t) for t in (reps, 1j * reps, -reps, -1j * reps))
        s02, d02, s13, d13 = e0 + e2, e0 - e2, e1 + e3, 1j * (e1 - e3)
        b0[origin:, origin:][rows] = s02 + s13
        b1[rows] = d02 + d13
        b2[rows] = s02 - s13
        b3[rows] = d02 - d13
    if origin:
        b0[0, 0] = 1.0
        b0[0, 1:] = b0[1:, 0] = 2.0 * np.exp(-0.5 * np.pi * np.abs(reps) ** 2)
    return [b0, b1, b2, b3]


def _rotation_orbits(lam: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """One point per orbit {p, ip, -p, -ip} (those with Re > 0, Im >= 0) and whether 0 is present.

    None unless the points are distinct and their set is exactly invariant
    under z -> iz: multiplying by i only swaps and negates coordinates, so the
    test is exact.
    """
    reps = lam[(lam.real > 0) & (lam.imag >= 0)]
    origin = bool((lam == 0).any())
    orbits = np.concatenate([reps, 1j * reps, -reps, -1j * reps, np.zeros(int(origin))])
    if orbits.size != lam.size:
        return None
    given = lam[np.lexsort((lam.imag, lam.real))]
    rotated = orbits[np.lexsort((orbits.imag, orbits.real))]
    if not np.array_equal(given, rotated) or (np.diff(given) == 0).any():
        return None
    return reps, origin


def sampling_bounds(lam) -> tuple[float, float]:
    """Riesz-sequence bounds of the normalized kernel family at the points ``lam``.

    A set invariant under z -> iz (every square lattice from
    :func:`lattice_points`) takes the extreme eigenvalues of the four blocks
    of :func:`rotation_blocks`; any other set those of :func:`fock_gram`.
    """
    lam = np.asarray(lam, dtype=complex)
    orbits = _rotation_orbits(lam) if lam.size else None
    blocks = [fock_gram(lam)] if orbits is None else rotation_blocks(*orbits)
    spectrum = np.concatenate([np.linalg.eigvalsh(block) for block in blocks])
    return float(spectrum.min()), float(spectrum.max())


def lattice_sweep(alpha_values: Sequence[float], window: float) -> list[SweepRow]:
    """Bounds and conditioning of square lattices clipped to the window.

    A smallest eigenvalue at or below :func:`~pslab.grid.null_space_floor` of
    the M points, the floor of :func:`~pslab.frames.frame_bounds`, is roundoff
    and carries no bound: the row reports lower 0 and condition inf.
    """
    rows = []
    for alpha in alpha_values:
        points = lattice_points(alpha, window)
        lower, upper = sampling_bounds(points)
        if lower <= null_space_floor(upper, len(points)):
            lower = 0.0
        condition = upper / lower if lower > 0 else math.inf
        rows.append(SweepRow(float(alpha), 1.0 / float(alpha) ** 2, lower, upper, condition))
    return rows

