"""Normalized reproducing-kernel Grams on finite windows of the Fock plane.

Points are complex numbers z = x + iy; the normalized kernel at z has unit
norm, so Gram entries live in the closed unit disk and their moduli depend
only on pairwise distances.  Index conventions match the function-system
Gramian: G[m, n] pairs member n against member m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


@dataclass(frozen=True)
class FockPointSet:
    """Finitely many complex points inside the disk of radius ``window``."""

    points: tuple[complex, ...]
    window: float

    def __init__(self, points, window):
        points = tuple(complex(p) for p in points)
        window = float(window)
        if not (window > 0 and math.isfinite(window)):
            raise ValueError(f"window radius must be positive and finite, got {window}")
        for p in points:
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError("points must be finite")
            if abs(p) > window + 1e-12:
                raise ValueError(f"point {p} lies outside the window disk of radius {window}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "window", window)

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)

    @classmethod
    def from_lattice(cls, alpha: float, window: float) -> "FockPointSet":
        """The square lattice alpha*(Z + iZ) clipped to the window disk."""
        if alpha <= 0:
            raise ValueError(f"lattice pitch must be positive, got {alpha}")
        reach = int(math.floor(window / alpha))
        pts = [
            alpha * (m + 1j * k)
            for m in range(-reach, reach + 1)
            for k in range(-reach, reach + 1)
            if abs(alpha * (m + 1j * k)) <= window + 1e-12
        ]
        return cls(pts, window)


@dataclass
class FockGram:
    """Hermitian Gram of normalized kernels with its extreme eigenvalues."""

    matrix: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        diag = np.diagonal(self.matrix)
        if np.abs(diag - 1.0).max() > 1e-12:
            raise ValueError("normalized kernels must have unit diagonal")
        if np.abs(self.matrix).max() > 1 + 1e-12:
            raise ValueError("kernel Gram entries cannot exceed modulus 1")
        if self.lower < -1e-10:
            raise ValueError(f"Gram is not positive semidefinite: min eigenvalue {self.lower}")
        if self.lower > self.upper:
            raise ValueError("bounds out of order")


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


def fock_gram(point_set: FockPointSet) -> FockGram:
    """Closed-form Gram (k_lam, k_mu) = exp(pi mu~ lam - pi(|lam|^2+|mu|^2)/2).

    Built as D G D* from :func:`gaussian_atom_gram` at a = Re lam, b = -Im lam.
    """
    if len(point_set) < 1:
        raise ValueError("need at least one point")
    lam = point_set.as_array()
    dist = np.abs(lam[:, None] - lam[None, :])
    if len(point_set) > 1:
        closest = dist[~np.eye(len(point_set), dtype=bool)].min()
        if closest < 1e-12:
            raise ValueError("duplicate points make the kernel Gram singular")
    a, b = lam.real, -lam.imag
    phase = np.exp(1j * np.pi * a * b)
    G = phase[:, None] * gaussian_atom_gram(a, b) * np.conj(phase)[None, :]
    G = 0.5 * (G + np.conj(G).T)
    eigs = np.linalg.eigvalsh(G)
    return FockGram(G, float(eigs[0]), float(eigs[-1]))


def sampling_bounds(point_set: FockPointSet) -> tuple[float, float]:
    """Riesz-sequence bounds of the normalized kernel family."""
    gram = fock_gram(point_set)
    return gram.lower, gram.upper


def lattice_sweep(alpha_values: Sequence[float], window: float) -> list[SweepRow]:
    """Bounds and conditioning of square lattices clipped to the window."""
    rows = []
    for alpha in alpha_values:
        lower, upper = sampling_bounds(FockPointSet.from_lattice(alpha, window))
        condition = upper / lower if lower > 0 else math.inf
        rows.append(SweepRow(float(alpha), 1.0 / float(alpha) ** 2, lower, upper, condition))
    return rows

