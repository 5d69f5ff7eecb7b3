"""Release acceptance: one end-to-end check per shipped guarantee.

Each test pins the quantitative behavior the package promises on a
laptop-scale problem; together with the module suites they are the gate a
build must clear.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from pslab.cli import main
from pslab.config import load_config
from pslab.corpus import hermite_functions, standard_corpus
from pslab.experiments import run
from pslab.fock import fock_gram, lattice_points, sampling_bounds
from pslab.frames import (
    commutation_ledger,
    dual_system,
    gramian,
    localization_fit,
)
from pslab.geometry import density_estimate, lattice_point_set
from pslab.grid import (
    GridSpec,
    SampledFunction,
    fourier_transform,
    gaussian_window,
    inner_product,
    inverse_fourier_transform,
    snap_to_grid,
    tf_shift,
)
from pslab.localization import modulation_norm
from pslab.operators import localization_operator, restriction_spectrum, restriction_trace
from pslab.stft import adjoint_stft, stft

GRID_1024 = GridSpec(1, 1024, 0.03125)
DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def read_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or "," not in line or line[0].isalpha():
            continue
        rows.append(line.split(","))
    return rows


@pytest.fixture(scope="module")
def restriction_eigenvalues():
    """Descending spectra for every (time, frequency) halfwidth pair used below."""
    out = {}
    for pair in ((1.0, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 3.0), (2.0, 4.0)):
        out[pair] = restriction_spectrum(GRID_1024, *pair)
    return out


def test_01_stft_inversion_roundtrip():
    window = gaussian_window(GRID_1024)
    corpus = standard_corpus(GRID_1024, seed=0)
    assert len(corpus) == 20
    start = time.perf_counter()
    worst = 0.0
    for f in corpus:
        rebuilt = adjoint_stft(stft(f, window), window)
        worst = max(worst, (rebuilt - f).norm() / f.norm())
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0


def test_02_restriction_trace_identity():
    for ht, hf in ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (2.0, 4.0), (4.0, 2.0), (3.0, 1.5)):
        area = 4.0 * ht * hf
        assert abs(restriction_trace(GRID_1024, ht, hf) - area) / area < 0.02


def test_03_eigenvalue_plunge_counts(restriction_eigenvalues):
    for pair in ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (2.0, 4.0)):
        count = int(np.sum(restriction_eigenvalues[pair] > 0.5))
        area = 4.0 * pair[0] * pair[1]
        assert abs(count - area) <= max(2.0, 0.05 * area)
    ratios = []
    for R in (3.0, 4.0, 6.0):
        ev = restriction_eigenvalues[(R / 2, R / 2)]
        ratios.append(int(np.sum(ev >= 0.8)) / R**2)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(0.6 <= r <= 1.1 for r in ratios)


def test_04_lattice_density_estimates():
    unit = lattice_point_set((1.0, 1.0), 32.0)
    double = lattice_point_set((1.0, 0.5), 32.0)
    for r in (4.0, 8.0, 16.0):
        assert abs(density_estimate(unit, r).midpoint - 1.0) < 1.0 / r
        assert abs(density_estimate(double, r).midpoint - 2.0) < 1.0 / r


def test_05_commutation_residuals():
    grid = GridSpec(1, 256, 1 / 16)
    g = gaussian_window(grid)
    ghat = fourier_transform(g)
    xi = ghat.grid.axis_points(0)
    gprime = inverse_fourier_transform(SampledFunction(ghat.grid, 2j * np.pi * xi * ghat.values))
    xg = SampledFunction(grid, grid.axis_points(0) * g.values)
    value = inner_product(xg, gprime) + inner_product(gprime, xg)
    assert abs(value + 1.0) < 1e-6

    members = hermite_functions(grid, 64)
    # no boundary-mass warning: every member has under 2e-25 of its mass beyond
    # 3/4 of the half-extent, in time and in frequency
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ledger = commutation_ledger(members, members, grid)
    interior = ledger.per_n_identity_residual[: 64 // 4 + 1]
    assert interior.mean() < 0.05


def test_06_localization_error_law():
    # Lattice of Gaussian atoms with coefficients (1+|k|)^{-(s+1)}, the
    # borderline envelope whose cutoff error follows the (1+R)^{sigma-s} law.
    s, sigma, reach = 4.0, 1.0, 10
    grid = GridSpec(1, 1024, 0.03125)
    g = gaussian_window(grid)
    phi = None
    for m in range(-reach, reach + 1):
        for n in range(-reach, reach + 1):
            coeff = (1.0 + math.hypot(m, n)) ** (-(s + 1.0))
            atom = SampledFunction(grid, tf_shift(g.values, grid, [m, n])) * coeff
            phi = atom if phi is None else phi + atom
    phi = phi * (1.0 / phi.norm())
    radii = np.array([2.0, 3.0, 4.0, 5.0])
    errors = [modulation_norm(phi - localization_operator(phi, R), sigma) for R in radii]
    slope = np.polyfit(np.log1p(radii), np.log(errors), 1)[0]
    assert abs(slope - (sigma - s)) <= 0.3


def test_07_dual_decay_preservation():
    centers = np.array([(k, 0.0) for k in range(-8, 9)], dtype=float)
    dist = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    gram = (1.0 + dist) ** -5.0
    inverse_fit = localization_fit(np.linalg.inv(gram), centers)
    assert inverse_fit.exponent >= 4.5
    assert inverse_fit.r2 > 0.9

    grid = GridSpec(1, 256, 1 / 16)
    rng = np.random.default_rng(7)
    step = math.sqrt(2)
    points = []
    for m in range(-4, 5):
        for k in range(-4, 5):
            a = step * m + rng.uniform(-0.1, 0.1)
            b = step * k + rng.uniform(-0.1, 0.1)
            if abs(a) > 6.5 or abs(b) > 6.5:
                continue
            points.append([a, b])
    centers = snap_to_grid(grid, points)
    members = tf_shift(gaussian_window(grid).values, grid, centers)
    primal = localization_fit(gramian(members, grid), centers)
    dual = localization_fit(gramian(dual_system(members, grid), grid), centers)
    assert primal.exponent >= 6.0
    assert dual.exponent >= 4.0


def test_08_critical_moment_growth(tmp_path):
    critical = tmp_path / "critical.cfg"
    critical.write_text(
        "[balian-low]\nalpha = 1.0\nbeta = 1.0\nwindows = 8 32\n"
    )
    control = tmp_path / "control.cfg"
    control.write_text(
        "[balian-low]\nalpha = 0.5\nbeta = 0.5\nwindows = 8 32\n"
    )
    moments = {}
    for name, cfg in (("critical", critical), ("control", control)):
        run(load_config(cfg, "balian-low"), tmp_path / name)
        rows = read_rows(tmp_path / name / "balian_low.csv")
        moments[name] = {int(r[0]): float(r[2]) for r in rows}
    growth = moments["critical"][32] / moments["critical"][8] - 1.0
    change = abs(moments["control"][32] / moments["control"][8] - 1.0)
    assert growth > 0.20
    assert change < 0.05


def test_09_kernel_lattice_bounds():
    lower = {}
    for W in (4.0, 8.0, 16.0):
        lower[W], _ = sampling_bounds(lattice_points(1.0, W))
    # Quadratic Zak zero at (1/2, 1/2) => A(W) ~ c/(W+k)^2, so A(2W)/A(W) tends to 1/4 from above.
    assert 0.25 < lower[16.0] / lower[8.0] < lower[8.0] / lower[4.0] < 0.30

    wide = {}
    for W in (4.0, 6.0, 8.0):
        wide[W], _ = sampling_bounds(lattice_points(1.2, W))
    drift = max(abs(wide[W] - wide[4.0]) / wide[4.0] for W in (6.0, 8.0))
    assert drift < 0.20

    rng = np.random.default_rng(3)
    pts = set()
    while len(pts) < 12:
        a = rng.integers(-8, 9) / 4
        b = rng.integers(-8, 9) / 4
        if a * a + b * b <= 4.0:
            pts.add((float(a), float(b)))
    pts = sorted(pts)
    grid = GridSpec(1, 256, 1 / 16)
    g = gaussian_window(grid)
    members = tf_shift(g.values, grid, pts)
    kernel_gram = fock_gram([complex(a, -b) for a, b in pts])
    deviation = np.abs(np.abs(kernel_gram) - np.abs(gramian(members, grid))).max()
    assert deviation < 0.05


def test_10_cli_reproducibility(tmp_path):
    experiments = (
        "balian-low",
        "trace-check",
        "plunge-count",
        "density",
        "improve",
        "dual-decay",
        "uncertainty-sum",
        "fock-sweep",
    )
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        for exp in experiments:
            assert main([exp, "--config", str(DEFAULT_CFG), "--out", str(out)]) == 0
    first = sorted(p.name for p in outs[0].iterdir())
    second = sorted(p.name for p in outs[1].iterdir())
    assert first == second == sorted(f"{exp.replace('-', '_')}.csv" for exp in experiments)
    for name in first:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
