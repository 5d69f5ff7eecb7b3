"""The four workloads, the inputs they generate from the seed, and their output checks.

Every output check reads CSV text only.  Values are compared to
``reference.json``, recorded from the seed-0 outputs of the commit that
introduced this benchmark:

* a value written as an integer must match exactly (plunge counts, member
  counts, the separation statistic);
* a float matches when ``|x - ref| <= rtol * |ref| + ATOL``; ATOL covers the
  roundoff-level residuals several experiments report.  ``rtol`` is RTOL,
  except for the jobs in LOOSE_RTOL;
* a reference at or beyond SINGULAR in magnitude, or infinite, matches any
  value of the same sign at or beyond SINGULAR: it is the condition number
  of a numerically singular Gram, set by the roundoff of its smallest
  eigenvalue.  SINGULAR is the condition cap pslab.frames itself applies;
* labels must match exactly.

The tolerances were set by rerunning the seed-0 jobs under other OpenBLAS
kernels (OPENBLAS_CORETYPE Haswell, Prescott, Sandybridge) and thread
counts: apart from the cases above, no value moved by more than 2e-10
relative.

Outputs that depend on the seed are held to the reference only at seed 0.
At other seeds they must keep the reference's shape and labels and stay
finite, and the kernels-lib outputs are recomputed by the oracles below.
"""

from __future__ import annotations

import configparser
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
RTOL, ATOL, SINGULAR = 1e-6, 1e-9, 1e10
# dual-decay fits log|G| over entries down to pslab's 1e-12 Gram floor, so its
# fit constants move by a few 1e-6 when the BLAS kernel changes.
LOOSE_RTOL = {"cli-default/dual-decay": 1e-4}

DEFAULT_EXPERIMENTS = (
    "balian-low",
    "trace-check",
    "plunge-count",
    "density",
    "improve",
    "dual-decay",
    "uncertainty-sum",
    "fock-sweep",
)
SEEDED_EXPERIMENTS = ("improve", "dual-decay")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" runs an experiment, "kernels-lib" runs job.py's library calls
    config: str  # relative to the checkout root
    experiment: str | None = None
    seeded: bool = False


WORKLOADS = {
    "cli-default": [
        Job(e, "cli", "configs/default.cfg", e, e in SEEDED_EXPERIMENTS) for e in DEFAULT_EXPERIMENTS
    ],
    "gram-scale": [
        Job("balian-low-critical", "cli", "perfbench/configs/gram-scale.cfg", "balian-low"),
        Job("balian-low-control", "cli", "perfbench/configs/gram-scale-control.cfg", "balian-low"),
        Job("fock-sweep", "cli", "perfbench/configs/gram-scale.cfg", "fock-sweep"),
    ],
    "spectra-scale": [
        Job("trace-check", "cli", "perfbench/configs/spectra-scale.cfg", "trace-check"),
        Job("plunge-count", "cli", "perfbench/configs/spectra-scale.cfg", "plunge-count"),
    ],
    "kernels-lib": [Job("kernels-lib", "kernels-lib", "perfbench/configs/kernels-lib.cfg", seeded=True)],
}


def kernels_params(root: Path) -> configparser.SectionProxy:
    params = configparser.ConfigParser()
    params.read(root / WORKLOADS["kernels-lib"][0].config)
    return params["kernels-lib"]


def jittered_lattice(params, seed: int) -> np.ndarray:
    """Square lattice of the given spacing inside [-W, W)^2, jittered uniformly."""
    spacing, window, jitter = (params.getfloat(k) for k in ("spacing", "window", "jitter"))
    axis = np.arange(-window, window, spacing)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([a.ravel(), b.ravel()], axis=1)
    points += np.random.default_rng(seed).uniform(-jitter, jitter, points.shape)
    return np.clip(points, -window, np.nextafter(window, -np.inf))


def make_inputs(workload: str, root: Path, seed: int, work: Path) -> Path | None:
    """Write the seeded inputs a workload's jobs read; None when it has none."""
    if workload != "kernels-lib":
        return None
    path = work / "inputs.npz"
    np.savez(path, points=jittered_lattice(kernels_params(root), seed))
    return path


# ---- CSV comparison ----------------------------------------------------------


def data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _is_int(token: str) -> bool:
    return re.fullmatch(r"-?\d+", token) is not None


def same_value(got: str, want: str, rtol: float = RTOL) -> bool:
    if _is_int(want):
        return got == want
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    if abs(w) >= SINGULAR:
        return abs(g) >= SINGULAR and (g > 0) == (w > 0)
    return abs(g - w) <= rtol * abs(w) + ATOL


def _same_shape(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return math.isfinite(g) == math.isfinite(w)


def compare_csv(got: str, want: list[str], exact: bool, rtol: float = RTOL) -> str | None:
    """First mismatch between CSV text and reference data lines, or None.

    ``exact`` compares every value; otherwise only the header, the row count,
    the first column and which values are finite.
    """
    lines = data_lines(got)
    if len(lines) != len(want):
        return f"{len(lines)} data lines, reference has {len(want)}"
    if lines[0] != want[0]:
        return f"header {lines[0]!r} != {want[0]!r}"
    for got_row, want_row in zip(lines[1:], want[1:]):
        g, w = got_row.split(","), want_row.split(",")
        if len(g) != len(w):
            return f"row {got_row!r} has {len(g)} fields, reference {len(w)}"
        for i, (a, b) in enumerate(zip(g, w)):
            ok = same_value(a, b, rtol) if exact or i == 0 else _same_shape(a, b)
            if not ok:
                return f"value {a} != reference {b} in row {got_row!r}"
    return None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_against_reference(reference: dict, key: str, job: Job, seed: int, files: dict) -> list[str]:
    """Problems with one job's CSV texts against the recorded reference."""
    want = reference.get(key)
    if want is None:
        return [f"{key}: no reference recorded"]
    if sorted(files) != sorted(want):
        return [f"{key}: wrote {sorted(files)}, reference has {sorted(want)}"]
    exact = not job.seeded or seed == REFERENCE_SEED
    problems = []
    for name, text in files.items():
        problem = compare_csv(text, want[name], exact, LOOSE_RTOL.get(key, RTOL))
        if problem:
            problems.append(f"{key}/{name}: {problem}")
    return problems


# ---- kernels-lib oracles -----------------------------------------------------


def max_unit_square_count(points: np.ndarray) -> int:
    """Max points in [x, x+1) x [y, y+1) by sorting and binary search.

    The maximum is attained with lower faces on point coordinates, as in
    pslab.geometry.separation_stat, but the sweep here is independent code.
    """
    order = np.argsort(points[:, 0], kind="stable")
    xs, ys = points[order, 0], points[order, 1]
    lo = np.searchsorted(xs, xs, side="left")
    hi = np.searchsorted(xs, xs + 1.0, side="left")
    best = 0
    for i in range(xs.size):
        slab = np.sort(ys[lo[i] : hi[i]])
        if slab.size <= best:
            continue
        counts = np.searchsorted(slab, slab + 1.0, side="left") - np.searchsorted(slab, slab, side="left")
        best = max(best, int(counts.max()))
    return best


def density_bracket(points: np.ndarray, window: float, r: float) -> tuple[float, float]:
    """(lower, upper) count per area of 8x8 blocks of pitch-r/4 bins, summed block by block."""
    pitch = r / 4.0
    nbins = int(math.ceil(2 * window / pitch - 1e-9))
    idx = np.clip(np.floor((points + window) / pitch).astype(np.int64), 0, nbins - 1)
    hist = np.zeros((nbins, nbins))
    np.add.at(hist, (idx[:, 0], idx[:, 1]), 1.0)
    side = nbins - 7
    block = sum(hist[i : i + side, j : j + side] for i in range(8) for j in range(8))
    area = (2.0 * r) ** 2
    return float(block.min()) / area, float(block.max()) / area


def bargmann_oracle(f, zre: float, zim: float) -> tuple[complex, float]:
    """Direct quadrature of the Bargmann transform at one z, and its error scale."""
    t = f.grid.axis_points()
    weights = f.values * np.exp(-np.pi * t * t) * f.grid.cell_volume
    z = complex(zre, zim)
    terms = weights * np.exp(2.0 * np.pi * t * z)
    prefactor = 2.0**0.25 * np.exp(-np.pi * z * z / 2.0)
    return complex(prefactor * terms.sum()), float(abs(prefactor) * np.abs(terms).sum())


class KernelsOracle:
    """Recomputes kernels-lib outputs at any seed: the separation statistic,
    the density brackets and the Bargmann field at the probe points."""

    def __init__(self, root: Path, seed: int):
        from pslab.corpus import standard_corpus
        from pslab.grid import GridSpec

        p = kernels_params(root)
        self.points = jittered_lattice(p, seed)
        self.window = p.getfloat("window")
        self.separation = max_unit_square_count(self.points)
        self.density = {float(r): density_bracket(self.points, self.window, float(r)) for r in p["radii"].split()}
        grid = GridSpec(1, p.getint("grid_n"), p.getfloat("grid_dx"))
        zr, side = p.getfloat("z_halfwidth"), p.getint("z_side")
        axis = -zr + (2 * zr / (side - 1)) * np.arange(side)
        probes = [tuple(int(v) for v in tok.split(",")) for tok in p["z_probes"].split()]
        self.fields = [
            [bargmann_oracle(f, axis[i], axis[j]) for i, j in probes] for f in standard_corpus(grid, seed)
        ]

    def check(self, files: dict) -> list[str]:
        try:
            return self._check(files)
        except (ValueError, IndexError) as exc:
            return [f"kernels-lib outputs unreadable: {exc}"]

    def _check(self, files: dict) -> list[str]:
        problems = []
        geometry = data_lines(files.get("geometry.csv", ""))
        if len(geometry) != 3 + len(self.density):
            return ["kernels-lib/geometry.csv: wrong line count"]
        points, separation = (int(v) for v in geometry[1].split(","))
        if points != len(self.points) or separation != self.separation:
            problems.append(f"separation_stat {separation} on {points} points, oracle {self.separation}")
        for line in geometry[3:]:
            r, lower, upper, _ = (float(v) for v in line.split(","))
            want = self.density.get(r)
            if want is None or not np.allclose((lower, upper), want, rtol=1e-12, atol=0):
                problems.append(f"density at r={r}: ({lower}, {upper}), oracle {want}")
        rows = data_lines(files.get("bargmann.csv", ""))[1:]
        if len(rows) != len(self.fields):
            return problems + [f"bargmann.csv has {len(rows)} members, expected {len(self.fields)}"]
        for k, (row, oracle) in enumerate(zip(rows, self.fields)):
            values = [float(v) for v in row.split(",")[2:]]
            for (want, scale), re_, im_ in zip(oracle, values[0::2], values[1::2]):
                if abs(complex(re_, im_) - want) > 1e-9 * scale:
                    problems.append(f"bargmann member {k}: {complex(re_, im_)} vs oracle {want}")
        return problems
