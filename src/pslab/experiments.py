"""Batch experiments behind the CLI: each builds one CSV from one config.

Each runner imports the library modules it calls inside its own body, so a
CLI process loads only what its one experiment needs.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from . import __version__
from ._csvio import _write_csv
from .config import ExperimentConfig
from .grid import GridSpec, SampledFunction, _lattice_reach, gaussian_window, snap_to_grid, tf_shift

# Bytes the largest dense step of any experiment may take: every runner checks
# its estimate against this one budget before it allocates.
GRAM_BYTES_LIMIT = 2**31
COMPLEX_BYTES = np.dtype(complex).itemsize
FLOAT_BYTES = np.dtype(float).itemsize

# What a runner returns: the CSV header, its data rows, and comment lines
# that follow the provenance block.
Table = tuple[str, list[str], list[str]]

_RECIPE = re.compile(r"^([a-z-]+)\(([^)]*)\)$|^([a-z-]+)$")


def corpus(recipe: str, grid: GridSpec, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic function system from a recipe string: (M,) + grid.shape members, (M, 2d) centers.

    Recipes: hermite-onb[(M)], gabor-gaussian(alpha, beta[, window]),
    jittered-gabor(alpha, beta, jitter[, window]), two-bump[(separation)].
    Lattice atoms come m-major at their snapped points; the others sit at the origin.
    """
    from .corpus import hermite_functions, two_bump
    match = _RECIPE.match(recipe.strip())
    if not match:
        raise ValueError(f"unparseable recipe {recipe!r}")
    name = match.group(1) or match.group(3)
    args = [float(tok) for tok in match.group(2).split(",") if tok.strip()] if match.group(2) else []
    if name in ("hermite-onb", "two-bump"):
        if len(args) > 1:
            raise ValueError(f"recipe {name} takes at most one argument")
        if name == "two-bump":
            members = two_bump(grid, args[0] if args else 3.0).values[None]
        elif args and not args[0].is_integer():
            raise ValueError(f"recipe hermite-onb takes an integer argument, got {args[0]!r}")
        else:
            members = hermite_functions(grid, int(args[0]) if args else 16)
        return members, np.zeros((len(members), 2 * grid.dim))
    if name in ("gabor-gaussian", "jittered-gabor"):
        jittered = name == "jittered-gabor"
        expected = 3 if jittered else 2
        if len(args) < expected or len(args) > expected + 1:
            raise ValueError(f"recipe {name} takes {expected} or {expected + 1} arguments")
        alpha, beta = args[0], args[1]
        jitter = args[2] if jittered else 0.0
        window = args[expected] if len(args) > expected else 4.0
        if alpha <= 0 or beta <= 0 or jitter < 0 or window <= 0:
            raise ValueError(f"bad lattice parameters in recipe {recipe!r}")
        reach_a, reach_b = _lattice_reach(window, alpha), _lattice_reach(window, beta)
        m, n = np.divmod(np.arange((2 * reach_a + 1) * (2 * reach_b + 1)), 2 * reach_b + 1)
        ab = np.stack([alpha * (m - reach_a), beta * (n - reach_b)], axis=1)
        if jittered:
            # two draws per atom, m-major, a before b
            ab += np.random.default_rng(seed).uniform(-jitter, jitter, size=ab.shape)
        centers = snap_to_grid(grid, np.repeat(ab, grid.dim, axis=1))
        return tf_shift(gaussian_window(grid).values, grid, centers), centers
    raise ValueError(f"unknown recipe {name!r}")


# A Gaussian atom's tail at distance d from the box edge is e^{-pi d^2}; at this
# margin it is below double roundoff, so the periodic atoms do not wrap.
_WRAP_MARGIN = math.sqrt(-math.log(np.finfo(float).eps) / math.pi)


def _gabor_central_row(alpha: float, beta: float, T: int) -> tuple[np.ndarray, int]:
    """Central row of the capped G^{-1/2} of pi(alpha m, beta n) g, |m|, |n| <= T, m-major, and the capped count.

    On a square lattice (alpha == beta) the Gram is G = D* K D, K the kernel
    Gram at lam = alpha (m - i n) and D = diag(e^{i pi a b}), and the lattice
    is invariant under lam -> i lam.  The central row of G^{-1/2} is then
    conj(K^{-1/2} e_0) D, and e_0 lies in block 0 of
    :func:`~pslab.fock.rotation_blocks`, so only that block of order
    T(T + 1) + 1 is decomposed; the other three give their spectra to the cap.
    """
    from .fock import gaussian_atom_gram, rotation_blocks
    from .frames import _inverse_sqrt_rows, _inverse_sqrt_weights
    k = np.arange(-T, T + 1)
    if alpha != beta:
        G = gaussian_atom_gram(np.repeat(alpha * k, k.size), np.tile(beta * k, k.size))
        return _inverse_sqrt_rows(G, k.size**2 // 2, capped=True)
    # one point per orbit: m >= 1, n <= 0, m-major, so Re lam > 0 and Im lam >= 0
    m, n = np.divmod(np.arange(T * (T + 1)), T + 1)
    blocks = rotation_blocks(alpha * ((m + 1) + 1j * (T - n)), origin=True)
    spectra = [np.linalg.eigvalsh(blocks.pop()) for _ in range(3)]  # popped, so each is freed
    w, U = np.linalg.eigh(blocks.pop())
    (scale, *_), dropped = _inverse_sqrt_weights([w, *spectra], capped=True)
    coeffs = U @ (scale * np.conj(U[0]))  # B_0^{-1/2} on the origin's basis vector
    # K^{-1/2} e_0 is constant on orbits: coeffs[0] at the origin, coeffs[s] / 2 on
    # the orbit of rep s.  On the (m, n) index square lam -> i lam is a rot90.
    quadrant = np.zeros((k.size, k.size), dtype=complex)
    quadrant[T + 1 :, : T + 1] = coeffs[1:].reshape(T, T + 1) / 2
    column = sum(np.rot90(quadrant, j) for j in range(4))
    column[T, T] = coeffs[0]
    phases = np.exp(1j * np.pi * np.multiply.outer(alpha * k, beta * k))
    return (np.conj(column) * phases).ravel(), dropped


def _lattice_synthesis(grid: GridSpec, alpha: float, beta: float, row: np.ndarray) -> SampledFunction:
    """sum conj(row) of the atoms pi(alpha m, beta n) g, |m|, |n| <= T, ordered m-major.

    The row reshapes to C[m, n] and the sum is sum_m T_{alpha m} g * (C E)[m],
    E[n] = e^{2 pi i beta n t}: no member matrix is formed.
    """
    size = math.isqrt(row.size)
    k = np.arange(size) - size // 2
    t = grid.axis_points(0)
    CE = np.conj(row).reshape(size, size) @ np.exp(np.multiply.outer(2j * np.pi * (beta * k), t))
    g = gaussian_window(grid).values
    shift = round(alpha / grid.step[0])
    values = sum(np.roll(g, shift * m) * CE[i] for i, m in enumerate(k))
    return SampledFunction(grid, values)


def _gabor_central_member(grid: GridSpec, alpha: float, beta: float, T: int) -> SampledFunction:
    """Central member of the orthonormalized lattice pi(alpha m, beta n) g, |m|, |n| <= T."""
    return _lattice_synthesis(grid, alpha, beta, _gabor_central_row(alpha, beta, T)[0])


def _eigh_bytes(order: int) -> int:
    """Peak bytes of a central-row eigensolve of a complex Gram of this order.

    Six complex matrices of the order: the Gram (on the block path, blocks
    B_0..B_3 together), numpy's copy of the input, the eigenvectors, the
    divide-and-conquer complex and real workspaces, and conj(U).T in
    :func:`~pslab.frames._inverse_sqrt_rows`.  Measured peak RSS growth of
    :func:`_gabor_central_row` is 5.1 of them on the block path (alpha = beta
    = 1, T = 40) and 5.6 on the full path (alpha = 1, beta = 1/2, T = 20).
    """
    return 6 * order**2 * COMPLEX_BYTES


def _config_checked(cfg: ExperimentConfig, call, *args):
    """``call(*args)``, a ValueError it raises reported as the config's error: exit 2, not 1."""
    try:
        return call(*args)
    except ValueError as exc:
        raise cfg.error(str(exc)) from None


def _check_budget(cfg: ExperimentConfig, need: int, subject: str, task: str) -> None:
    """Refuse, before allocating, a step whose ``need`` bytes exceed GRAM_BYTES_LIMIT."""
    if need > GRAM_BYTES_LIMIT:
        raise cfg.error(
            f"{subject} needs {need / 2**20:.0f} MiB to {task}, "
            f"over the memory budget of {GRAM_BYTES_LIMIT / 2**20:.0f} MiB"
        )


def _budgeted_corpus(
    cfg: ExperimentConfig, grid: GridSpec, squares: int, products: int, task: str, fixed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The recipe's M members of N samples and their centers, refused past squares M^2 + products M N
    complex entries and ``fixed`` bytes."""
    members, centers = _config_checked(cfg, corpus, cfg.get_str("recipe"), grid, cfg.seed)
    M = len(members)
    need = M * (squares * M + products * math.prod(grid.n)) * COMPLEX_BYTES + fixed
    _check_budget(cfg, need, f"recipe of {M} members", task)
    return members, centers


def _run_balian_low(cfg: ExperimentConfig) -> Table:
    from .localization import moment
    grid = cfg.grid()
    if grid.dim != 1:
        raise cfg.error("runs on one-dimensional grids")
    alpha = cfg.get_float("alpha", 1.0)
    beta = cfg.get_float("beta", 1.0)
    if alpha <= 0 or beta <= 0:
        raise cfg.error(f"spacings ({alpha}, {beta}) must be positive")
    windows = cfg.get_floats("windows")
    if any(not w.is_integer() or w <= 0 for w in windows) or any(b <= a for a, b in zip(windows, windows[1:])):
        raise cfg.error("windows must be increasing positive integers")
    windows = [int(w) for w in windows]
    dual = grid.dual()
    widest = windows[-1]
    if alpha * widest + _WRAP_MARGIN > grid.half_extent() or beta * widest + _WRAP_MARGIN > dual.half_extent():
        raise cfg.error(
            f"window {widest} puts lattice atoms within {_WRAP_MARGIN:.2f} of the "
            f"grid box edge (half-extents {grid.half_extent()}, {dual.half_extent()}), "
            "so their tails wrap"
        )
    # inside the box, so each spacing is at most n/2 samples
    samples = (alpha / grid.step[0], beta / dual.step[0])
    if any(round(k) == 0 for k in samples):
        raise cfg.error(f"spacings ({alpha}, {beta}) round to zero time or frequency samples")
    if any(abs(k - round(k)) > 1e-9 for k in samples):
        raise cfg.error(f"spacings ({alpha}, {beta}) are not grid-aligned")
    # the whole Gram is decomposed, or on a square lattice its rotation block 0; then the central
    # member is synthesized from two (2T + 1, N) complex arrays, peak RSS growth 2(2T + 1) + 0.57
    # of N complex entries at N = 2^20, T = 2 and 6, budgeted as 2(2T + 1) + 2
    members = (2 * widest + 1) ** 2
    order = members // 4 + 1 if alpha == beta else members
    need = max(_eigh_bytes(order), (2 * (2 * widest + 1) + 2) * math.prod(grid.n) * COMPLEX_BYTES)
    _check_budget(cfg, need, f"window {widest}", f"orthonormalize and synthesize {members} atoms")
    rows = []
    for T in windows:
        phi = _gabor_central_member(grid, alpha, beta, T)
        value = moment(phi, 0.0, 1.0, side="frequency")
        rows.append(f"{T},{(2 * T + 1) ** 2},{value!r}")
    return "window,members,frequency_moment", rows, []


def _run_trace_check(cfg: ExperimentConfig) -> Table:
    from .operators import restriction_trace
    grid = cfg.grid()
    pairs = []
    for token in cfg.get_str("pairs").split():
        try:
            ht, hf = (float(v) for v in token.split(","))
        except ValueError:
            raise cfg.error(f"bad pair {token!r}, expected time,freq") from None
        if not (0 < ht < math.inf and 0 < hf < math.inf):
            raise cfg.error(f"bad pair {token!r}, halfwidths must be positive and finite")
        pairs.append((ht, hf))
    if not pairs:
        raise cfg.error("pairs must list at least one time,freq pair")
    traces = [_config_checked(cfg, restriction_trace, grid, ht, hf) for ht, hf in pairs]
    rows = []
    for (ht, hf), tr in zip(pairs, traces):
        area = (2 * ht) * (2 * hf)
        rows.append(f"{ht!r},{hf!r},{tr!r},{area!r},{abs(tr - area) / area!r}")
    return "time_halfwidth,freq_halfwidth,trace,area,rel_error", rows, []


def _run_plunge_count(cfg: ExperimentConfig) -> Table:
    from .operators import _index_ranges, plunge_count
    grid = cfg.grid()
    radii = cfg.get_floats("radii")
    if any(R <= 0 for R in radii):
        raise cfg.error("radii must be positive")
    sizes = [hi - lo for (lo, hi), _ in (_config_checked(cfg, _index_ranges, grid, R / 2, R / 2) for R in radii)]
    # the |T| x |T| section and eigvalsh's copy: peak RSS growth 2.07 and 2.04
    # sections at |T| = 1024 and 2048, budgeted as three
    for R, size in zip(radii, sizes):
        _check_budget(cfg, 3 * size**2 * COMPLEX_BYTES, f"radius {R!r}", f"eigensolve its {size}-sample section")
    rows = []
    for R in radii:
        count = plunge_count(grid, R / 2, R / 2)
        rows.append(f"{R!r},{count},{count / R**2!r}")
    return "radius,count,count_per_square_radius", rows, []


def _run_density(cfg: ExperimentConfig) -> Table:
    from .geometry import PhasePointSet, density_trend, scan_bins
    points_path = cfg.resolve_path("points_csv")
    radii = cfg.get_floats("radii")
    # an absent window is derived from the data
    window = cfg.get_float("window") if "window" in cfg.params else None
    if window is not None and window <= 0:
        raise cfg.error(f"window = {window!r} must be positive")
    try:
        lam = PhasePointSet.load_csv(points_path, window=window)
    except (OSError, ValueError) as exc:
        raise cfg.error(f"cannot load {points_path}: {exc}") from None
    if any(not 0 < r <= lam.window / 2 for r in radii):
        raise cfg.error(f"radii must lie in (0, {lam.window / 2}]")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise cfg.error("radii must be strictly increasing")
    # the block-sum scan holds three float64 arrays the size of the histogram
    # of the smallest radius at a time (block, padded cumsum, next block;
    # tracemalloc peaks at 3.0-3.3x the histogram), budgeted here as four
    nbins, ndim = _config_checked(cfg, scan_bins, lam.window, radii[0]), 2 * lam.dim
    need = 4 * nbins**ndim * np.dtype(float).itemsize
    _check_budget(cfg, need, f"radius {radii[0]!r}", f"scan {nbins}^{ndim} bins")
    rows = [
        f"{est.radius!r},{est.lower!r},{est.upper!r},{est.midpoint!r}"
        for est in density_trend(lam, radii)
    ]
    return "radius,lower,upper,midpoint", rows, []


def _run_improve(cfg: ExperimentConfig) -> Table:
    from .frames import frame_bounds
    from .operators import cutoff_extent, improve_system
    grid = cfg.grid()
    # improve_system's largest arrays are real n^d x n^d: the weight beside a slab of its symbol,
    # and before it, in 1-D, a cutoff factor beside its bank of up to n shifted windows.  Peak RSS
    # growth 1.53 and 1.43 of them at n^d = 2048 (1-D, 4 radii) and 1024 (2-D, 2 radii), and 2.27
    # when the cube keeps every time shift (1-D, 2048), budgeted as five halves
    size = math.prod(grid.n)
    matrices = 5 * size**2 * FLOAT_BYTES // 2
    _check_budget(cfg, matrices, f"grid of {size} samples", "hold the modulation weight")
    radii = cfg.get_floats("radii")
    sigma = cfg.get_float("sigma", 1.0)
    extent = cutoff_extent(grid)
    if any(not 0 < R <= extent for R in radii):
        raise cfg.error(f"radii must lie in (0, {extent}]")
    if sigma < 0:
        raise cfg.error(f"sigma = {sigma!r} must be nonnegative")
    # improve_system holds those matrices, the de-shifted members and one smoothed stack per
    # radius; the R improved stacks then sit beside frame_bounds' 4 M^2 + 3 M N.  Budgeted as
    # 4 M^2 + (3 + R) M N complex entries beside the matrices, the peak RSS growth of all of it
    # is 0.67 and 0.86 of that at M = 625, N = 2048 with 2 and 16 radii, and 0.81 at M = 3721,
    # N = 512 with 2
    members, centers = _budgeted_corpus(cfg, grid, 4, 3 + len(radii), "improve and bound it", matrices)
    source = frame_bounds(members, grid)
    rows = []
    for R, (improved, errors) in zip(radii, improve_system(members, centers, grid, radii, sigma)):
        bounds = frame_bounds(improved, grid)
        rows.append(f"{R!r},{float(errors.mean())!r},{bounds.lower!r},{bounds.upper!r}")
    notes = [
        f"source bounds lower {source.lower!r} upper {source.upper!r}",
        f"modulation weight sigma {sigma!r}",
    ]
    return "radius,mean_error,lower,upper", rows, notes


def _run_dual_decay(cfg: ExperimentConfig) -> Table:
    from .frames import DECAY_FIT_MEMBERS, dual_gram, gramian, localization_fit
    grid = cfg.grid()
    # gramian's conjugated members, then G beside G^-1: peak RSS growth 4.6 and 6.1 M^2
    # at M, N = 625, 2048 and 841, 4096
    members, centers = _budgeted_corpus(cfg, grid, 4, 1, "fit its Gram and dual")
    if len(members) < DECAY_FIT_MEMBERS:
        raise cfg.error(f"recipe gives {len(members)} members; a decay fit needs at least {DECAY_FIT_MEMBERS}")
    G = gramian(members, grid)
    primal = localization_fit(G, centers)
    shadow = localization_fit(dual_gram(G), centers)
    rows = [
        f"primal,{primal.exponent!r},{primal.constant!r},{primal.r2!r}",
        f"dual,{shadow.exponent!r},{shadow.constant!r},{shadow.r2!r}",
    ]
    return "which,exponent,constant,r_squared", rows, []


def _run_uncertainty_sum(cfg: ExperimentConfig) -> Table:
    from .corpus import hermite_functions
    from .frames import commutation_ledger
    grid = cfg.grid()
    count = cfg.get_int("count", 64)
    if count < 2:
        raise cfg.error("count must be at least 2")
    # the ledger's M x M arrays, the member stack and its transforms: peak RSS
    # growth 12.6 M^2 at M = 512 and 21.2 M^2 at M = 256, N = 1024 both
    need = count * (4 * count + 9 * math.prod(grid.n)) * COMPLEX_BYTES
    _check_budget(cfg, need, f"count {count}", "build the commutation ledger")
    members = _config_checked(cfg, hermite_functions, grid, count)
    ledger = commutation_ledger(members, members, grid)
    worst = ledger.truncation_defect.max(axis=1)
    rows = [
        f"{n},{float(res)!r},{float(dft)!r}"
        for n, (res, dft) in enumerate(zip(ledger.per_n_identity_residual, worst))
    ]
    return "n,identity_residual,truncation_defect", rows, []


def _run_fock_sweep(cfg: ExperimentConfig) -> Table:
    from .fock import lattice_sweep
    alphas = cfg.get_floats("alphas")
    window = cfg.get_float("window", 6.0)
    if any(a <= 0 for a in alphas) or window <= 0:
        raise cfg.error("pitches and window must be positive")
    # the finest lattice has at most (2 reach + 1)^2 points; each rotation block a quarter
    points = (2 * _config_checked(cfg, _lattice_reach, window, min(alphas)) + 1) ** 2
    _check_budget(cfg, _eigh_bytes(points // 4 + 1), f"pitch {min(alphas)!r}", f"bound {points} lattice points")
    rows = [
        f"{r.alpha!r},{r.density!r},{r.lower!r},{r.upper!r},{r.condition!r}"
        for r in lattice_sweep(alphas, window)
    ]
    return "alpha,density,lower,upper,condition", rows, []


_RUNNERS = {
    "balian-low": _run_balian_low,
    "trace-check": _run_trace_check,
    "plunge-count": _run_plunge_count,
    "density": _run_density,
    "improve": _run_improve,
    "dual-decay": _run_dual_decay,
    "uncertainty-sum": _run_uncertainty_sum,
    "fock-sweep": _run_fock_sweep,
}


def run(cfg: ExperimentConfig, out_dir) -> Path:
    """Execute one experiment into ``<experiment>.csv``, written only after full compute."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows, notes = _RUNNERS[cfg.experiment](cfg)
    path = out / f"{cfg.experiment.replace('-', '_')}.csv"
    provenance = [
        f"experiment {cfg.experiment}",
        f"config sha256 {cfg.sha256}",
        f"seed {cfg.seed}",
        f"pslab {__version__} numpy {np.__version__}",
    ]
    _write_csv(path, header, rows, provenance + notes)
    return path
