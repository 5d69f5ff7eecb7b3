"""Config parsing, corpus recipes, and the experiment runner CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pslab.cli import main
from pslab.config import EXPERIMENTS, ConfigError, load_config
from pslab.experiments import (
    COMPLEX_BYTES,
    FLOAT_BYTES,
    _eigh_bytes,
    _gabor_central_member,
    _gabor_central_row,
    _lattice_synthesis,
    corpus,
    run,
)
from pslab.fock import gaussian_atom_gram
from pslab.frames import _inverse_sqrt_rows, canonical_tight, gramian
from pslab.grid import GridSpec, gaussian_window, tf_shift
from pslab.localization import moment
from pslab.operators import restriction_masks

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
DEFAULT = CONFIG_DIR / "default.cfg"
POINTS = CONFIG_DIR / "points_unit_lattice.csv"
GRID = GridSpec(1, 256, 1 / 16)


def run_python(code):
    """Stdout of ``code`` run in a fresh interpreter that imports pslab from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def peak_rss_growth(setup, step):
    """Peak RSS growth in bytes of ``step`` in a fresh interpreter, after ``setup`` has run.

    The setup runs the step once at a small size, which loads LAPACK and the
    FFT and their thread buffers.  On Linux the peak is the process's own
    VmHWM, because ru_maxrss there starts at the RSS of the process that
    spawned it, here the test runner's; macOS reports ru_maxrss in bytes.
    """
    code = (
        "import resource\n"
        "def peak():\n"
        "    try:\n"
        "        with open('/proc/self/status') as status:\n"
        "            return next(int(line.split()[1]) * 1024 for line in status if line.startswith('VmHWM:'))\n"
        "    except OSError:\n"
        "        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{setup}\n"
        "before = peak()\n"
        f"{step}\n"
        "print(peak() - before)\n"
    )
    return int(run_python(code))


def refuse_to(what):
    """A stand-in that fails the test if it is called: ``what`` happened before a refusal."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} before the config was refused")

    return refuse


def assert_one_refusal(capsys, experiment, message):
    """stderr is one line naming the experiment's section and holding ``message``."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"[{experiment}]" in err[0] and message in err[0]


def read_rows(path):
    """Data rows of a CSV as float lists, skipping comments and the header."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            continue
    return rows


class TestConfig:
    def test_every_experiment_has_a_default_section(self):
        for name in EXPERIMENTS:
            cfg = load_config(DEFAULT, name)
            assert cfg.experiment == name
            assert cfg.sha256

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config(DEFAULT, "bogus")

    def test_missing_section_rejected(self, tmp_path):
        stub = tmp_path / "stub.cfg"
        stub.write_text("[density]\nradii = 1\n")
        with pytest.raises(ConfigError, match="no \\[improve\\] section"):
            load_config(stub, "improve")

    def test_malformed_file_rejected(self, tmp_path):
        stub = tmp_path / "broken.cfg"
        stub.write_text("radii = 1\nno section header anywhere\n")
        with pytest.raises(ConfigError, match="malformed config"):
            load_config(stub, "density")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg", "density")

    def test_bad_values_rejected(self, tmp_path):
        stub = tmp_path / "stub.cfg"
        stub.write_text("[fock-sweep]\nalphas = one two\nwindow = 6\n")
        cfg = load_config(stub, "fock-sweep")
        with pytest.raises(ConfigError, match="not a number list"):
            cfg.get_floats("alphas")
        with pytest.raises(ConfigError, match="missing required key"):
            cfg.get_str("absent_key")

    def test_bad_grid_rejected(self, tmp_path):
        stub = tmp_path / "stub.cfg"
        stub.write_text("[plunge-count]\ngrid_n = 100\ngrid_dx = 0.05\nradii = 2\n")
        with pytest.raises(ConfigError, match="bad grid"):
            load_config(stub, "plunge-count").grid()

    def test_seed_override_wins(self):
        assert load_config(DEFAULT, "improve", seed=7).seed == 7
        assert load_config(DEFAULT, "improve").seed == 0


class TestCorpus:
    def test_hermite_gram_is_identity(self):
        members, centers = corpus("hermite-onb(16)", GRID)
        assert np.abs(gramian(members, GRID) - np.eye(16)).max() < 1e-6
        np.testing.assert_array_equal(centers, np.zeros((16, 2)))

    def test_gabor_lattice_member_count(self):
        members, centers = corpus("gabor-gaussian(0.5, 0.5, 2)", GRID)
        assert members.shape == (81,) + GRID.shape
        assert centers.shape == (81, 2)

    def test_gabor_lattice_keeps_outer_ring(self):
        # 0.3 / 0.1 rounds to 2.9999999999999996; the atoms at +-0.3 stay
        assert len(corpus("gabor-gaussian(0.1, 0.1, 0.3)", GRID)[0]) == 49
        assert len(corpus("gabor-gaussian(1, 1, 3)", GRID)[0]) == 49

    def test_jittered_gabor_deterministic(self):
        one = corpus("jittered-gabor(1, 1, 0.125, 2)", GRID, seed=5)
        two = corpus("jittered-gabor(1, 1, 0.125, 2)", GRID, seed=5)
        other = corpus("jittered-gabor(1, 1, 0.125, 2)", GRID, seed=6)
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])
        assert not np.array_equal(one[1], other[1])

    @pytest.mark.parametrize(
        "grid, alpha, beta, jitter, window, seed",
        [(GRID, 1, 1, 0.125, 2, 5), (GRID, 1.5, 0.75, 0.3, 3, 0), (GridSpec(2, 16, 1 / 4), 1, 0.5, 0.25, 1.5, 2)],
        ids=["square", "oblong", "2d"],
    )
    def test_jittered_gabor_matches_double_loop(self, grid, alpha, beta, jitter, window, seed):
        # the definition: m-major over |alpha m|, |beta n| <= window, two jitter draws per atom,
        # a rounded to the grid, exp(2 pi i b.x) g(x - a) by np.roll on every axis
        rng = np.random.default_rng(seed)
        g = gaussian_window(grid).values
        values, rows = [], []
        for m in range(-10, 11):
            if abs(alpha * m) > window:
                continue
            for n in range(-10, 11):
                if abs(beta * n) > window:
                    continue
                a = alpha * m + rng.uniform(-jitter, jitter)
                b = beta * n + rng.uniform(-jitter, jitter)
                k = [round(a / s) for s in grid.step]
                atom = np.roll(g, k, axis=tuple(range(grid.dim)))
                for x in grid.mesh():
                    atom = atom * np.exp(2j * np.pi * b * x)
                values.append(atom)
                rows.append([ki * s for ki, s in zip(k, grid.step)] + [b] * grid.dim)
        members, centers = corpus(f"jittered-gabor({alpha}, {beta}, {jitter}, {window})", grid, seed)
        np.testing.assert_array_equal(members, np.stack(values))
        np.testing.assert_array_equal(centers, np.array(rows))

    def test_two_bump_single_member(self):
        members, centers = corpus("two-bump", GRID)
        assert members.shape == (1,) + GRID.shape
        assert np.linalg.norm(members[0]) * np.sqrt(GRID.cell_volume) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(centers, np.zeros((1, 2)))

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            corpus("mystery-basis(3)", GRID)

    @pytest.mark.parametrize(
        "recipe", ["gabor-gaussian(1)", "hermite-onb(8.7)", "hermite-onb(8, 2)", "two-bump(3, 9)"]
    )
    def test_wrong_arity_rejected(self, recipe):
        with pytest.raises(ValueError, match="argument"):
            corpus(recipe, GRID)

    def test_unparseable_recipe_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            corpus("gabor-gaussian(1", GRID)


class TestGaborCentralMember:
    @staticmethod
    def sampled_path(grid, alpha, beta, T):
        """The central member of canonical_tight on tf_shift members: the sampled-Gram oracle."""
        g = gaussian_window(grid)
        centers = [(alpha * m, beta * n) for m in range(-T, T + 1) for n in range(-T, T + 1)]
        tight = canonical_tight(tf_shift(g.values, grid, centers), grid)
        return tight[len(centers) // 2]

    @pytest.mark.parametrize("alpha, beta, T", [(1.0, 1.0, 4), (0.5, 2.0, 2), (1.5, 0.75, 4)])
    def test_matches_sampled_path(self, alpha, beta, T):
        grid = GridSpec(1, 1024, 1 / 32)
        sampled = self.sampled_path(grid, alpha, beta, T)
        phi = _gabor_central_member(grid, alpha, beta, T)
        assert np.abs(phi.values - sampled).max() < 1e-12 * np.abs(sampled).max()

    @staticmethod
    def full_gram_row(alpha, T):
        """The oracle: the central row of G^{-1/2} from eigh of the whole closed-form Gram."""
        k = np.arange(-T, T + 1)
        G = gaussian_atom_gram(np.repeat(alpha * k, k.size), np.tile(alpha * k, k.size))
        return _inverse_sqrt_rows(G, k.size**2 // 2, capped=True)

    @pytest.mark.parametrize("T", [1, 4, 8])
    def test_block_path_matches_full_gram_on_critical_lattice(self, T):
        grid = GridSpec(1, 1024, 1 / 32)
        full = _lattice_synthesis(grid, 1.0, 1.0, self.full_gram_row(1.0, T)[0])
        phi = _gabor_central_member(grid, 1.0, 1.0, T)
        assert np.abs(phi.values - full.values).max() < 1e-12 * np.abs(full.values).max()

    def test_block_path_matches_full_gram_on_capped_control(self):
        # the capped directions sit near 1e-10 w_max, so the two eigensolves
        # keep slightly different spans; the moment agrees far below the cap
        grid = GridSpec(1, 4096, 1 / 64)
        full = _lattice_synthesis(grid, 0.5, 0.5, self.full_gram_row(0.5, 8)[0])
        phi = _gabor_central_member(grid, 0.5, 0.5, 8)
        expected = moment(full, 0.0, 1.0, side="frequency")
        assert moment(phi, 0.0, 1.0, side="frequency") == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha, beta, T", [(1.0, 1.0, 40), (1.0, 0.5, 20)], ids=["block", "full"])
    def test_peak_memory_within_the_budget_estimate(self, alpha, beta, T):
        # peak RSS growth of one central row
        setup = f"from pslab.experiments import _gabor_central_row\n_gabor_central_row({alpha}, {beta}, 2)"
        growth = peak_rss_growth(setup, f"_gabor_central_row({alpha}, {beta}, {T})")
        members = (2 * T + 1) ** 2
        order = members // 4 + 1 if alpha == beta else members
        assert growth <= _eigh_bytes(order)

    @pytest.mark.parametrize("alpha, T", [(1.0, 4), (1.0, 8), (0.5, 5), (0.5, 8)])
    def test_cap_drops_the_same_directions_on_both_paths(self, alpha, T):
        _, dropped = _gabor_central_row(alpha, alpha, T)
        assert dropped == self.full_gram_row(alpha, T)[1]
        # the redundant control is rank deficient; the critical lattice is a Riesz basis
        assert (dropped > 0) == (alpha == 0.5)


class TestDenseEstimates:
    """Each runner's byte estimate covers its measured peak RSS growth, within a factor 2."""

    def test_plunge_count_section_eigensolve(self):
        # |T| = 2048: halfwidth 16 at dx = 1/64
        setup = (
            "from pslab.grid import GridSpec\n"
            "from pslab.operators import plunge_count\n"
            "plunge_count(GridSpec(1, 256, 1 / 8), 4.0, 4.0)\n"
            "grid = GridSpec(1, 4096, 1 / 64)"
        )
        growth = peak_rss_growth(setup, "plunge_count(grid, 16.0, 16.0)")
        estimate = 3 * 2048**2 * COMPLEX_BYTES
        assert estimate / 2 <= growth <= estimate

    @staticmethod
    def improve_growth(warmup, grid, radii):
        """Peak RSS growth of improve_system on the 25-member jittered lattice over ``grid``."""
        setup = (
            "from pslab.experiments import corpus\n"
            "from pslab.grid import GridSpec\n"
            "from pslab.operators import improve_system\n"
            f"improve_system(*corpus('two-bump', {warmup}), {warmup}, [1.0])\n"
            f"grid = {grid}\n"
            "members, centers = corpus('jittered-gabor(1, 1, 0.125, 2)', grid)"
        )
        return peak_rss_growth(setup, f"improve_system(members, centers, grid, {radii})")

    def test_improve_weight_and_cutoffs(self):
        # n^d = 2048 in 1-D, four radii: every cutoff is freed before the weight, a real n^d x n^d
        # matrix, is built from slabs of its symbol (measured 1.53 real matrices)
        growth = self.improve_growth("GridSpec(1, 64, 1 / 4)", "GridSpec(1, 2048, 1 / 32)", [2.0, 4.0, 6.0, 8.0])
        estimate = 5 * 2048**2 * FLOAT_BYTES // 2
        assert estimate / 2 <= growth <= estimate

    def test_improve_cutoff_keeping_every_time_shift(self):
        # the cube at R = 16 keeps all 2048 time shifts of GridSpec(1, 2048, 1/64), so the 1-D
        # cutoff factor sits beside a bank of n shifted windows (measured 2.27 real matrices)
        growth = self.improve_growth("GridSpec(1, 64, 1 / 4)", "GridSpec(1, 2048, 1 / 64)", [16.0])
        estimate = 5 * 2048**2 * FLOAT_BYTES // 2
        assert estimate / 2 <= growth <= estimate

    def test_improve_weight_and_cutoffs_2d(self):
        # n^d = 1024 in 2-D, two radii: the cutoff factors are n x n (measured 1.41 real weights)
        growth = self.improve_growth("GridSpec(2, 8, 1 / 2)", "GridSpec(2, 32, 1 / 4)", [1.0, 2.0])
        estimate = 5 * 1024**2 * FLOAT_BYTES // 2
        assert estimate / 2 <= growth <= estimate

    def test_improve_radii_and_frame_bounds(self):
        # M = 465 on N = 512 with 16 radii: one smoothed, then one improved, stack held per radius
        # beside the weight and frame_bounds (measured 0.93 of the estimate)
        setup = (
            "from pslab.experiments import corpus\n"
            "from pslab.frames import frame_bounds\n"
            "from pslab.grid import GridSpec\n"
            "from pslab.operators import improve_system\n"
            "warmup = GridSpec(1, 64, 1 / 4)\n"
            "members, centers = corpus('jittered-gabor(1, 1, 0.125, 2)', warmup)\n"
            "frame_bounds(members, warmup)\n"
            "improve_system(members, centers, warmup, [1.0])\n"
            "grid = GridSpec(1, 512, 1 / 16)\n"
            "members, centers = corpus('jittered-gabor(0.5, 1, 0.1, 7.5)', grid)\n"
            "assert len(members) == 465"
        )
        step = (
            "frame_bounds(members, grid)\n"
            "for improved, _ in improve_system(members, centers, grid, [r / 2 for r in range(1, 17)]):\n"
            "    frame_bounds(improved, grid)"
        )
        growth = peak_rss_growth(setup, step)
        estimate = 5 * 512**2 * FLOAT_BYTES // 2 + 465 * (4 * 465 + (3 + 16) * 512) * COMPLEX_BYTES
        assert estimate / 2 <= growth <= estimate

    def test_balian_low_synthesis(self):
        # N = 2^18, T = 6: the central member from two (13, N) complex arrays (measured 0.96)
        setup = (
            "from pslab.experiments import _gabor_central_member\n"
            "from pslab.grid import GridSpec\n"
            "from pslab.localization import moment\n"
            "moment(_gabor_central_member(GridSpec(1, 1024, 1 / 32), 1.0, 1.0, 2), 0.0, 1.0, side='frequency')\n"
            "grid = GridSpec(1, 2**18, 1 / 256)"
        )
        growth = peak_rss_growth(setup, "moment(_gabor_central_member(grid, 1.0, 1.0, 6), 0.0, 1.0, side='frequency')")
        estimate = (2 * 13 + 2) * 2**18 * COMPLEX_BYTES
        assert estimate / 2 <= growth <= estimate

    def test_dual_decay_gram_and_inverse(self):
        # M = 625 on N = 2048: gramian's conjugated members, then G beside G^-1 (measured 4.6 M^2)
        setup = (
            "from pslab.config import load_config\n"
            "from pslab.experiments import _run_dual_decay, corpus\n"
            "from pslab.frames import dual_gram, gramian, localization_fit\n"
            "from pslab.grid import GridSpec\n"
            f"_run_dual_decay(load_config({str(DEFAULT)!r}, 'dual-decay'))\n"
            "grid = GridSpec(1, 2048, 1 / 64)\n"
            "members, centers = corpus('jittered-gabor(1, 1, 0.1, 12)', grid)\n"
            "assert len(members) == 625"
        )
        step = "G = gramian(members, grid)\nlocalization_fit(G, centers)\nlocalization_fit(dual_gram(G), centers)"
        growth = peak_rss_growth(setup, step)
        estimate = 625 * (4 * 625 + 2048) * COMPLEX_BYTES
        assert estimate / 2 <= growth <= estimate


class TestCli:
    def test_density_on_bundled_lattice(self, tmp_path):
        assert main(["density", "--config", str(DEFAULT), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "density.csv")
        assert len(rows) == 3
        for _, lower, upper, midpoint in rows:
            assert lower == pytest.approx(1.0, abs=1e-12)
            assert upper == pytest.approx(1.0, abs=1e-12)
            assert midpoint == pytest.approx(1.0, abs=1e-12)

    def test_trace_check_errors_small(self, tmp_path):
        assert main(["trace-check", "--config", str(DEFAULT), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trace_check.csv")
        assert len(rows) == 6
        assert all(row[4] < 0.02 for row in rows)

    def test_malformed_config_exits_2_without_artifacts(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("pairs = 1,1\n")
        out = tmp_path / "out"
        assert main(["trace-check", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["mystery", "--config", str(DEFAULT)]) == 2
        capsys.readouterr()

    def test_missing_key_exits_2(self, tmp_path):
        stub = tmp_path / "stub.cfg"
        stub.write_text("[fock-sweep]\nwindow = 6\n")
        out = tmp_path / "out"
        assert main(["fock-sweep", "--config", str(stub), "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())

    def test_numeric_failure_exits_1(self, tmp_path, capsys):
        stub = tmp_path / "dense.cfg"
        stub.write_text(
            "[dual-decay]\ngrid_n = 512\ngrid_dx = 0.0625\n"
            "recipe = gabor-gaussian(0.0625, 0.0625, 1)\n"
        )
        out = tmp_path / "out"
        assert main(["dual-decay", "--config", str(stub), "--out", str(out)]) == 1
        assert not list(out.iterdir())
        assert "failed" in capsys.readouterr().err

    def test_dual_decay_fits_one_gram_and_its_inverse(self, tmp_path, monkeypatch):
        built = []

        def counted(members, grid):
            built.append(len(members))
            return gramian(members, grid)

        def refuse(*args, **kwargs):
            raise AssertionError("dual-decay synthesized the dual system")

        monkeypatch.setattr("pslab.frames.gramian", counted)
        monkeypatch.setattr("pslab.frames.dual_system", refuse)
        assert main(["dual-decay", "--config", str(DEFAULT), "--out", str(tmp_path)]) == 0
        assert built == [81]

    @pytest.mark.parametrize("recipe", ["two-bump", "hermite-onb(4)"])
    def test_dual_decay_refuses_too_few_members_before_its_gram(self, tmp_path, monkeypatch, capsys, recipe):
        def refuse(*args, **kwargs):
            raise AssertionError("Gram built before the member count check")

        monkeypatch.setattr("pslab.frames.gramian", refuse)
        stub = tmp_path / "few.cfg"
        stub.write_text(f"[dual-decay]\ngrid_n = 512\ngrid_dx = 0.0625\nrecipe = {recipe}\n")
        out = tmp_path / "out"
        assert main(["dual-decay", "--config", str(stub), "--out", str(out)]) == 2
        assert "a decay fit needs at least 8" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_dual_decay_centres_at_origin_exit_1(self, tmp_path, capsys):
        # eight members pass the count, but every distance is 0: the fit has no bins
        stub = tmp_path / "origin.cfg"
        stub.write_text("[dual-decay]\ngrid_n = 512\ngrid_dx = 0.0625\nrecipe = hermite-onb(8)\n")
        out = tmp_path / "out"
        assert main(["dual-decay", "--config", str(stub), "--out", str(out)]) == 1
        assert "distance bins" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_rerun_is_byte_identical(self, tmp_path, experiment):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main([experiment, "--config", str(DEFAULT), "--out", str(out)]) == 0
        name = f"{experiment.replace('-', '_')}.csv"
        assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_ignored_recipe_argument_exits_2(self, tmp_path, capsys):
        # two-bump takes one separation; a second argument would be dropped without a word
        stub = tmp_path / "extra.cfg"
        stub.write_text("[improve]\ngrid_n = 512\ngrid_dx = 0.0625\nrecipe = two-bump(3, 9)\nradii = 2\n")
        out = tmp_path / "out"
        assert main(["improve", "--config", str(stub), "--out", str(out)]) == 2
        assert "recipe two-bump takes at most one argument" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_seed_changes_jittered_output(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        args = ["dual-decay", "--config", str(DEFAULT)]
        assert main(args + ["--out", str(first), "--seed", "1"]) == 0
        assert main(args + ["--out", str(second), "--seed", "2"]) == 0
        assert (first / "dual_decay.csv").read_bytes() != (second / "dual_decay.csv").read_bytes()

    def test_balian_low_moment_grows(self, tmp_path):
        stub = tmp_path / "bl.cfg"
        stub.write_text("[balian-low]\ngrid_n = 1024\ngrid_dx = 0.03125\nwindows = 2 3 4\n")
        assert main(["balian-low", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "balian_low.csv")
        moments = [row[2] for row in rows]
        assert moments[0] < moments[1] < moments[2]
        assert [int(row[1]) for row in rows] == [25, 49, 81]

    def test_balian_low_rejects_offgrid_spacing(self, tmp_path):
        stub = tmp_path / "bl.cfg"
        stub.write_text("[balian-low]\ngrid_n = 1024\ngrid_dx = 0.03125\nwindows = 2\nalpha = 0.3\n")
        assert main(["balian-low", "--config", str(stub), "--out", str(tmp_path / "o")]) == 2

    def test_balian_low_rejects_fractional_window(self, tmp_path, capsys):
        stub = tmp_path / "bl.cfg"
        stub.write_text("[balian-low]\ngrid_n = 1024\ngrid_dx = 0.03125\nwindows = 2.7\n")
        out = tmp_path / "out"
        assert main(["balian-low", "--config", str(stub), "--out", str(out)]) == 2
        assert "positive integers" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_balian_low_rejects_wrapping_window(self, tmp_path):
        stub = tmp_path / "bl.cfg"
        stub.write_text("[balian-low]\ngrid_n = 512\ngrid_dx = 0.03125\nwindows = 2 8\n")
        assert main(["balian-low", "--config", str(stub), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "grid",
        [
            "grid_n = 512\ngrid_dx = 0.03125\n",  # alpha * 6 sits 2 inside the time half-extent 8
            "grid_n = 1024\ngrid_dx = 0.0625\n",  # beta * 6 sits 2 inside the frequency half-extent 8
        ],
    )
    def test_balian_low_rejects_wrapping_tails(self, tmp_path, capsys, grid):
        stub = tmp_path / "bl.cfg"
        stub.write_text(f"[balian-low]\n{grid}windows = 2 6\n")
        assert main(["balian-low", "--config", str(stub), "--out", str(tmp_path / "o")]) == 2
        assert "tails wrap" in capsys.readouterr().err

    def test_balian_low_refuses_oversized_gram_before_building(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("Gram built before the memory check")

        monkeypatch.setattr("pslab.fock.gaussian_atom_gram", refuse)
        monkeypatch.setattr("pslab.fock.rotation_blocks", refuse)
        # T = 69, the first window past the budget, is 19321 atoms: 2.09 GiB for
        # the eigendecomposition of the square lattice's rotation block 0, of order 4831
        stub = tmp_path / "bl.cfg"
        stub.write_text("[balian-low]\ngrid_n = 65536\ngrid_dx = 0.00390625\nwindows = 8 69\n")
        out = tmp_path / "out"
        assert main(["balian-low", "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "spacings", ["alpha = 1e-12\n", "beta = 1e-12\n", "alpha = 1e-12\nbeta = 1e-12\n"], ids=["alpha", "beta", "both"]
    )
    def test_balian_low_refuses_spacings_of_zero_samples(self, tmp_path, monkeypatch, capsys, spacings):
        # 1e-12 is within 1e-9 of a multiple of any step, zero of them: the lattice would repeat atoms
        monkeypatch.setattr("pslab.experiments._gabor_central_member", refuse_to("atoms built"))
        stub = tmp_path / "bl.cfg"
        stub.write_text(f"[balian-low]\ngrid_n = 2048\ngrid_dx = 0.03125\n{spacings}windows = 2\n")
        out = tmp_path / "out"
        assert main(["balian-low", "--config", str(stub), "--out", str(out)]) == 2
        assert_one_refusal(capsys, "balian-low", "round to zero time or frequency samples")
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "spacings, allowed",
        [
            ("alpha = 1\nbeta = 1\n", 68),  # rotation block 0 of order (2T + 1)^2 // 4 + 1
            ("alpha = 1\nbeta = 0.5\n", 33),  # the whole Gram of order (2T + 1)^2
        ],
        ids=["square", "oblong"],
    )
    def test_balian_low_budget_follows_the_eigensolve(self, tmp_path, monkeypatch, spacings, allowed):
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr("pslab.experiments._gabor_central_member", admit)
        stub = tmp_path / "bl.cfg"
        for T in (allowed, allowed + 1):
            stub.write_text(f"[balian-low]\ngrid_n = 65536\ngrid_dx = 0.00390625\n{spacings}windows = {T}\n")
            cfg = load_config(stub, "balian-low")
            if T == allowed:
                with pytest.raises(Admitted):
                    run(cfg, tmp_path / "out")
            else:
                with pytest.raises(ConfigError, match="memory budget"):
                    run(cfg, tmp_path / "out")

    def test_fock_sweep_refuses_oversized_lattice_before_building(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("lattice built before the memory check")

        monkeypatch.setattr("pslab.fock.lattice_points", refuse)
        # pitch 1/4 in a window of 100 is up to 801^2 points: blocks of order 160401
        stub = tmp_path / "fs.cfg"
        stub.write_text("[fock-sweep]\nalphas = 2 0.25\nwindow = 100\n")
        out = tmp_path / "out"
        assert main(["fock-sweep", "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget of 2048 MiB" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_density_refuses_oversized_scan_before_binning(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("density scanned before the memory check")

        monkeypatch.setattr("pslab.geometry.density_trend", refuse)
        # r = 0.01 on the W = 32 lattice is 25600^2 bins: about 20 GiB for the scan
        stub = tmp_path / "dens.cfg"
        points = CONFIG_DIR / "points_unit_lattice.csv"
        stub.write_text(f"[density]\npoints_csv = {points}\nwindow = 32\nradii = 0.01 4\n")
        out = tmp_path / "out"
        assert main(["density", "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "experiment, body",
        # a synthesis array of (13, N) complex entries: 3.25 GiB
        [("balian-low", "grid_n = 16777216\ngrid_dx = 0.0009765625\nwindows = 6\n")],
        ids=["balian-low"],
    )
    def test_oversized_sample_arrays_exit_2_before_allocating(self, tmp_path, monkeypatch, capsys, experiment, body):
        refuse = refuse_to("an N-sample array built")
        for name in (
            "pslab.grid.GridSpec.axis_points",
            "pslab.operators.restriction_masks",
            "pslab.experiments._gabor_central_row",
            "pslab.experiments._lattice_synthesis",
        ):
            monkeypatch.setattr(name, refuse)
        stub = tmp_path / "big.cfg"
        stub.write_text(f"[{experiment}]\n{body}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert_one_refusal(capsys, experiment, "memory budget")
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("grid_n", [2**34, 2**70])
    @pytest.mark.parametrize(
        "experiment, sets, row",
        [("trace-check", "pairs = 1,1", "1.0,1.0,4.0,4.0,0.0"), ("plunge-count", "radii = 2", "2.0,4,1.0")],
    )
    def test_restriction_experiments_answer_without_sample_arrays(
        self, tmp_path, monkeypatch, experiment, sets, row, grid_n
    ):
        # T and Omega are index ranges and the section is a closed-form |T| x |T| kernel, so
        # nothing of size N is built; products like K m are reduced exactly past int64
        refuse = refuse_to("an N-sample array built")
        for name in ("pslab.grid.GridSpec.axis_points", "pslab.operators.restriction_masks", "numpy.fft.ifft"):
            monkeypatch.setattr(name, refuse)
        stub = tmp_path / "big.cfg"
        stub.write_text(f"[{experiment}]\ngrid_n = {grid_n}\ngrid_dx = 0.03125\n{sets}\n")
        assert main([experiment, "--config", str(stub), "--out", str(tmp_path)]) == 0
        csv = tmp_path / f"{experiment.replace('-', '_')}.csv"
        assert csv.read_text().splitlines()[-1] == row

    @pytest.mark.parametrize(
        "experiment, body",
        [
            ("fock-sweep", "alphas = 1e-320\n"),
            ("dual-decay", "grid_n = 512\ngrid_dx = 0.0625\nrecipe = gabor-gaussian(1e-320, 1)\n"),
            ("improve", "grid_n = 512\ngrid_dx = 0.0625\nrecipe = gabor-gaussian(1e-320, 1)\nradii = 2\n"),
            ("density", f"points_csv = {POINTS}\nwindow = 1e308\nradii = 4\n"),
        ],
        ids=["fock-sweep", "dual-decay", "improve", "density"],
    )
    def test_infinite_lattice_or_bin_count_exits_2(self, tmp_path, monkeypatch, capsys, experiment, body):
        # a ratio that overflows to inf has no integer count; it is refused, not converted
        refuse = refuse_to("built past an infinite count")
        for name in (
            "pslab.fock.lattice_sweep",
            "pslab.frames.gramian",
            "pslab.frames.frame_bounds",
            "pslab.operators.improve_system",
            "pslab.geometry.density_trend",
        ):
            monkeypatch.setattr(name, refuse)
        stub = tmp_path / "inf.cfg"
        stub.write_text(f"[{experiment}]\n{body}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert_one_refusal(capsys, experiment, "is not a finite number of")
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("window", ["", "window = 4\n"], ids=["derived-window", "given-window"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_point_exits_2(self, tmp_path, monkeypatch, capsys, value, window):
        monkeypatch.setattr("pslab.geometry.density_trend", refuse_to("density scanned"))
        points = tmp_path / "points.csv"
        points.write_text(f"a_1,b_1\n0,0\n{value},1\n")
        stub = tmp_path / "dens.cfg"
        stub.write_text(f"[density]\npoints_csv = {points}\n{window}radii = 0.5\n")
        out = tmp_path / "out"
        assert main(["density", "--config", str(stub), "--out", str(out)]) == 2
        assert_one_refusal(capsys, "density", "point coordinates must be finite")
        assert not list(out.iterdir())

    def test_plunge_counts_match_areas(self, tmp_path):
        stub = tmp_path / "pc.cfg"
        stub.write_text("[plunge-count]\ngrid_n = 512\ngrid_dx = 0.03125\nradii = 2 3\n")
        assert main(["plunge-count", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "plunge_count.csv")
        assert [int(r[1]) for r in rows] == [4, 9]

    def test_improve_error_shrinks_with_radius(self, tmp_path):
        stub = tmp_path / "imp.cfg"
        stub.write_text(
            "[improve]\ngrid_n = 256\ngrid_dx = 0.0625\n"
            "recipe = jittered-gabor(1, 1, 0.125, 2)\nradii = 2 4\nseed = 0\n"
        )
        assert main(["improve", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "improve.csv")
        assert rows[0][1] > rows[1][1]

    def test_uncertainty_sum_interior_residuals(self, tmp_path):
        stub = tmp_path / "us.cfg"
        stub.write_text("[uncertainty-sum]\ngrid_n = 256\ngrid_dx = 0.0625\ncount = 32\n")
        assert main(["uncertainty-sum", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "uncertainty_sum.csv")
        assert len(rows) == 32
        interior = [row[1] for row in rows[:8]]
        assert max(interior) < 0.05

    @pytest.mark.parametrize("count", [64, 32])
    def test_uncertainty_sum_matches_closed_form(self, tmp_path, count):
        # x h_n = sqrt((n+1)/4pi) h_{n+1} + sqrt(n/4pi) h_{n-1} and the Fourier
        # transform is diagonal on h_n, so the ledger of the first M Hermite
        # functions is tridiagonal: only the last row sees the truncation
        stub = tmp_path / "us.cfg"
        stub.write_text(f"[uncertainty-sum]\ngrid_n = 256\ngrid_dx = 0.0625\ncount = {count}\n")
        assert main(["uncertainty-sum", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = np.array(read_rows(tmp_path / "uncertainty_sum.csv"))
        residual = np.zeros(count)
        residual[-1] = count
        defect = np.zeros(count)
        defect[-1] = np.sqrt(count / (4 * np.pi))
        np.testing.assert_array_equal(rows[:, 0], np.arange(count))
        np.testing.assert_allclose(rows[:, 1], residual, rtol=0, atol=5e-13)
        np.testing.assert_allclose(rows[:, 2], defect, rtol=0, atol=5e-13)

    @pytest.mark.parametrize("experiment, sets", [("plunge-count", "radii = 2 40\n")])
    def test_oversized_time_set_exits_2(self, tmp_path, monkeypatch, capsys, experiment, sets):
        def refuse(*args, **kwargs):
            raise AssertionError("operator built before the memory check")

        monkeypatch.setattr("pslab.operators.restriction_section", refuse)
        # halfwidth 20 at dx = 1/256 is a 10240-sample time set: three |T| x |T|
        # complex matrices take 4.7 GiB, and the budget admits |T| <= 6688
        stub = tmp_path / "big.cfg"
        stub.write_text(f"[{experiment}]\ngrid_n = 16384\ngrid_dx = 0.00390625\n{sets}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("experiment, sets", [("trace-check", "pairs = 1,1\n"), ("plunge-count", "radii = 2\n")])
    def test_two_dimensional_grid_exits_2(self, tmp_path, capsys, experiment, sets):
        # the restriction functions refuse a 2-D grid; the runner reports their refusal
        stub = tmp_path / "2d.cfg"
        stub.write_text(f"[{experiment}]\ngrid_dim = 2\ngrid_n = 16\ngrid_dx = 0.25\n{sets}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"[{experiment}]" in err[0] and "one-dimensional" in err[0]
        assert not list(out.iterdir())

    def test_plunge_count_budget_follows_the_section(self, tmp_path, monkeypatch):
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr("pslab.operators.restriction_section", admit)
        # radius R at dx = 1/256 is a time set of 256 R samples: 6688 at R = 26.125 is
        # the largest the budget admits, 6720 at R = 26.25 is refused
        stub = tmp_path / "pc.cfg"
        for R, admitted in ((26.125, True), (26.25, False)):
            stub.write_text(f"[plunge-count]\ngrid_n = 16384\ngrid_dx = 0.00390625\nradii = {R}\n")
            cfg = load_config(stub, "plunge-count")
            with pytest.raises(Admitted if admitted else ConfigError):
                run(cfg, tmp_path / "out")

    def test_trace_check_oversized_time_set_runs(self, tmp_path):
        # a 10240-sample time set, which plunge-count refuses: the trace is a count ratio
        grid = GridSpec(1, 16384, 0.00390625)
        stub = tmp_path / "big.cfg"
        stub.write_text("[trace-check]\ngrid_n = 16384\ngrid_dx = 0.00390625\npairs = 1,1 20,1\n")
        assert main(["trace-check", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trace_check.csv")
        assert [row[:2] for row in rows] == [[1.0, 1.0], [20.0, 1.0]]
        for ht, hf, trace, _, _ in rows:
            time_mask, freq_mask = restriction_masks(grid, ht, hf)
            assert time_mask.sum() * freq_mask.sum() / grid.n[0] == trace

    @pytest.mark.parametrize(
        "grid", ["grid_n = 1048576\ngrid_dx = 0.0009765625\n", "grid_dim = 2\ngrid_n = 128\ngrid_dx = 0.125\n"]
    )
    def test_oversized_improve_grid_exits_2_before_allocating(self, tmp_path, monkeypatch, capsys, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("corpus built before the grid size check")

        monkeypatch.setattr("pslab.experiments.corpus", refuse)
        stub = tmp_path / "big.cfg"
        stub.write_text(f"[improve]\n{grid}recipe = jittered-gabor(1, 1, 0.125, 2)\nradii = 2\n")
        out = tmp_path / "out"
        assert main(["improve", "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_many_radii_exit_2_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 625 members of 4096 samples: one radius needs 0.5 GiB, forty-eight hold forty-seven more stacks
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted

        def refuse(*args, **kwargs):
            raise AssertionError("improved or bounded before the memory check")

        body = "[improve]\ngrid_n = 4096\ngrid_dx = 0.015625\nrecipe = jittered-gabor(1, 1, 0.1, 12)\n"
        stub = tmp_path / "radii.cfg"
        stub.write_text(body + "radii = 2\n")
        monkeypatch.setattr("pslab.frames.frame_bounds", admit)
        with pytest.raises(Admitted):
            run(load_config(stub, "improve"), tmp_path / "one")
        stub.write_text(body + "radii = " + " ".join(str(r / 2) for r in range(1, 49)) + "\n")
        for name in ("pslab.frames.frame_bounds", "pslab.operators.improve_system"):
            monkeypatch.setattr(name, refuse)
        out = tmp_path / "out"
        assert main(["improve", "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "grid",
        [
            "grid_n = 4096\ngrid_dx = 0.03125\n",
            "grid_dim = 2\ngrid_n = 64\ngrid_dx = 0.125\n",
            # five halves of an 8192 x 8192 real matrix are 0.625 of the budget; 16384 samples are over it
            "grid_n = 8192\ngrid_dx = 0.015625\n",
        ],
    )
    def test_improve_admits_4096_samples(self, tmp_path, monkeypatch, grid):
        class Admitted(Exception):
            pass

        def admit(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr("pslab.experiments.corpus", admit)
        stub = tmp_path / "imp.cfg"
        stub.write_text(f"[improve]\n{grid}recipe = jittered-gabor(1, 1, 0.125, 2)\nradii = 2\n")
        with pytest.raises(Admitted):
            run(load_config(stub, "improve"), tmp_path / "out")

    # pitch 0.15 in a window of 6 is 81^2 = 6561 members on a 512-sample grid
    @pytest.mark.parametrize(
        "experiment, body, patched",
        [
            (
                "dual-decay",
                "grid_n = 512\ngrid_dx = 0.0625\nrecipe = jittered-gabor(0.15, 0.15, 0, 6)\n",
                ["pslab.frames.gramian", "pslab.frames.dual_gram"],
            ),
            (
                "improve",
                "grid_n = 512\ngrid_dx = 0.0625\nrecipe = jittered-gabor(0.15, 0.15, 0, 6)\nradii = 2\n",
                ["pslab.frames.frame_bounds", "pslab.operators.improve_system"],
            ),
            (
                "uncertainty-sum",
                "grid_n = 256\ngrid_dx = 0.0625\ncount = 8192\n",
                ["pslab.frames.commutation_ledger", "pslab.corpus.hermite_functions"],
            ),
        ],
        ids=["dual-decay", "improve", "uncertainty-sum"],
    )
    def test_oversized_system_exits_2_before_its_gram(self, tmp_path, monkeypatch, capsys, experiment, body, patched):
        def refuse(*args, **kwargs):
            raise AssertionError("Gram or ledger built before the memory check")

        for name in patched:
            monkeypatch.setattr(name, refuse)
        stub = tmp_path / "big.cfg"
        stub.write_text(f"[{experiment}]\n{body}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert "memory budget" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "experiment, body, message",
        [
            # the default improve grid's phase-space cube reaches R = 8
            ("improve", "grid_n = 512\ngrid_dx = 0.0625\nrecipe = two-bump\nradii = 2 9\n", "(0, 8.0]"),
            # a zero halfwidth has zero area, the denominator of rel_error
            ("trace-check", "grid_n = 1024\ngrid_dx = 0.03125\npairs = 1,1 0,2\n", "halfwidths must be positive"),
            # count / R**2 at R = 0
            ("plunge-count", "grid_n = 1024\ngrid_dx = 0.03125\nradii = 0\n", "radii must be positive"),
            # non-finite numbers would otherwise become NaN rows or fail mid-computation
            ("trace-check", "grid_n = 1024\ngrid_dx = 0.03125\npairs = nan,1\n", "positive and finite"),
            # an empty list, like an empty radii, windows or alphas, would write a header-only CSV
            ("trace-check", "grid_n = 1024\ngrid_dx = 0.03125\npairs =\n", "must list at least one"),
            ("plunge-count", "grid_n = 1024\ngrid_dx = 0.03125\nradii = nan\n", "is not finite"),
            ("improve", "grid_n = 512\ngrid_dx = 0.0625\nrecipe = two-bump\nradii = 2\nsigma = nan\n", "is not finite"),
            ("balian-low", "grid_n = 2048\ngrid_dx = 0.03125\nalpha = nan\nwindows = 2\n", "is not finite"),
            ("fock-sweep", "alphas = nan\n", "is not finite"),
            ("fock-sweep", "alphas = 1\nwindow = inf\n", "is not finite"),
            # the weight exponent, checked before the corpus and its frame bounds
            ("improve", "grid_n = 512\ngrid_dx = 0.0625\nrecipe = two-bump\nradii = 2\nsigma = -1\n", "nonnegative"),
            # a zero spacing stacks copies of one atom; a negative one slips past the wrap check
            ("balian-low", "grid_n = 2048\ngrid_dx = 0.03125\nalpha = 0\nbeta = 0\nwindows = 2\n", "must be positive"),
            ("balian-low", "grid_n = 2048\ngrid_dx = 0.03125\nalpha = -40\nwindows = 2\n", "must be positive"),
            # only an absent window is derived from the points; a given one must be positive
            ("density", f"points_csv = {POINTS}\nwindow = 0\nradii = 4\n", "window = 0.0 must be positive"),
            ("density", f"points_csv = {POINTS}\nwindow = -1\nradii = 4\n", "window = -1.0 must be positive"),
        ],
        ids=[
            "improve",
            "trace-check",
            "plunge-count",
            "trace-check-nan",
            "trace-check-empty",
            "plunge-count-nan",
            "improve-nan-sigma",
            "balian-low-nan",
            "fock-sweep-nan",
            "fock-sweep-inf-window",
            "improve-negative-sigma",
            "balian-low-zero",
            "balian-low-negative",
            "density-zero-window",
            "density-negative-window",
        ],
    )
    def test_degenerate_radii_exit_2_before_computing(self, tmp_path, monkeypatch, capsys, experiment, body, message):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before the parameter check")

        monkeypatch.setattr("pslab.experiments.corpus", refuse)
        monkeypatch.setattr("pslab.operators.restriction_trace", refuse)
        monkeypatch.setattr("pslab.operators.restriction_section", refuse)
        monkeypatch.setattr("pslab.experiments._gabor_central_member", refuse)
        monkeypatch.setattr("pslab.fock.lattice_sweep", refuse)
        monkeypatch.setattr("pslab.geometry.PhasePointSet.load_csv", refuse)
        stub = tmp_path / "stub.cfg"
        stub.write_text(f"[{experiment}]\n{body}")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_empty_section_exits_2_naming_it_once(self, tmp_path, capsys, experiment):
        stub = tmp_path / "empty.cfg"
        stub.write_text(f"[{experiment}]\n")
        out = tmp_path / "out"
        assert main([experiment, "--config", str(stub), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count(f"[{experiment}]") == 1
        assert not out.exists() or not list(out.iterdir())

    def test_trace_check_beyond_dense_grid(self, tmp_path):
        # trace-check takes no eigensolve and no array, so a large grid costs O(1) in N
        grid = GridSpec(1, 8192, 0.03125)
        stub = tmp_path / "tc.cfg"
        stub.write_text("[trace-check]\ngrid_n = 8192\ngrid_dx = 0.03125\npairs = 1,1 2,4\n")
        assert main(["trace-check", "--config", str(stub), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trace_check.csv")
        assert len(rows) == 2
        for ht, hf, trace, _, _ in rows:
            time_mask, freq_mask = restriction_masks(grid, ht, hf)
            exact = time_mask.sum() * freq_mask.sum() / grid.n[0]
            assert trace == pytest.approx(exact, rel=1e-12)
        assert [row[2] for row in rows] == pytest.approx([4.0, 32.0], rel=1e-12)

    def test_nested_out_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        assert main(["fock-sweep", "--config", str(DEFAULT), "--out", str(out)]) == 0
        assert (out / "fock_sweep.csv").exists()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # pslab depends on numpy alone, so importing every pslab module, not only
    # pslab.cli, must leave every scipy module unloaded
    code = (
        "import importlib, pkgutil, sys, pslab\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(pslab.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('pslab.' + name)\n"
        "print(names)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    imported, loaded = run_python(code).splitlines()
    assert "'cli'" in imported and "'operators'" in imported
    assert loaded == "[]"


def test_each_experiment_loads_only_its_modules(tmp_path):
    # each runner imports the modules it calls, so a CLI process pays only for its own
    # experiment; every run loads the parser, the config and the shared runner helpers
    core = {"pslab", "pslab._csvio", "pslab.cli", "pslab.config", "pslab.experiments", "pslab.grid"}
    loaded = {}
    for experiment in EXPERIMENTS:
        code = (
            "import sys\n"
            "from pslab.cli import main\n"
            f"assert main([{experiment!r}, '--config', {str(DEFAULT)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('pslab', 'scipy'))))\n"
        )
        loaded[experiment] = set(run_python(code).splitlines()[-1].split())
    assert loaded["trace-check"] == loaded["plunge-count"] == core | {"pslab.operators"}
    assert loaded["fock-sweep"] == core | {"pslab.fock"}
    assert loaded["density"] == core | {"pslab.geometry"}
    for experiment, modules in loaded.items():
        assert core <= modules
        assert not any(m.split(".")[0] == "scipy" for m in modules), experiment
        if experiment != "density":
            assert "pslab.geometry" not in modules, experiment
        if experiment not in ("trace-check", "plunge-count", "improve"):
            assert "pslab.operators" not in modules, experiment
        if experiment != "improve":
            assert "pslab.stft" not in modules, experiment
        if experiment not in ("balian-low", "fock-sweep"):
            assert "pslab.fock" not in modules, experiment
    assert "pslab.operators" in loaded["improve"]
