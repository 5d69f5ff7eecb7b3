"""Normalized kernel Grams, sampling bounds, and lattice sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslab.cli import main
from pslab.fock import (
    fock_gram,
    lattice_points,
    lattice_sweep,
    rotation_blocks,
    sampling_bounds,
)
from pslab.frames import frame_bounds, gramian
from pslab.grid import GridSpec, gaussian_window, tf_shift


def quarter_lattice_points(seed: int, count: int, radius: float):
    """Distinct quarter-integer (a, b) pairs inside a centered disk."""
    rng = np.random.default_rng(seed)
    pts = set()
    while len(pts) < count:
        a = rng.integers(-8, 9) / 4
        b = rng.integers(-8, 9) / 4
        if a * a + b * b <= radius**2:
            pts.add((float(a), float(b)))
    return sorted(pts)


def lattice_by_loop(alpha, window):
    """Definitional twin of lattice_points: alpha (m + ik) over a square past the disk, m-major, clipped."""
    reach = math.ceil(window / alpha) + 1
    return [
        alpha * (m + 1j * k)
        for m in range(-reach, reach + 1)
        for k in range(-reach, reach + 1)
        if abs(alpha * (m + 1j * k)) <= window + 1e-12
    ]


class TestPointSet:
    # (0.1, 0.3): 0.3 / 0.1 is 2.9999999999999996, the outer-ring rounding case;
    # (3, 2): a pitch past the window leaves the origin alone
    @pytest.mark.parametrize("alpha, window", [(2.0, 6.0), (1.2, 8.0), (0.1, 0.3), (3.0, 2.0)])
    def test_lattice_points_match_double_loop(self, alpha, window):
        lam = lattice_points(alpha, window)
        assert lam.dtype == complex
        np.testing.assert_array_equal(lam, lattice_by_loop(alpha, window))

    def test_lattice_point_count(self):
        lam = lattice_points(2.0, 6.0)
        assert lam.size == 29
        assert 0 in lam
        assert (np.abs(lam) <= 6.0 + 1e-12).all()

    def test_lattice_keeps_outer_ring(self):
        # 0.3 / 0.1 rounds to 2.9999999999999996; the ring at radius 0.3 stays
        assert lattice_points(0.1, 0.3).size == lattice_points(1.0, 3.0).size == 29

    def test_point_outside_window_rejected(self):
        # 3 + 3i lies in the square of reach 1 but outside the disk of radius 4
        lam = lattice_points(3.0, 4.0)
        assert 3.0 in lam and 3.0 + 3.0j not in lam

    def test_nonfinite_point_rejected(self):
        for lam in ([complex(math.nan, 0.0)], [0.0, complex(0.0, math.inf)], [1.0, 1j, -1.0, -1j, math.nan]):
            for refused in (fock_gram, sampling_bounds):
                with pytest.raises(ValueError, match="finite"):
                    refused(lam)

    def test_bad_window_rejected(self):
        for window in (-1.0, 0.0, math.inf):
            with pytest.raises(ValueError, match="window radius"):
                lattice_points(1.0, window)

    def test_bad_pitch_rejected(self):
        with pytest.raises(ValueError, match="pitch"):
            lattice_points(0.0, 4.0)


@st.composite
def aligned_atoms(draw):
    """Distinct grid-aligned centers (a, b) at least 4 inside both boxes, N <= 512."""
    grid = GridSpec(1, draw(st.sampled_from([256, 512])), draw(st.sampled_from([1 / 16, 1 / 32])))
    dual = grid.dual()
    reach_a = int((grid.half_extent() - 4) / grid.step[0])
    reach_b = int((dual.half_extent() - 4) / dual.step[0])
    index = st.tuples(st.integers(-reach_a, reach_a), st.integers(-reach_b, reach_b))
    pairs = draw(st.lists(index, min_size=1, max_size=12, unique=True))
    a = np.array([i * grid.step[0] for i, _ in pairs])
    b = np.array([j * dual.step[0] for _, j in pairs])
    return grid, a, b


def atom_gram(a, b):
    """The Gram of the atoms e^{2 pi i b t} g(t - a) as D* K D: K = fock_gram(a - ib), D = diag(e^{i pi a b})."""
    D = np.exp(1j * np.pi * a * b)
    return np.conj(D)[:, None] * fock_gram(a - 1j * b) * D[None, :]


class TestGaussianAtomGram:
    """The kernel Gram under the D similarity against the sampled Gram and the explicit closed form."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(aligned_atoms())
    def test_matches_sampled_gramian(self, atoms):
        grid, a, b = atoms
        g = gaussian_window(grid)
        members = tf_shift(g.values, grid, np.stack([a, b], axis=1))
        sampled = gramian(members, grid)
        np.testing.assert_allclose(atom_gram(a, b), sampled, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(aligned_atoms())
    def test_is_fock_gram_under_unimodular_similarity(self, atoms):
        _, a, b = atoms
        K = fock_gram(a - 1j * b)
        # normalized kernels: unit diagonal, entries in the closed unit disk, an exactly Hermitian PSD Gram
        np.testing.assert_array_equal(np.diagonal(K), 1.0)
        assert np.abs(K).max() <= 1 + 1e-12
        np.testing.assert_array_equal(K, np.conj(K).T)
        assert np.linalg.eigvalsh(K)[0] > -1e-12

    def test_integer_lattice_is_real_with_parity_signs(self):
        k = np.arange(-3, 4)
        # alpha beta = 2 puts every phase at a multiple of pi: real entries with the sign of its parity
        for alpha, beta, real in ((1.0, 2.0, True), (0.5, 1.0, False)):
            a, b = np.repeat(alpha * k, k.size), np.tile(beta * k, k.size)
            phase = np.pi * np.subtract.outer(b, b).T * np.add.outer(a, a)
            modulus = np.exp(-np.pi * (np.subtract.outer(a, a) ** 2 + np.subtract.outer(b, b) ** 2) / 2)
            G = atom_gram(a, b)
            np.testing.assert_allclose(G, modulus * np.exp(1j * phase), rtol=0, atol=1e-12)
            if real:
                np.testing.assert_allclose(G.imag, 0, rtol=0, atol=1e-12)


class TestFockGram:
    def test_single_point(self):
        np.testing.assert_allclose(fock_gram([0.7 - 0.2j]), [[1.0]], atol=1e-14)
        assert sampling_bounds([0.7 - 0.2j]) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_two_point_offdiagonal_closed_form(self):
        lam = [0.3 + 0.4j, 1.1 - 0.9j]
        rho = abs(lam[0] - lam[1])
        G = fock_gram(lam)
        assert abs(abs(G[0, 1]) - math.exp(-math.pi * rho**2 / 2)) < 1e-14
        assert abs(G[0, 0] - 1.0) < 1e-14

    def test_moduli_depend_only_on_distances(self):
        lam = np.array([0.0, 1.0 + 0.5j, -0.75j, 1.5 - 1.5j])
        shift = 0.6 - 1.1j
        np.testing.assert_allclose(np.abs(fock_gram(lam + shift)), np.abs(fock_gram(lam)), atol=1e-12)
        np.testing.assert_allclose(sampling_bounds(lam + shift), sampling_bounds(lam), rtol=0, atol=1e-9)

    def test_gram_is_hermitian_psd(self):
        lam = [complex(a, b) for a, b in quarter_lattice_points(5, 9, 2.0)]
        G = fock_gram(lam)
        np.testing.assert_array_equal(G, np.conj(G).T)
        assert np.linalg.eigvalsh(G)[0] > 0
        np.testing.assert_array_equal(np.diagonal(G), 1.0)

    def test_duplicate_points_rejected(self):
        for refused in (fock_gram, sampling_bounds):
            with pytest.raises(ValueError, match="duplicate"):
                refused([1.0 + 1.0j, 1.0 + 1.0j])

    def test_empty_set_rejected(self):
        for refused in (fock_gram, sampling_bounds):
            with pytest.raises(ValueError, match="at least one"):
                refused(np.array([], dtype=complex))

    def test_invalid_diagonal_rejected(self):
        # far from the origin the unnormalized kernel e^{pi |z|^2} overflows;
        # the normalized Gram keeps an exactly unit diagonal inside the unit disk
        K = fock_gram([30.0 + 20.0j, -25.5 + 31.0j, 0.1j, 40.0])
        np.testing.assert_array_equal(np.diagonal(K), 1.0)
        assert np.isfinite(K).all()
        assert np.abs(K).max() <= 1 + 1e-12

    def test_indefinite_matrix_rejected(self):
        # points closer than 1e-12 would give a numerically indefinite Gram and are refused;
        # a pair 1e-6 apart is kept, and its Gram is PSD with a tiny positive floor
        for refused in (fock_gram, sampling_bounds):
            with pytest.raises(ValueError, match="duplicate"):
                refused([0.5 + 0.5j, 0.5 + 0.5j + 1e-13, -1j])
        lower, upper = sampling_bounds([0.5 + 0.5j, 0.5 + 0.5j + 1e-6, -1j])
        assert 0 < lower < 1e-10 and lower <= upper


class TestBargmannBridge:
    """Kernel Grams match Gaussian time-frequency Grams on the grid."""

    @pytest.fixture(scope="class")
    @staticmethod
    def gabor():
        grid = GridSpec(1, 256, 1 / 16)
        g = gaussian_window(grid)
        pts = quarter_lattice_points(3, 12, 2.0)
        members = tf_shift(g.values, grid, pts)
        return pts, members, grid

    def test_moduli_match(self, gabor):
        pts, members, grid = gabor
        lam = [complex(a, -b) for a, b in pts]
        err = np.abs(np.abs(fock_gram(lam)) - np.abs(gramian(members, grid))).max()
        assert err < 1e-6

    def test_bounds_match(self, gabor):
        pts, members, grid = gabor
        lower, upper = sampling_bounds([complex(a, -b) for a, b in pts])
        fb = frame_bounds(members, grid)
        assert abs(lower - fb.lower) < 0.05 * fb.lower
        assert abs(upper - fb.upper) < 0.05 * fb.upper


class TestSamplingBounds:
    def test_two_far_points_near_orthonormal(self):
        rho = 5.0
        lower, upper = sampling_bounds([0.0, rho])
        slack = 2 * math.exp(-math.pi * rho**2 / 2)
        assert lower >= 1 - slack
        assert upper <= 1 + slack

    def test_subcritical_lattice_bounded_below(self):
        lowers = [sampling_bounds(lattice_points(1.2, W))[0] for W in (4, 6, 8)]
        assert min(lowers) > 0.7
        assert max(lowers) / min(lowers) < 1.2

    def test_critical_lattice_lower_bound_collapses(self):
        lowers = [sampling_bounds(lattice_points(1.0, W))[0] for W in (4, 6, 8)]
        assert lowers[0] > lowers[1] > lowers[2]
        ratio = lowers[2] / lowers[0]
        assert 0.24 < ratio < 0.30


class TestRotationBlocks:
    """The C4 block path of lattice_sweep against the full kernel Gram."""

    LATTICES = [(alpha, W) for alpha in (2.0, 1.5, 1.2, 1.0, 0.9) for W in (4.0, 6.0, 8.0)]

    @pytest.mark.parametrize("alpha, W", [(1.0, 6.0), (0.9, 8.0)])
    def test_rotation_commutes_with_gram(self, alpha, W):
        points = lattice_points(alpha, W).tolist()
        index = {p: i for i, p in enumerate(points)}
        perm = [index[1j * p] for p in points]
        K = fock_gram(points)
        assert np.abs(K[np.ix_(perm, perm)] - K).max() < 1e-14

    @pytest.mark.parametrize("alpha, W", LATTICES)
    def test_block_spectra_are_the_gram_spectrum(self, alpha, W):
        points = lattice_points(alpha, W)
        reps = points[(points.real > 0) & (points.imag >= 0)]
        assert 4 * reps.size + 1 == points.size
        union = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in rotation_blocks(reps)]))
        np.testing.assert_allclose(union, np.linalg.eigvalsh(fock_gram(points)), rtol=0, atol=1e-12)

    def test_lattice_bounds_skip_the_full_gram(self, monkeypatch):
        lower, upper = sampling_bounds(lattice_points(1.0, 6.0))

        def refuse(*args, **kwargs):
            raise AssertionError("full Gram built for a square lattice")

        monkeypatch.setattr("pslab.fock.fock_gram", refuse)
        (row,) = lattice_sweep([1.0], 6.0)
        assert row.lower == pytest.approx(lower, abs=1e-12)
        assert row.upper == pytest.approx(upper, abs=1e-12)

    @pytest.mark.parametrize(
        "points",
        [
            lattice_points(1.0, 4.0),
            lattice_points(1.0, 4.0) + 0.1,
            [0.0, 1.0, 1j, -1.0],
            [1.0 + 0.5j, 2.0],
        ],
        ids=["square-lattice", "shifted-lattice", "missing-rotation", "no-orbit"],
    )
    def test_other_sets_fall_back_to_full_gram(self, points, monkeypatch):
        # sampling_bounds never builds blocks, not even for a square lattice
        def refuse(*args, **kwargs):
            raise AssertionError("rotation blocks built by sampling_bounds")

        monkeypatch.setattr("pslab.fock.rotation_blocks", refuse)
        spectrum = np.linalg.eigvalsh(fock_gram(points))
        assert sampling_bounds(points) == (spectrum[0], spectrum[-1])

    def test_repeated_orbit_still_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            sampling_bounds([1.0, 1j, -1.0, -1j] * 2)

    def test_origin_alone(self):
        assert sampling_bounds([0.0]) == (1.0, 1.0)


class TestLatticeSweep:
    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        return lattice_sweep([2.0, 1.5, 1.2, 1.0, 0.9], 6.0)

    def test_density_column(self, rows):
        for r in rows:
            assert r.density == pytest.approx(1.0 / r.alpha**2, rel=1e-12)

    def test_isolated_regime(self, rows):
        assert rows[0].lower > 0.9

    def test_lower_bound_decreasing_through_critical(self, rows):
        lowers = [r.lower for r in rows]
        assert all(x > y for x, y in zip(lowers, lowers[1:]))
        assert rows[3].lower < 0.1
        assert rows[4].condition > 1e6

    def test_roundoff_lower_bound_reads_zero(self):
        # W = 12, alpha = 0.9 (553 points): the smallest eigenvalue is roundoff
        # below the floor M eps upper; at W = 6 it sits above its floor and stays
        def block_bounds(points):
            blocks = rotation_blocks(points[(points.real > 0) & (points.imag >= 0)])
            spectrum = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
            return spectrum.min(), spectrum.max()

        points = lattice_points(0.9, 12.0)
        lower, upper = block_bounds(points)
        assert abs(lower) <= points.size * np.finfo(float).eps * upper
        (row,) = lattice_sweep([0.9], 12.0)
        assert (row.lower, row.upper, row.condition) == (0.0, upper, math.inf)
        small = lattice_points(0.9, 6.0)
        lower, upper = block_bounds(small)
        assert lower > small.size * np.finfo(float).eps * upper
        assert lattice_sweep([0.9], 6.0)[0].lower == lower

    def test_bounds_ordered(self, rows):
        for r in rows:
            assert r.upper >= r.lower

    def test_csv_output(self, rows, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[fock-sweep]\nalphas = 2 1.5 1.2 1 0.9\nwindow = 6.0\n")
        assert main(["fock-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "fock_sweep.csv").read_text().splitlines()
        assert lines[0] == "# experiment fock-sweep"
        lines = [ln for ln in lines if not ln.startswith("#")]
        assert lines[0] == "alpha,density,lower,upper,condition"
        assert len(lines) == 1 + len(rows)
        assert [[float(tok) for tok in ln.split(",")] for ln in lines[1:]] == [list(r) for r in rows]
