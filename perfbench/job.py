"""One benchmark job, run in a fresh process by ``run.py``.

    job.py [--trace FILE] cli EXPERIMENT --config C --out D --seed N
    job.py [--trace FILE] kernels-lib --config C --inputs NPZ --out D --seed N
    job.py --setup-only cli|kernels-lib ...      import and read the config, then exit
    job.py probe FILE                            write machine and library facts as JSON

``cli`` calls ``pslab.cli.main(argv)`` in-process; untraced CLI jobs do not
come here, they run ``python -m pslab.cli`` as a user would.  With
``--trace`` the wrappers of ``tracing.py`` are installed before any work and
the spans are written to FILE when the job ends.
"""

from __future__ import annotations

import configparser
import ctypes
import glob
import importlib.util
import json
import os
import sys


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def kernels_lib(argv) -> int:
    """Library calls on seeded inputs: unit-cube sweep, densities, Bargmann fields."""
    import numpy as np

    from pslab import corpus, geometry, grid, stft

    params = configparser.ConfigParser()
    params.read(_option(argv, "--config"))
    p = params["kernels-lib"]
    out = _option(argv, "--out")
    os.makedirs(out, exist_ok=True)
    points = np.load(_option(argv, "--inputs"))["points"]
    lam = geometry.PhasePointSet(points, p.getfloat("window"), 1)
    separation = geometry.separation_stat(lam)
    radii = [float(r) for r in p["radii"].split()]
    trend = geometry.density_trend(lam, radii)
    rows = [f"{e.radius!r},{e.lower!r},{e.upper!r},{e.midpoint!r}" for e in trend]
    _write(os.path.join(out, "geometry.csv"), f"points,separation\n{len(lam)},{separation}\n"
           + "radius,lower,upper,midpoint\n" + "\n".join(rows) + "\n")

    g = grid.GridSpec(1, p.getint("grid_n"), p.getfloat("grid_dx"))
    zr, side = p.getfloat("z_halfwidth"), p.getint("z_side")
    zgrid = stft.ComplexGrid(-zr, zr, -zr, zr, 2 * zr / (side - 1))
    probes = [tuple(int(v) for v in tok.split(",")) for tok in p["z_probes"].split()]
    rows = []
    for k, f in enumerate(corpus.standard_corpus(g, int(_option(argv, "--seed")))):
        field = stft.bargmann_transform(f, zgrid)
        cells = [complex(field[i, j]) for i, j in probes]
        rows.append(",".join([str(k), repr(float(np.sum(np.abs(field) ** 2)))]
                             + [f"{c.real!r},{c.imag!r}" for c in cells]))
    header = ",".join(["member", "energy"] + [f"re_{i}_{j},im_{i}_{j}" for i, j in probes])
    _write(os.path.join(out, "bargmann.csv"), header + "\n" + "\n".join(rows) + "\n")
    return 0


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def setup_only(kind, argv) -> int:
    """The set-up a job pays before its first computation."""
    if kind == "cli":
        import pslab.cli  # noqa: F401
        from pslab.config import load_config

        seed = int(_option(argv, "--seed")) if "--seed" in argv else None
        load_config(_option(argv, "--config"), argv[0], seed=seed)
    else:
        import numpy  # noqa: F401

        from pslab import corpus, geometry, grid, stft  # noqa: F401

        configparser.ConfigParser().read(_option(argv, "--config"))
    return 0


def _blas():
    """Name, core and thread count of the BLAS numpy loaded, where it says."""
    import numpy as np

    info = {"name": None, "version": None, "core": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                info["threads"] = threads()
                if core is not None:
                    core.restype = ctypes.c_char_p
                    info["core"] = core().decode()
                return info
    return info


def probe(path) -> int:
    import numpy as np
    import scipy

    import pslab

    try:
        from pslab._accel import use_numba

        backend = "numba" if use_numba() else "numpy"
    except ImportError:
        backend = "numpy"
    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pslab": getattr(pslab, "__version__", None),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
        "blas": _blas(),
    }
    _write(path, json.dumps(facts, indent=1) + "\n")
    return 0


def main(argv) -> int:
    if argv[0] == "probe":
        return probe(argv[1])
    if argv[0] == "--setup-only":
        return setup_only(argv[1], argv[2:])
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    if trace_path:
        from tracing import Tracer, install

        tracer = Tracer()
        absent = install(tracer)
    try:
        if kind == "cli":
            import pslab.cli

            return pslab.cli.main(rest)
        return kernels_lib(rest)
    finally:
        if tracer is not None:
            _write(trace_path, json.dumps({
                "spans": tracer.spans,
                "work": tracer.work,
                "uncounted": sorted(tracer.uncounted),
                "absent": absent,
            }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
