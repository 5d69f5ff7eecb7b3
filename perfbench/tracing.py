"""Spans around the public functions of each pslab module, installed from outside.

A traced job process imports this module, calls :func:`install`, runs its
work and dumps the spans it kept in memory.  Nothing under ``src/pslab``
knows about tracing: wrappers replace each target in every namespace that
binds it (the defining module, modules that imported the name, the class for
methods, and ``numpy.linalg`` / ``scipy.linalg`` for the solver boundary).

A span is ``[name, start, end, parent, raised]``; ``parent`` is the index of
the enclosing span or -1.  Self time is a span's duration minus the time its
direct children cover; spans nest strictly because pslab is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time

import numpy as np


def _size(grid) -> int:
    return int(np.prod(grid.n))


def _order(args, kwargs, out) -> int:
    return int(np.shape(args[0] if args else kwargs["a"])[-1])


def _csv_bytes(args, kwargs, out) -> int:
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    return os.path.getsize(path)


# span name -> (work metric suffix, unit, counter(args, kwargs, result)).
# Work is computed from argument and result shapes, not measured.
COUNTERS = {
    "frames.gramian": ("macs", "MAC", lambda a, k, out: len(a[0]) ** 2 * _size(a[0].grid)),
    "frames.FunctionSystem.member_matrix": ("bytes", "B", lambda a, k, out: int(out.nbytes)),
    "stft.stft": ("points", "count", lambda a, k, out: _size(a[0].grid) ** 2),
    "operators.RestrictionOperator.matrix": ("order_sum", "count", lambda a, k, out: int(out.shape[0])),
    "linalg.eigh": ("order_sum", "count", _order),
    "linalg.eigvalsh": ("order_sum", "count", _order),
    "fock.fock_gram": ("points", "count", lambda a, k, out: len(a[0])),
    "_kernels.max_cube_count_2axes": ("points", "count", lambda a, k, out: len(a[0])),
    "io.csv": ("bytes", "B", _csv_bytes),
}

# (span name, module, attribute or Class.method).  Several targets may share
# one span name: the numpy and scipy solvers, and every CSV writer.
TARGETS = [
    ("config.load_config", "pslab.config", "load_config"),
    ("experiments.run", "pslab.experiments", "run"),
    ("experiments.corpus", "pslab.experiments", "corpus"),
    ("grid.tf_shift", "pslab.grid", "tf_shift"),
    ("grid.fourier_transform", "pslab.grid", "fourier_transform"),
    ("stft.stft", "pslab.stft", "stft"),
    ("stft.adjoint_stft", "pslab.stft", "adjoint_stft"),
    ("stft.bargmann_transform", "pslab.stft", "bargmann_transform"),
    ("_kernels.bargmann_sum", "pslab._kernels", "bargmann_sum"),
    ("_kernels.max_cube_count_2axes", "pslab._kernels", "max_cube_count_2axes"),
    ("localization.modulation_norm", "pslab.localization", "modulation_norm"),
    ("localization.weighted_field_norm", "pslab.localization", "weighted_field_norm"),
    ("localization.moment", "pslab.localization", "moment"),
    ("geometry.density_estimate", "pslab.geometry", "density_estimate"),
    ("geometry.separation_stat", "pslab.geometry", "separation_stat"),
    ("operators.RestrictionOperator.matrix", "pslab.operators", "RestrictionOperator.matrix"),
    ("operators.RestrictionOperator.eigenvalues", "pslab.operators", "RestrictionOperator.eigenvalues"),
    ("operators.localization_operator", "pslab.operators", "localization_operator"),
    ("operators.improve_system", "pslab.operators", "improve_system"),
    ("frames.gramian", "pslab.frames", "gramian"),
    ("frames.FunctionSystem.member_matrix", "pslab.frames", "FunctionSystem.member_matrix"),
    ("frames.frame_bounds", "pslab.frames", "frame_bounds"),
    ("frames.dual_system", "pslab.frames", "dual_system"),
    ("frames.localization_fit", "pslab.frames", "localization_fit"),
    ("frames.commutation_ledger", "pslab.frames", "commutation_ledger"),
    ("fock.fock_gram", "pslab.fock", "fock_gram"),
    ("fock.lattice_sweep", "pslab.fock", "lattice_sweep"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigh", "scipy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.eigvalsh", "scipy.linalg", "eigvalsh"),
    ("linalg.solve", "numpy.linalg", "solve"),
    ("linalg.solve", "scipy.linalg", "solve"),
    ("io.csv", "pslab.experiments", "_write_csv"),
    ("io.csv", "pslab.fock", "save_sweep_csv"),
    ("io.csv", "pslab.fock", "FockPointSet.save_csv"),
    ("io.csv", "pslab.frames", "save_ledger_csv"),
    ("io.csv", "pslab.frames", "save_gram_csv"),
    ("io.csv", "pslab.operators", "save_spectrum_csv"),
    ("io.csv", "pslab.geometry", "PhasePointSet.save_csv"),
]

SPANS = list(dict.fromkeys(name for name, _, _ in TARGETS))
LAYERS = list(dict.fromkeys(name.split(".")[0] for name in SPANS))


class Tracer:
    """In-memory span recorder with per-span work totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.work: dict[str, int] = {}
        self.uncounted: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None, None))[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                try:
                    self.work[name] = self.work.get(name, 0) + counter(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, StopIteration, OSError):
                    self.uncounted.add(name)
            return out

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the span names with no target.

    Target modules are imported first so that every pslab module which binds
    a target name is loaded when the namespaces are scanned.
    """
    modules = {}
    for _, modname, _ in TARGETS:
        try:
            modules[modname] = importlib.import_module(modname)
        except ImportError:
            pass
    namespaces = [m for n, m in list(sys.modules.items()) if n == "pslab" or n.startswith("pslab.")]
    namespaces += [m for n, m in modules.items() if not n.startswith("pslab")]
    found = set()
    for name, modname, attr in TARGETS:
        owner, _, leaf = attr.rpartition(".")
        holder = modules.get(modname)
        if holder is not None and owner:
            holder = getattr(holder, owner, None)
        original = getattr(holder, leaf, None) if holder is not None else None
        if not callable(original):
            continue
        found.add(name)
        wrapped = tracer.wrap(name, original)
        setattr(holder, leaf, wrapped)
        if not owner:
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
    return [name for name in SPANS if name not in found]


def self_times(spans) -> dict[str, list]:
    """Span name -> [calls, self seconds, calls that raised]."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, raised) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
        entry[2] += int(raised)
    return out


def self_test() -> None:
    """Check span recording and self-time arithmetic on a synthetic nested call.

    The fake clock advances by one tick per reading, so every span boundary
    lands on a known integer.
    """
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("synthetic")

    inner = tracer.wrap("t.inner", lambda: None)
    boom = tracer.wrap("u.boom", fail)

    def body():
        inner()
        inner()
        try:
            boom()
        except ValueError:
            pass

    tracer.wrap("t.outer", body)()
    # outer [0, 7]; inner [1, 2] and [3, 4]; boom [5, 6], raised
    got = self_times(tracer.spans)
    want = {"t.outer": [1, 4.0, 0], "t.inner": [2, 2.0, 0], "u.boom": [1, 1.0, 1]}
    if got != want:
        raise AssertionError(f"self-time arithmetic: got {got}, want {want}")
