"""pslab benchmark: four workloads as a closed loop of job processes.

    python3 perfbench/run.py [--workload all|cli-default|gram-scale|spectra-scale|kernels-lib]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the checkout root or anywhere else; the program is ``src/pslab``
next to this directory.  One client launches each job only after the
previous one has exited.  A pass is one run of every job of the workload;
a run makes whole passes, at least two, and starts another only while it is
predicted to end within ``--seconds`` of the run's first set-up launch.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median launch taken only as far as import and config read) and
``peak_rss_mb`` (largest job).  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of ``tracing.py``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_out"
MIN_PASSES = 2
SETUP_LAUNCHES = 7
JOB_TIMEOUT_S = 60

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

sys.path.insert(0, str(ROOT / "src"))  # the kernels-lib oracle imports pslab from this checkout
import workloads as wl  # noqa: E402
from tracing import COUNTERS, LAYERS, SPANS, self_test, self_times  # noqa: E402


def metric_name(span: str) -> str:
    # metric names must start with a letter; the _kernels layer reports as kernels
    return span.lstrip("_")


class Launch:
    """One job process: wall time, CPU time and peak RSS from its own rusage."""

    def __init__(self, cmd: list[str], log: Path):
        timed_out = threading.Event()
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(JOB_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.timed_out = timed_out.is_set()

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out

    def why(self) -> str:
        if self.timed_out:
            return f"timed out after {JOB_TIMEOUT_S} s"
        return f"exit {self.code}" + (" (killed by signal, e.g. OOM)" if self.code < 0 else "")


class Runner:
    def __init__(self, workload: str, seed: int, inputs: Path | None):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.jobs = wl.WORKLOADS[workload]
        self.dir = WORK / workload

    def job_args(self, job: wl.Job, out: Path) -> list[str]:
        head = [job.experiment] if job.kind == "cli" else []
        tail = ["--inputs", str(self.inputs)] if self.inputs else []
        return head + ["--config", job.config, "--out", str(out), "--seed", str(self.seed)] + tail

    def setup(self, index: int) -> Launch:
        job = self.jobs[index % len(self.jobs)]
        out = self.dir / "setup"
        out.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(BENCH / "job.py"), "--setup-only", job.kind] + self.job_args(job, out)
        return Launch(cmd, out / f"{index}.log")

    def run_pass(self, tag: str, traced: bool) -> dict:
        launches, traces = [], []
        start = time.perf_counter()
        for job in self.jobs:
            out = self.dir / tag / job.name
            out.mkdir(parents=True)
            args = self.job_args(job, out)
            trace = out.parent / f"{job.name}.trace.json"
            if job.kind == "cli" and not traced:
                cmd = [sys.executable, "-m", "pslab.cli"] + args
            else:
                flags = ["--trace", str(trace)] if traced else []
                cmd = [sys.executable, str(BENCH / "job.py")] + flags + [job.kind] + args
            launches.append(Launch(cmd, out.parent / f"{job.name}.log"))
            traces.append(trace)
        wall = time.perf_counter() - start
        return {"tag": tag, "wall": wall, "launches": launches, "traces": traces}

    def outputs(self, tag: str, job: wl.Job) -> dict[str, str]:
        return {p.name: p.read_text() for p in sorted((self.dir / tag / job.name).glob("*.csv"))}


def until(seconds: float, least: int, step) -> list[list[dict]]:
    """Call step() at least ``least`` times, then while the next call should end in time.

    A step returns the passes it ran; after a pass with a failed job no
    further step runs, since the run is already incorrect.
    """
    done, start = [], time.perf_counter()
    while True:
        began = time.perf_counter()
        done.append(step(len(done)))
        elapsed, last = time.perf_counter() - start, time.perf_counter() - began
        failed = any(not launch.ok for run in done[-1] for launch in run["launches"])
        if failed or (len(done) >= least and elapsed + last > seconds):
            return done


def check(runner: Runner, passes: list[dict], reference: dict) -> tuple[list[list[bool]], list[str]]:
    """Per pass and job: did it succeed?  Plus every problem found."""
    oracle = wl.KernelsOracle(ROOT, runner.seed) if runner.workload == "kernels-lib" else None
    problems, good = [], []
    first: dict[str, tuple[dict, bool]] = {}  # key -> (CSV texts, did they pass)
    for run in passes:
        row = []
        for job, launch in zip(runner.jobs, run["launches"]):
            key = f"{runner.workload}/{job.name}"
            if not launch.ok:
                problems.append(f"{key} [{run['tag']}]: {launch.why()}")
                row.append(False)
                continue
            files = runner.outputs(run["tag"], job)
            if key not in first:
                found = wl.check_against_reference(reference, key, job, runner.seed, files)
                found += oracle.check(files) if oracle else []
                problems += found
                first[key] = (files, not found)
            elif files != first[key][0]:
                problems.append(f"{key} [{run['tag']}]: CSV bytes differ from the first pass")
                row.append(False)
                continue
            row.append(first[key][1])
        good.append(row)
    return good, problems


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of the traced passes, problems found, and notes."""
    problems, per_pass, absent, uncounted = [], [], set(), set()
    for run in traced:
        spans: dict[str, list] = {}
        work: dict[str, int] = {}
        for path in run["traces"]:
            if not path.is_file():
                problems.append(f"{path.name}: no trace written")
                continue
            dump = json.loads(path.read_text())
            absent.update(dump["absent"])
            uncounted.update(dump["uncounted"])
            for name, (calls, self_s, raised) in self_times(dump["spans"]).items():
                entry = spans.setdefault(name, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += raised
            for name, value in dump["work"].items():
                work[name] = work.get(name, 0) + value
        counts = ({n: (v[0], v[2]) for n, v in spans.items()}, work)
        per_pass.append((spans, work, counts))
    if any(p[2] != per_pass[0][2] for p in per_pass):
        problems.append("call or work counts differ between traced passes")
    spans0, work0, _ = per_pass[0]
    metrics = {}
    for span in SPANS:
        name = metric_name(span)
        metrics[f"{name}.calls"] = (spans0.get(span, [0])[0], "count")
        self_s = statistics.median(p[0].get(span, [0, 0.0])[1] for p in per_pass)
        metrics[f"{name}.self_s"] = (self_s, "s")
    for span, (suffix, unit, _) in COUNTERS.items():
        metrics[f"{metric_name(span)}.{suffix}"] = (work0.get(span, 0), unit)
    for layer in LAYERS:
        raised = sum(v[2] for n, v in spans0.items() if n.split(".")[0] == layer)
        metrics[f"{metric_name(layer)}.errors"] = (raised, "count")
    cpu = statistics.median(sum(l.cpu for l in run["launches"]) for run in traced)
    metrics["run.cpu_s"] = (cpu, "s")
    overhead = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in untraced)
    metrics["run.trace_overhead_s"] = (overhead, "s")
    notes = [f"absent spans: {sorted(absent)}"] if absent else []
    notes += [f"work not computable for: {sorted(uncounted)}"] if uncounted else []
    return metrics, problems, notes


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": None, "ram_mib": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                facts["ram_mib"] = int(line.split()[1]) // 1024
    except OSError:
        pass
    return facts


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    runner = Runner(workload, seed, wl.make_inputs(workload, ROOT, seed, wdir))
    problems = []
    if trace:
        try:
            self_test()
        except AssertionError as exc:
            problems.append(str(exc))
        pairs = until(seconds, 1, lambda i: [runner.run_pass(f"u{i}", False), runner.run_pass(f"t{i}", True)])
        untraced, traced = [p[0] for p in pairs], [p[-1] for p in pairs]
        passes = untraced + traced
        setups = []
    else:
        began = time.perf_counter()
        setups = [runner.setup(i) for i in range(max(SETUP_LAUNCHES, len(runner.jobs)))]
        problems += [f"set-up launch {i}: {s.why()}" for i, s in enumerate(setups) if not s.ok]
        # the set-up launches count toward --seconds, so a run's length does not
        # grow with the number of jobs
        left = seconds - (time.perf_counter() - began)
        passes = [p for (p,) in until(left, MIN_PASSES, lambda i: [runner.run_pass(f"u{i}", False)])]
    good, found = check(runner, passes, reference)
    problems += found
    attempted = sum(len(row) for row in good)
    failed = sum(row.count(False) for row in good)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": {p["tag"]: p["wall"] for p in passes},
        "jobs": {job.name: {p["tag"]: p["launches"][i].wall for p in passes} for i, job in enumerate(runner.jobs)},
        "setup_launches": [s.wall for s in setups],
        "configs": {
            job.config: hashlib.sha256((ROOT / job.config).read_bytes()).hexdigest() for job in runner.jobs
        },
    }
    if trace:
        metrics, found, record["notes"] = layer_metrics(traced, untraced)
        problems += found
    else:
        metrics = {
            # The set-up launches above import the same modules, so the passes
            # start warm.  On a shared host the fastest pass is an extreme value
            # and drifts more from run to run than the median does.
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "setup_s": (statistics.median(s.wall for s in setups), "s"),
            "peak_rss_mb": (max(l.rss_mb for p in passes for l in p["launches"]), "MiB"),
        }
    record["problems"] = problems
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running job is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pslab" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'pslab'}; run from a full checkout", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    probe = WORK / "probe.json"
    facts = Launch([sys.executable, str(BENCH / "job.py"), "probe", str(probe)], WORK / "probe.log")
    if not facts.ok:
        print(f"perfbench: probe failed ({facts.why()}), see {WORK / 'probe.log'}", file=sys.stderr)
        return 2
    header = {"commit": git_commit(), "machine": machine(), "software": json.loads(probe.read_text())}

    reference = wl.load_reference()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        frac = res["failed"] / res["attempted"]
        for metric, (value, unit) in res["metrics"].items():
            print(f"{name:14s} {metric:48s} {value!r} {unit}")
        print(f"{name:14s} {'fail_frac':48s} {frac!r} ratio ({res['failed']}/{res['attempted']} jobs)")
        for problem in res["record"]["problems"]:
            print(f"{name:14s} PROBLEM {problem}")
    record = dict(header, seconds=args.seconds, workloads={n: r["record"] for n, r in results.items()})
    (WORK / "BENCH.json").write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(header))

    def block(res, prefix=""):
        return {prefix + m: {"value": v, "unit": u} for m, (v, u) in res["metrics"].items()}

    if len(names) == 1:
        metrics = block(results[names[0]])
    else:
        metrics = {k: v for n in names for k, v in block(results[n], n + ".").items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
