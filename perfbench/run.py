"""Benchmark runner for the ellt library.

    python3 perfbench/run.py --workload rr_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client in one process sends jobs in
a closed loop: the next job starts when the previous answer is back and
checked.  The run sets up the library SETUP_REPEATS times (fresh import
plus the workload's theories) and reports the median as `setup_s`, then
runs whole passes of jobs until `--seconds` have gone, checks every
answer against an independent oracle, and prints one JSON line per
result as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The machine's speed is probed between jobs (see speed.py), and every
reported time is scaled to the probe's reference speed by the probes
taken close to it; the unscaled figures go to the line before.

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the library is wrapped by `tracer.Tracer` and the metrics are per-layer
figures per job.  The line before it carries the environment stamp,
`error_rate`, the latency sample count and the slowdown.  Full results
go to perfbench/out/results/ and traced spans to perfbench/out/traces/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PACKAGE = tracer.PACKAGE
MODULES = ("exactcore", "curvefield", "tmodel", "affinegroups", "eatheory", "sheafside", "cli")
SETUP_REPEATS = 7
# probes of the machine's speed: one at least this often during the jobs,
# and this many right before and after each set-up
PROBE_EVERY_S = 0.05
SETUP_PROBES = 5
# a job is scaled by the probes taken up to this long before or after it
PROBE_MARGIN_S = 0.25

WORKLOADS = {
    "rr_sweep": workloads.RRSweep,
    "sheaf_glue": workloads.SheafGlue,
    "cli_jobs": lambda: workloads.CliJobs(str(OUT / "work")),
}


class Library:
    """Freshly imported library modules, reached by attribute at call time
    so that the tracer's patches are the bindings the benchmark calls."""

    def __init__(self):
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.import_module(PACKAGE)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(lib: Library) -> dict:
    """Stamp for every result; results on different scalar backends are
    not comparable."""
    scalar = lib.exactcore.Q
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": f"{scalar.__module__}.{scalar.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def set_up(workload, meter: speed.SpeedMeter):
    """Time SETUP_REPEATS cold set-ups; keep the last library and state.

    Each set-up time is scaled by the probes taken right before and after
    it."""
    raw, scaled, lib, state = [], [], None, None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(workload, "close"):
            workload.close(state)
        lib = state = None
        gc.collect()
        meter.sample(SETUP_PROBES)
        started = time.perf_counter()
        lib = Library()
        state = workload.setup(lib)
        ended = time.perf_counter()
        meter.sample(SETUP_PROBES)
        raw.append(ended - started)
        scaled.append(raw[-1] / meter.around(started, ended, PROBE_MARGIN_S))
    return raw, scaled, lib, state


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    setup_meter = speed.SpeedMeter(PROBE_EVERY_S)
    setup_raw, setup_scaled, lib, state = set_up(workload, setup_meter)
    env = environment(lib)
    passes = workload.passes(random.Random(args.seed), state)
    trace = tracer.Tracer() if args.trace else None
    meter = speed.SpeedMeter(PROBE_EVERY_S)
    starts, latencies, failures = [], [], []
    failed = passes_run = 0

    def enough():
        return args.jobs is not None and len(latencies) >= args.jobs

    try:
        started = time.perf_counter()
        # whole passes only: the run stops at the first pass boundary
        # after --seconds, so every run is made of the same passes
        while time.perf_counter() - started < args.seconds and not enough():
            jobs = next(passes)
            if hasattr(workload, "start_pass"):
                workload.start_pass(lib, state, passes_run)
            passes_run += 1
            if trace is not None:
                trace.install()
            try:
                for job in jobs:
                    if trace is not None:
                        trace.job = len(latencies)
                    t0 = time.perf_counter()
                    starts.append(t0)
                    try:
                        result = workload.run(lib, state, job)
                    except Exception as exc:  # a raising job is a failed job
                        result, error = None, exc
                    else:
                        error = None
                    latencies.append(time.perf_counter() - t0)
                    if error is None:
                        try:
                            workload.check(state, job, result)
                        except Exception as exc:  # a wrong answer is a failed job
                            error = exc
                    if error is not None:
                        failed += 1
                        if len(failures) < 5:
                            failures.append(f"{json.dumps(job, default=str)}: {error!r}")
                    meter.tick()
                    if enough():
                        break
            finally:
                if trace is not None:
                    trace.restore()
        wall = time.perf_counter() - started
    finally:
        if hasattr(workload, "close"):
            workload.close(state)

    attempted = len(latencies)
    done = attempted - failed
    # each job's time at the reference speed, from the probes around it
    scaled = [t / meter.around(t0, t0 + t, PROBE_MARGIN_S) for t0, t in zip(starts, latencies)]
    slowdown = sum(latencies) / sum(scaled)
    raw = {
        "setup_s": (statistics.median(setup_raw), "s"),
        "jobs_per_s": (done / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000.0 * percentile(latencies, 90), "ms"),
    }
    if trace is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "jobs_per_s": (done / sum(scaled), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "latency_p90_ms": (1000.0 * percentile(scaled, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {k: (v / slowdown if u == "ms/job" else v, u)
                   for k, (v, u) in trace.layer_metrics(attempted).items()}
        metrics["trace.jobs_per_s"] = (done / sum(scaled), "1/s")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "error_rate": failed / attempted,
        "latency_samples": attempted,
        "passes": passes_run,
        "wall_s": wall,
        "slowdown": slowdown,
        "probes": len(meter.samples),
        "probe_s": meter.spent,
        "unscaled": {k: v for k, (v, _) in raw.items()},
        "setup_runs_s": setup_raw,
        "setup_runs_scaled_s": setup_scaled,
        "failures": failures,
    }
    if trace is not None:
        detail["leftover_wrappers"] = tracer.leftover_wrappers()
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace.write(str(traces / f"{args.workload}-seed{args.seed}.json"))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="stop after this many jobs (for quick checks)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / PACKAGE}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("ELLT_CACHE", None)
    detail, summary = run(args)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as fh:
        json.dump({**detail, **summary}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
