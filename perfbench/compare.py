"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_RESULTS_DIR HEAD_RESULTS_DIR

Each directory holds result files written by run.py (perfbench/out/results
by default).  One directory: per workload, the median of every metric and
the tracing overhead (the share of untraced `jobs_per_s` lost in traced
runs).  Two directories: per workload and end-to-end metric, both medians
and the change, flagged when it is worse than the bound in BENCHMARK.json.

Results stamped with different scalar backends (gmpy2.mpq against
fractions.Fraction) are not comparable; the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> list[dict]:
    results = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not results:
        raise SystemExit(f"compare: no result files in {directory}")
    return results


def medians(results: list[dict], trace: int) -> dict:
    """{workload: {metric: median value}} over the runs with this trace flag."""
    values: dict = {}
    for r in results:
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                values.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: statistics.median(v) for k, v in ms.items()} for w, ms in values.items()}


def slowdown(results: list[dict]) -> float:
    """Median of the runs' slowdowns against the speed probe's reference
    speed.  Reported times are already scaled by it; it says how loaded
    the machine was."""
    return statistics.median(r["slowdown"] for r in results)


def summarise(results: list[dict]) -> None:
    print(f"machine slowdown: {slowdown(results):.3f}")
    plain, traced = medians(results, 0), medians(results, 1)
    for workload in sorted(set(plain) | set(traced)):
        for name, value in sorted({**plain.get(workload, {}),
                                   **traced.get(workload, {})}.items()):
            print(f"{workload:11} {name:36} {value:.6g}")
        if workload in plain and workload in traced:
            overhead = 1 - traced[workload]["trace.jobs_per_s"] / plain[workload]["jobs_per_s"]
            print(f"{workload:11} {'tracing overhead':36} {overhead:.1%} of jobs_per_s")


def compare(base: list[dict], head: list[dict]) -> None:
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    print(f"machine slowdown: {slowdown(base):.3f} -> {slowdown(head):.3f} "
          "(times are scaled by it already)")
    old, new = medians(base, 0), medians(head, 0)
    for workload in sorted(set(old) & set(new)):
        for name, m in spec.items():
            a, b = old[workload][name], new[workload][name]
            change = (b - a) / a
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            flag = "  WORSE THAN BOUND" if worse else ""
            print(f"{workload:11} {name:16} {a:12.6g} -> {b:12.6g} {change:+7.1%}{flag}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    sets = [load(d) for d in argv]
    backends = {r["env"]["backend"] for results in sets for r in results}
    if len(backends) != 1:
        print(f"compare: refusing to compare results from different scalar backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    if len(sets) == 1:
        summarise(sets[0])
    else:
        compare(*sets)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
