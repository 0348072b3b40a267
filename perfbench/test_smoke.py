"""Smoke test of the benchmark itself, a few jobs per workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "60",
            "--trace", str(trace), "--jobs", "4"]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, summary = json.loads(lines[-2]), json.loads(lines[-1])

    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in summary["metrics"].values())

    assert summary["attempted"] == 4
    assert summary["failed"] == 0 and summary["correct"] is True, detail["failures"]
    assert detail["error_rate"] == 0
    assert detail["env"]["backend"] in ("fractions.Fraction", "gmpy2.mpq")
    assert tracer.leftover_wrappers() == []


def test_refuses_without_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
