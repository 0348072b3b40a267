"""The spot checks per class against the eager path.

A theory runs its class-s spot check (s <= 4) when a request first reads
a class-s window, not at build.  Every theory-backed config of the
`cli_jobs` benchmark pools runs through `cli.main` twice: as it is, and
with all four class checks forced right after the theory is built, as a
build once ran them.  Report bytes and exit codes must agree.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ellt import cli

# the theory-backed commands and the curves of the cli_jobs pools
CURVES = (("-1", "0"), ("0", "1"), ("1", "0"), ("-4", "0"), ("0", "-2"), ("0", "1/4"))
PARAMS = {
    "coeff": [{"d_min": -4, "d_max": 4}, {"d_min": -2, "d_max": 6},
              {"d_min": -6, "d_max": 2}, {"d_min": 0, "d_max": 3}],
    "completion": [{"k": k} for k in (3, 4, 5, 6)],
    "dims": [{"W": {"1": 2}, "variance": "homology"},
             {"W": {"1": 1, "2": -1}, "variance": "cohomology"},
             {"W": {"2": 1}, "variance": "homology"},
             {"W": {"1": -1, "3": 1}, "variance": "cohomology"}],
    "localcoh": [{"pi": [2], "a": 1}, {"pi": [3], "a": 2},
                 {"pi": [2, 3], "a": 1}, {"pi": [1, 2], "a": 3}],
    "roundtrip": [{"W": {}}, {"W": {"1": 1}}, {"W": {"2": 1}}, {"W": {"1": -1}}],
    "serre": [{"divisor": {"1": 1}}, {"divisor": {"1": 2}},
              {"divisor": {"2": 1}}, {"divisor": {"1": 1, "2": 1}}],
}


def run(command: str, curve: tuple, params: dict) -> tuple[int, bytes]:
    """(exit code, report bytes) of one job in the current directory."""
    config = {"command": command, "curve": {"a": curve[0], "b": curve[1]}, "params": params}
    Path("job.config.json").write_text(json.dumps(config), encoding="utf-8")
    Path("job.json").unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--config", "job.config.json", "--out", "job.json"])
    out = Path("job.json")
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("command", sorted(PARAMS))
def test_reports_match_the_eager_checks(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    built = []
    make = cli._make_theory

    def recorded(config):
        theory = make(config)
        built.append(theory)
        return theory

    def eager(config):
        theory = make(config)
        for s in (1, 2, 3, 4):
            theory.backend.check_class(s)
        return theory

    left_unchecked = set()
    for curve in CURVES:
        for params in PARAMS[command]:
            monkeypatch.setattr(cli, "_make_theory", recorded)
            per_class = run(command, curve, params)
            left_unchecked |= built.pop().backend._unchecked
            monkeypatch.setattr(cli, "_make_theory", eager)
            assert run(command, curve, params) == per_class, (curve, params)
            assert per_class[0] == 0
    # no pool config reads class 4, so the per-class path is the one tested
    assert 4 in left_unchecked
