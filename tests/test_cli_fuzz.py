"""Generated configs against the command line's failure contract.

Each case starts from a small valid config for one command and breaks at
most one thing: a parameter of the wrong type, a negative or huge value,
an unknown key, or a singular or malformed curve.  Whatever the input,
the exit code is 0, 1, 2 or 3, stderr never carries a traceback, a
parameter error exits 1 with one config-error line, and a second run of
the same config gives the same exit code, the same stderr and the same
report bytes.  Sizes stay small, so every case is quick.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt.cli import main

# a cheap valid config per command, and every key its params may carry
BASE = {
    "dims": {"W": {"1": 1, "2": -1}, "variance": "cohomology"},
    "basis": {"divisor": {"1": 2}},
    "coeff": {"d_min": -2, "d_max": 2},
    "divpoly": {"n": 4},
    "kmodel": {"group": "multiplicative", "W": {"1": 1, "2": 1}, "sign": 1,
               "products_upto": 6},
    "completion": {"k": 3},
    "localcoh": {"pi": [2], "a": 1},
    "serre": {"divisor": {"1": 1}},
    "sections": {"divisor": {"1": 1}, "pi": [2], "cap": 2},
    "glue": {"divisor": {"1": 1}, "left": [1], "right": [2], "cap": 1},
    "roundtrip": {"W": {"1": 1}, "opens": [[1]], "caps": [0, 1]},
    "cache": {"action": "warm", "upto": 4},
}
KEYS = {
    "dims": ("W", "variance", "caps"),
    "basis": ("divisor",),
    "coeff": ("d_min", "d_max", "caps"),
    "divpoly": ("n",),
    "kmodel": ("group", "W", "sign", "products_upto"),
    "completion": ("k",),
    "localcoh": ("pi", "a"),
    "serre": ("divisor", "caps"),
    "sections": ("divisor", "pi", "cap"),
    "glue": ("divisor", "left", "right", "cap"),
    "roundtrip": ("W", "opens", "caps"),
    "cache": ("action", "upto"),
}
# params whose value is a {class: count} object, a class list, a list of
# class lists, or one of a few words; the rest are single integers
DICTS = {"W", "divisor", "caps"}
LISTS = {"pi", "left", "right"}
WORDS = {"variance", "group", "action"}
# values no parameter accepts in any position
WRONG_TYPES = [1.5, None, "7", True, [1.5], {"x": 1}]
CURVES = [
    {"a": "-1", "b": "0"}, {"a": 0, "b": 1},          # smooth
    {"a": "0", "b": "0"}, {"a": "-3", "b": "2"},      # singular
]
SMOOTH = CURVES[:2]
# coordinate scales: none, or one of the scales the t_s carry a power of
SCALES = [None, None, "2", "-1", "1/3"]
BAD_CURVES = [{"a": 0.5, "b": "0"}, {"a": "1"}, {"a": None, "b": "0"}, "y^2",
              {"a": "1/0", "b": "0"}, {"a": "0", "b": "0", "c": "1"},
              {"a": "-1", "b": f"1/{10 ** 3999}"}]


def _shaped(key: str, command: str, value: int):
    """`value` where a number sits in the param `key`: a class label or a
    multiplicity of an object, an entry of a list, or the integer."""
    if key == "opens":
        return [[value]]
    if key == "caps" and command == "roundtrip":
        return [value]
    if key in LISTS:
        return [value]
    if key in DICTS:
        return {"1": value} if value > 0 else {str(value): 1}
    return value


@st.composite
def cases(draw):
    """(command, config, the exit code it must have or None): 1 for a
    broken parameter, 0 for an untouched config on a smooth curve."""
    command = draw(st.sampled_from(sorted(BASE)))
    params = json.loads(json.dumps(BASE[command]))
    config = {"params": params}
    if command != "kmodel":
        config["curve"] = draw(st.sampled_from(CURVES))
        scale = draw(st.sampled_from(SCALES))
        if scale is not None:
            config["coordinate"] = {"scale": scale}
    kind = draw(st.sampled_from(
        ["none", "wrong-type", "negative", "huge", "unknown-param", "unknown-top",
         "bad-curve"]))
    numeric = [k for k in KEYS[command] if k not in WORDS]
    if kind == "wrong-type":
        params[draw(st.sampled_from(KEYS[command]))] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "negative":
        key = draw(st.sampled_from(numeric))
        if key in ("d_min", "d_max"):
            return command, config, None  # a negative degree is a degree
        params[key] = _shaped(key, command, -draw(st.integers(2, 10**6)))
    elif kind == "huge":
        key = draw(st.sampled_from(numeric))
        params[key] = _shaped(key, command, draw(st.integers(10**6, 10**30)))
    elif kind == "unknown-param":
        params[draw(st.sampled_from(["extra", "Caps", "w", "depth"]))] = 1
    elif kind == "unknown-top":
        config[draw(st.sampled_from(["extra", "Params", "curves"]))] = {}
    elif kind == "bad-curve":
        config["curve"] = draw(st.sampled_from(BAD_CURVES))
    else:
        return command, config, 0 if config.get("curve", SMOOTH[0]) in SMOOTH else None
    return command, config, 1


def _run(directory: str, command: str, config: dict) -> tuple[int, str, bytes | None]:
    path = os.path.join(directory, "job.json")
    out = os.path.join(directory, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    if os.path.exists(out):
        os.remove(out)
    argv = [command, "--config", path, "--out", out]
    if command == "cache":
        argv += ["--cache", os.path.join(directory, "psi.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
    # the success line carries a wall-clock time, the only varying byte
    lines = [line for line in err.getvalue().splitlines() if " finished in " not in line]
    return code, "\n".join(lines), report


@pytest.fixture(autouse=True)
def _no_cache_env(monkeypatch):
    monkeypatch.delenv("ELLT_CACHE", raising=False)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_generated_configs_keep_the_exit_contract(case):
    command, config, expected = case
    with tempfile.TemporaryDirectory() as directory:
        code, err, report = _run(directory, command, config)
        assert code in (0, 1, 2, 3), (code, err)
        assert "Traceback" not in err, err
        if expected is not None:
            assert code == expected, (code, err)
        if expected == 1:
            assert err.startswith("ellt: config error:") and "\n" not in err, err
        assert (report is not None) == (code == 0)
        assert _run(directory, command, config) == (code, err, report)
