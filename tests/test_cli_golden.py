"""Golden report digests: every command's report bytes, pinned.

Each of the 12 commands runs through `cli.main` on two curves with the
first parameter set of the `cli_jobs` benchmark pools, `cache` as a warm
then verify pair on one cache file, and a few wider shapes run the same
way.  Jobs run in a fresh directory with
relative paths, so the path that `cache` reports echo is the same on
every machine.  The SHA-256 of each report and of the cache file must
equal the digest recorded here; a change that moves any report byte
fails, and a deliberate one records the new digests.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ellt import cli

CURVES = {"E1": ("-1", "0"), "E6": ("0", "1/4")}
# the first parameter set of each command in the cli_jobs pools
PARAMS = {
    "basis": {"divisor": {"1": 2}},
    "cache": {"upto": 4},
    "coeff": {"d_min": -4, "d_max": 4},
    "completion": {"k": 3},
    "dims": {"W": {"1": 2}, "variance": "homology"},
    "divpoly": {"n": 3},
    "glue": {"divisor": {"1": 1}, "left": [1], "right": [2], "cap": 2},
    "kmodel": {"group": "multiplicative", "W": {"1": 1, "2": 1}, "sign": 1,
               "products_upto": 8},
    "localcoh": {"pi": [2], "a": 1},
    "roundtrip": {"W": {}},
    "sections": {"divisor": {"1": 1}, "pi": [2], "cap": 2},
    "serre": {"divisor": {"1": 1}},
}
# wider shapes of the series and residue paths, each on its own curves:
# the top completion stage of the pools, a pairing over two classes, one
# over a doubled 2-torsion class and one with a triple pole at e
PAIRING_CURVES = {"E1": CURVES["E1"], "E2": ("0", "1")}
WIDER = {
    "completion-k16": ("completion", {"k": 16}, CURVES),
    "serre-two-classes": ("serre", {"divisor": {"1": 1, "2": 1}}, CURVES),
    "serre-class-2-twice": ("serre", {"divisor": {"2": 2}}, PAIRING_CURVES),
    "serre-e-thrice-class-2": ("serre", {"divisor": {"1": 3, "2": 1}}, PAIRING_CURVES),
}


def digests(command: str, curve: tuple, params=None) -> dict:
    """{file name: SHA-256} of the reports (and cache file) of one job, or
    of the warm/verify pair for `cache`, run in the current directory;
    params default to the command's first parameter set."""
    config = {"command": command, "params": params or PARAMS[command]}
    if command != "kmodel":
        config["curve"] = {"a": curve[0], "b": curve[1]}
    runs = [("report", config, [])]
    if command == "cache":
        runs = [(action, {**config, "params": {**PARAMS[command], "action": action}},
                 ["--cache", "psi.json"]) for action in ("warm", "verify")]
    out = {}
    for name, job, extra in runs:
        Path(f"{name}.config.json").write_text(json.dumps(job), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, "--config", f"{name}.config.json",
                             "--out", f"{name}.json", *extra])
        assert code == 0, err.getvalue()
        out[name] = hashlib.sha256(Path(f"{name}.json").read_bytes()).hexdigest()
    if command == "cache":
        out["psi.json"] = hashlib.sha256(Path("psi.json").read_bytes()).hexdigest()
    return out


# the digests of the reports as they stand; only a deliberate report change
# records new ones
GOLDEN = {
    "basis-E1": {
        "report": "60349c716b944f7eacf6ebf10d800217d27f173e8aa6b254f233cdfa7ee623d0",
    },
    "basis-E6": {
        "report": "d26a4ed965d4a43b45552d139934a8e2839c9acaacd35c35ff52fea9a304483a",
    },
    "cache-E1": {
        "warm": "fb7f0bc48d667c0789457e42889e9fb6b8ecafe9a7ad51dc650d29ef952e6c2c",
        "verify": "76ab2b19e365c1f0d8129c2b4a44998584c53457dd1d96d6dbe7fa5d8a622fd1",
        "psi.json": "571db2947c43bac1cbb16437bab50a17098e14c4bc0253954076303d913d45fa",
    },
    "cache-E6": {
        "warm": "fb7f0bc48d667c0789457e42889e9fb6b8ecafe9a7ad51dc650d29ef952e6c2c",
        "verify": "76ab2b19e365c1f0d8129c2b4a44998584c53457dd1d96d6dbe7fa5d8a622fd1",
        "psi.json": "d13113b9851b86e880d1abad6b12933a83f5fca44540381acb30a83cbf1af422",
    },
    "coeff-E1": {
        "report": "5797fe786ec4074aee6f04d6173aacc09fc211ce68a7bc62dcd601cba6abcd51",
    },
    "coeff-E6": {
        "report": "f9ad4ad0b20fa9da07e1ea1b30310315d4a10b92f92fe1dd4b2fcf77c66ad1b0",
    },
    "completion-E1": {
        "report": "da7e021720cd362dd8e4eac4856cc925fe239a0e625be1ae70933d6b2f160103",
    },
    "completion-E6": {
        "report": "adda3fde0ccaa0b83220b313fcefc6df4c4a366ca65c2ae8126b4d38259958cd",
    },
    "completion-k16-E1": {
        "report": "7516e99f49805857098124c062c168f1f8b445af5d85fc1b83c45e0e6529ed6b",
    },
    "completion-k16-E6": {
        "report": "33c591382a3d2939316186527084e96cce0736111a157f04b33f7b94489320e1",
    },
    "dims-E1": {
        "report": "cda83d900c2b4d278745efaffbdf44ca2a472e0a04eb6b2a255505e7089fba92",
    },
    "dims-E6": {
        "report": "8f10bc6e3cac2d559df44828ec3c67d945263d0c834fb3e4e8d6eeeab9b58948",
    },
    "divpoly-E1": {
        "report": "42189e78303a158be75526345b95f804c4e1b53c40675e6ec039eedc4c83d0de",
    },
    "divpoly-E6": {
        "report": "a3e4a75f85769cb541fa3880508dc682655084620cc2fc77f8b8b6fd29f40457",
    },
    "glue-E1": {
        "report": "8a6e3cb86c88ebdfbfe799962ea72176eac782b7db0628b2d98088f25886a851",
    },
    "glue-E6": {
        "report": "016dae232e6a095b658070bfbbdcf297205c42360dd19a0e24c528a5ab4bb71d",
    },
    "kmodel-E1": {
        "report": "e76037e3a59b4fb8583e4c01c530dfa145ac5efeef99eb47643e78d2aa8d4195",
    },
    "kmodel-E6": {
        "report": "e76037e3a59b4fb8583e4c01c530dfa145ac5efeef99eb47643e78d2aa8d4195",
    },
    "localcoh-E1": {
        "report": "73fb228a9fb01f45b61fdff5f80569826ea80d4c75ee094fa3c9d894b2b28335",
    },
    "localcoh-E6": {
        "report": "48238006a41381bc237fc340abc569f2416ffe05072d8684b88fba94928d7906",
    },
    "roundtrip-E1": {
        "report": "e1ee281af1fbf812636f63545e86285afe6c07a074b8000563ca860f751bffba",
    },
    "roundtrip-E6": {
        "report": "6c30eeb5166c055fa49edec5ac7a52f6dce756989710a047e0a06873d1a96d75",
    },
    "sections-E1": {
        "report": "0571ab890a1002c543765c15d16cb8dafc0a7f58f5b4be1265e6f0829ceaf9c1",
    },
    "sections-E6": {
        "report": "68026989bf4829d612caa33288dea46f32dd1d1c06974de066b6e88a1823d7d0",
    },
    "serre-E1": {
        "report": "c91998fb2a26c663f3df977a386db6025c17e6af453dd98b5542f28977a4b5a9",
    },
    "serre-E6": {
        "report": "a435cbe22b0908cdb66e113bf0d968a02e1b25150ba2c46cee5925e9b132e90e",
    },
    "serre-class-2-twice-E1": {
        "report": "5dc2b50db3315ba9740291a04babbeaf959663c28836701cf78050fa8f2c7ede",
    },
    "serre-class-2-twice-E2": {
        "report": "17691a20130d9ace591116d07329c7c7255f0727eeeb88c6d0ea5429795f3816",
    },
    "serre-e-thrice-class-2-E1": {
        "report": "5518c4732bddac659dc5cc1c999bfb1ce5696a9ad4d9b6b543c3ca281b16553c",
    },
    "serre-e-thrice-class-2-E2": {
        "report": "73e212cb729344207d63bf73db2a8521db50beb5b0f26dd2ac1b3000d4f676f1",
    },
    "serre-two-classes-E1": {
        "report": "be2383cff6a722f889138998d35ece5bc8c39e44b563fc2f37fe4dc49dba582d",
    },
    "serre-two-classes-E6": {
        "report": "e6844c6d6da784b573033479be8c00a5bb4f6da85cc891c16885086ad27532ee",
    },
}


@pytest.mark.parametrize("curve", sorted(CURVES))
@pytest.mark.parametrize("command", sorted(PARAMS))
def test_report_digests_are_pinned(tmp_path, monkeypatch, command, curve):
    monkeypatch.chdir(tmp_path)
    assert digests(command, CURVES[curve]) == GOLDEN[f"{command}-{curve}"]


@pytest.mark.parametrize(("shape", "curve"), [
    (shape, curve) for shape in sorted(WIDER) for curve in sorted(WIDER[shape][2])])
def test_wider_shapes_are_pinned(tmp_path, monkeypatch, shape, curve):
    monkeypatch.chdir(tmp_path)
    command, params, curves = WIDER[shape]
    assert digests(command, curves[curve], params) == GOLDEN[f"{shape}-{curve}"]


def test_every_command_is_pinned():
    assert sorted(PARAMS) == sorted(cli._HANDLERS)
