"""The three workloads: seeded passes of jobs, how each job is run, and
the independent check of its answer.

Job costs span three orders of magnitude, and a run of a few hundred
random draws from such a population gives medians and percentiles that
move by 10-20% from seed to seed.  So `rr_sweep` and `sheaf_glue` run
whole passes over a fixed population, each pass in a new seeded order
(with seeded operation choices in `rr_sweep`), and the runner only stops
between passes: every pass is the same work, and a run is a whole number
of them.  `cli_jobs` runs every command once per pass and draws curve
and parameters from small pools, so configs repeat and repeated reports
can be compared.

A workload exposes `setup(lib)` (the work timed as `setup_s`),
`passes(rng, state)` (an endless iterator of job lists),
`start_pass(lib, state, index)` (untimed preparation before each pass),
`run(lib, state, job)` (the timed call, through the library's public
functions) and `check(state, job, result)` (raises AssertionError on a
wrong answer).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import oracles


def passes(rng, make_pass):
    """Endless stream of passes, each freshly made and shuffled."""
    while True:
        jobs = make_pass()
        rng.shuffle(jobs)
        yield jobs


def deck(rng, size: int):
    """Endless seeded draws from range(size) that deal every value once,
    in a fresh order, before any value comes again."""
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def weight_family(max_class: int, budget: int) -> list[dict]:
    """Every weight on classes <= max_class with total |a_n| <= budget,
    the zero weight included (the acceptance suite uses 6, 4)."""
    out = []

    def rec(n, left, current):
        if n > max_class:
            out.append(dict(current))
            return
        for a in range(-left, left + 1):
            if a:
                current[n] = a
            rec(n + 1, left - abs(a), current)
            current.pop(n, None)

    rec(1, budget, {})
    return out


THEORY_CURVES = ((-1, 0), (0, 1))


class RRSweep:
    """Sphere (co)homology on warm theories, checked against Riemann-Roch.

    A pass is every weight on classes <= 6 with total size <= 3 on both
    curves, and the three-point stabilisation of every weight on classes
    <= 3 with size <= 2.  The acceptance-suite size 4 is left out: one pass
    over it takes 44 s cold, longer than a run.  Cohomology of W is
    homology of -W, so the seed picks the operation per {W, -W} pair and
    a pass always evaluates both windows.  Every pass starts on freshly
    built theories, so the window memo starts empty and fills within the
    pass: each pass builds the same windows and hits the memo as often,
    and the memo's size does not depend on how many passes a run makes.
    """

    def setup(self, lib):
        return {"theories": [lib.eatheory.build_ea(c) for c in THEORY_CURVES]}

    def start_pass(self, lib, state, index):
        if index:
            state["theories"] = [lib.eatheory.build_ea(c) for c in THEORY_CURVES]

    def passes(self, rng, state):
        curves = range(len(THEORY_CURVES))
        family = weight_family(6, 3)
        stable = weight_family(3, 2)

        def pair(w):
            return min(tuple(sorted(w.items())), tuple(sorted((n, -a) for n, a in w.items())))

        def make_pass():
            op = {}
            jobs = []
            for ci in curves:
                for w in family:
                    key = (ci, pair(w))
                    op.setdefault(key, rng.choice(("homology", "cohomology")))
                    jobs.append({"op": op[key], "curve": ci, "W": w})
                jobs += [{"op": "stable", "curve": ci, "W": w} for w in stable]
            return jobs

        return passes(rng, make_pass)

    def run(self, lib, state, job):
        ea = lib.eatheory
        theory = state["theories"][job["curve"]]
        w = job["W"]
        if job["op"] == "stable":
            return ea.stable_sphere_homology(theory, w, oracles.default_caps(w)).value
        call = ea.sphere_homology if job["op"] == "homology" else ea.sphere_cohomology
        hom = call(theory, w)
        return (hom.h0, hom.h1)

    def check(self, state, job, result):
        sign = -1 if job["op"] == "cohomology" else 1
        expected = oracles.h_dims(sign * oracles.weight_degree(job["W"]))
        assert tuple(result) == expected, f"dims {result}, Riemann-Roch says {expected}"


# ---------------------------------------------------------------------------
# sheaf gluing


# the sheaf suite of the acceptance tests
GLUE_DIVISORS = ({}, {1: 1}, {2: 1}, {1: -1})
GLUE_COVERS = (((), (1,)), ((1,), (2,)), ((2,), (3,)), ((1, 2), (2, 4)),
               ((4,), (1, 3)), ((3,), (3,)))
GLUE_CAPS = (0, 1, 2, 3)
ROUNDTRIP_SPHERES = ({}, {1: 1}, {2: 1}, {1: -1}, {1: 1, 3: 1})
DEFAULT_OPENS = ((), (1,), (2,), (1, 2))
DEFAULT_CAPS = (0, 1, 2, 3)


def check_glue(report: dict, coeffs: dict, left, right, cap: int) -> None:
    # the union of two opens removes the shared classes, the intersection
    # removes all of them
    removed = {"left": left, "right": right, "union": set(left) & set(right),
               "intersection": set(left) | set(right)}
    degrees = {k: oracles.fattened_degree(coeffs, r, cap) for k, r in removed.items()}
    dims = {k: oracles.h_dims(v)[0] for k, v in degrees.items()}
    h1 = {k: oracles.h_dims(v)[1] for k, v in degrees.items()}
    assert report["ok"] is True, "glue report is not ok"
    assert report["dims"] == dims, f"section dims {report['dims']}, expected {dims}"
    rank = dims["left"] + dims["right"] - dims["union"]
    assert report["rank"] == rank, f"rank {report['rank']}, exactness needs {rank}"
    coker = dims["intersection"] - rank
    assert report["coker"] == coker == (
        h1["intersection"] + h1["union"] - h1["left"] - h1["right"]
    ), f"cokernel {report['coker']}, duality forces {coker}"


def check_roundtrip(report: dict, weights: dict) -> None:
    assert report["ok"] is True, "roundtrip report is not ok"
    exps = oracles.weight_exponents(weights)
    expected = [
        {"pi": list(pi),
         "dims": [oracles.h_dims(oracles.fattened_degree(exps, pi, cap))[0]
                  for cap in DEFAULT_CAPS]}
        for pi in DEFAULT_OPENS
    ]
    assert report["opens"] == expected, f"roundtrip dims {report['opens']}"


class SheafGlue:
    """Mayer-Vietoris on two-piece covers plus sheaf-model roundtrips.

    A pass is the acceptance sheaf suite on both curves: every divisor,
    cover and cap 0-3 of GLUE_* through `glue_check`, and `roundtrip` of
    every sphere in ROUNDTRIP_SPHERES over the default opens.  Per-job
    costs run from 0.1 ms to half a second; two curves give twice as many
    distinct costs, so the median does not sit on a gap between two jobs.
    """

    def setup(self, lib):
        return {"theories": [lib.eatheory.build_ea(c) for c in THEORY_CURVES]}

    def passes(self, rng, state):
        def make_pass():
            jobs = []
            for ci in range(len(THEORY_CURVES)):
                jobs += [{"op": "glue", "curve": ci, "D": d, "left": left, "right": right,
                          "cap": cap}
                         for d in GLUE_DIVISORS for left, right in GLUE_COVERS
                         for cap in GLUE_CAPS]
                jobs += [{"op": "roundtrip", "curve": ci, "W": w} for w in ROUNDTRIP_SPHERES]
            return jobs

        return passes(rng, make_pass)

    def run(self, lib, state, job):
        sheaf = lib.sheafside
        theory = state["theories"][job["curve"]]
        if job["op"] == "roundtrip":
            return sheaf.roundtrip(theory, job["W"])
        return sheaf.glue_check(theory.cache, job["D"], sheaf.OpenSet(job["left"]),
                                sheaf.OpenSet(job["right"]), job["cap"])

    def check(self, state, job, result):
        if job["op"] == "roundtrip":
            check_roundtrip(result, job["W"])
        else:
            check_glue(result, job["D"], job["left"], job["right"], job["cap"])


# ---------------------------------------------------------------------------
# the command line job mix


# commands that build a theory per job; they come twice per block, so the
# median job is a theory build rather than the edge between the two groups
CLI_THEORY_COMMANDS = ("coeff", "completion", "dims", "localcoh", "roundtrip", "serre")
CLI_CURVES = (("-1", "0"), ("0", "1"), ("1", "0"), ("-4", "0"), ("0", "-2"), ("0", "1/4"))

# per command: the parameter sets a job draws from (the curve is drawn apart)
CLI_PARAMS = {
    "dims": [{"W": {"1": 2}, "variance": "homology"},
             {"W": {"1": 1, "2": -1}, "variance": "cohomology"},
             {"W": {"2": 1}, "variance": "homology"},
             {"W": {"1": -1, "3": 1}, "variance": "cohomology"}],
    "basis": [{"divisor": {"1": 2}}, {"divisor": {"1": 1, "2": 1}},
              {"divisor": {"2": -1, "3": 1}}, {"divisor": {"3": 1}}],
    "coeff": [{"d_min": -4, "d_max": 4}, {"d_min": -2, "d_max": 6},
              {"d_min": -6, "d_max": 2}, {"d_min": 0, "d_max": 3}],
    "divpoly": [{"n": n} for n in (3, 4, 5, 6)],
    "kmodel": [{"group": "multiplicative", "W": {"1": 1, "2": 1}, "sign": 1, "products_upto": 8},
               {"group": "multiplicative", "W": {"3": 1}, "sign": -1, "products_upto": 12},
               {"group": "additive", "W": {"1": 2}, "sign": 1, "products_upto": 6},
               {"group": "additive", "W": {"2": 1, "3": 1}, "sign": -1, "products_upto": 10}],
    "completion": [{"k": k} for k in (3, 4, 5, 6)],
    "localcoh": [{"pi": [2], "a": 1}, {"pi": [3], "a": 2},
                 {"pi": [2, 3], "a": 1}, {"pi": [1, 2], "a": 3}],
    "serre": [{"divisor": {"1": 1}}, {"divisor": {"1": 2}},
              {"divisor": {"2": 1}}, {"divisor": {"1": 1, "2": 1}}],
    "sections": [{"divisor": {"1": 1}, "pi": [2], "cap": 2},
                 {"divisor": {}, "pi": [1], "cap": 3},
                 {"divisor": {"2": 1}, "pi": [1, 3], "cap": 1},
                 {"divisor": {"1": -1}, "pi": [2], "cap": 2}],
    "glue": [{"divisor": {"1": 1}, "left": [1], "right": [2], "cap": 2},
             {"divisor": {}, "left": [1, 2], "right": [2, 4], "cap": 1},
             {"divisor": {"2": 1}, "left": [2], "right": [3], "cap": 2},
             {"divisor": {"1": -1}, "left": [4], "right": [1, 3], "cap": 1}],
    "roundtrip": [{"W": {}}, {"W": {"1": 1}}, {"W": {"2": 1}}, {"W": {"1": -1}}],
    "cache": [{"upto": n} for n in (4, 5, 6, 7)],
}


def _ints(d: dict) -> dict:
    return {int(k): v for k, v in d.items()}


def _poly_degree(text: str) -> int:
    return len(oracles.parse_poly(text)) - 1


def _n_series(group: str, n: int) -> list:
    if group == "multiplicative":
        return oracles.padd([1], oracles.pscale(oracles.ppow([0, 1], n), -1))
    return [0, n]


def check_cli_report(command: str, curve, params: dict, report: dict) -> None:
    """Per-command oracle on a parsed report."""
    p = params
    if command == "dims":
        sign = 1 if p["variance"] == "homology" else -1
        expected = oracles.h_dims(sign * oracles.weight_degree(_ints(p["W"])))
        assert (report["h0"], report["h1"]) == expected, f"dims {report}"
        assert len(report["h0_basis"]) == report["h0"]
    elif command == "basis":
        dim = oracles.h_dims(oracles.divisor_degree(_ints(p["divisor"])))[0]
        assert report["dim"] == len(report["basis"]) == dim, f"basis dim {report['dim']}"
    elif command == "coeff":
        rows = report["rows"]
        assert [r["degree"] for r in rows] == list(range(p["d_min"], p["d_max"] + 1))
        assert all(r["dim"] == 1 for r in rows)
        assert [r["witness"] for r in rows] == oracles.coefficient_witnesses(
            p["d_min"], p["d_max"])
    elif command == "divpoly":
        n = p["n"]
        a, b = (oracles.Fraction(x) for x in curve)
        psi = oracles.parse_elt(report["psi"])
        assert oracles.elt_equal(psi, oracles.division_polynomial(a, b, n)), "psi_n"
        rhs = [b, a, 0, 1]
        product = ([oracles.Fraction(n)], [], [1])
        for text in report["t_factors"].values():
            product = oracles.elt_mul(product, oracles.parse_elt(text), rhs)
        assert oracles.elt_equal(psi, product), "psi_n != n * prod t_s"
        assert sorted(map(int, report["t_factors"])) == [s for s in oracles.divisors(n) if s > 1]
        assert report["ord_e"] == -(n * n - 1)
    elif command == "kmodel":
        group = p["group"]
        assert report["rank"] == 1 and report["odd_dim"] == 0
        chi = [1]
        for n, a in _ints(p["W"]).items():
            chi = oracles.pmul(chi, oracles.ppow(_n_series(group, n), a))
        euler = [oracles.parse_poly(t) for t in report["euler"].split(" / ")]
        gen = [oracles.parse_poly(t) for t in report["generator"].split(" / ")]
        assert euler[0] == oracles.pmul(chi, euler[1]), "euler class != prod [n]^a_n"
        if p["sign"] == 1:  # generator is chi^-1
            assert oracles.pmul(gen[0], euler[0]) == oracles.pmul(gen[1], euler[1])
        else:
            assert oracles.pmul(gen[0], euler[1]) == oracles.pmul(euler[0], gen[1])
        upto = p["products_upto"]
        assert report["products_ok_upto"] == upto
        for s in range(1, upto + 1):
            want = oracles.totient(s) if group == "multiplicative" else int(s == 1)
            assert _poly_degree(report["phi"][str(s)]) == want, f"phi_{s}"
    elif command == "completion":
        k = p["k"]
        assert report["dim"] == k and report["nilpotency_order"] == k
        assert len(report["action"]) == k and all(len(r) == k for r in report["action"])
    elif command == "localcoh":
        expected = p["a"] * oracles.torsion_count(p["pi"])
        assert report["dim"] == expected, f"local cohomology {report['dim']} != {expected}"
        assert report["degree"] == "odd"
    elif command == "serre":
        deg = oracles.divisor_degree(_ints(p["divisor"]))
        assert report["dim"] == report["rank"] == deg and report["nondegenerate"] is True
    elif command == "sections":
        deg = oracles.fattened_degree(_ints(p["divisor"]), p["pi"], p["cap"])
        assert report["dim"] == len(report["basis"]) == oracles.h_dims(deg)[0]
    elif command == "glue":
        check_glue(report, _ints(p["divisor"]), p["left"], p["right"], p["cap"])
    elif command == "roundtrip":
        check_roundtrip(report, _ints(p["W"]))
    elif command == "cache":
        assert report["entries"] == p["upto"], f"cache holds {report['entries']} entries"
        if report["action"] == "verify":
            assert report["ok"] is True
    else:
        raise AssertionError(f"no oracle for command {command}")


class CliJobs:
    """Every command through in-process `cli.main`, one fresh theory per job."""

    def __init__(self, work_root: str):
        self.work_root = work_root

    def setup(self, lib):
        os.makedirs(self.work_root, exist_ok=True)
        return {"dir": tempfile.mkdtemp(dir=self.work_root, prefix="cli-"), "digests": {}}

    def close(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)

    def _job(self, state, command, ci, pi, action=None):
        curve = CLI_CURVES[ci]
        params = dict(CLI_PARAMS[command][pi])
        key = f"{command}-{ci}-{pi}" + (f"-{action}" if action else "")
        path = os.path.join(state["dir"], key)
        config = {"command": command, "params": params}
        if command != "kmodel":
            config["curve"] = {"a": curve[0], "b": curve[1]}
        argv = [command, "--config", path + ".config.json", "--out", path + ".out.json"]
        if command == "cache":
            config["params"] = {"action": action, "upto": params["upto"]}
            argv += ["--cache", os.path.join(state["dir"], f"psi-{ci}-{pi}.json")]
        if not os.path.exists(argv[2]):
            with open(argv[2], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        return {"op": command, "key": key, "curve": curve, "params": params,
                "argv": argv, "out": argv[4]}

    def passes(self, rng, state):
        # curves and parameter sets are dealt, not drawn, so a run of a few
        # hundred jobs sees each of them equally often
        commands = sorted(CLI_PARAMS) + list(CLI_THEORY_COMMANDS)
        curves = deck(rng, len(CLI_CURVES))
        params = {c: deck(rng, len(p)) for c, p in CLI_PARAMS.items()}
        while True:
            rng.shuffle(commands)
            jobs = []
            for command in commands:
                ci = next(curves)
                pi = next(params[command])
                if command == "cache":
                    # verify reads what warm just wrote, so they run as a pair
                    jobs.append(self._job(state, command, ci, pi, "warm"))
                    jobs.append(self._job(state, command, ci, pi, "verify"))
                else:
                    jobs.append(self._job(state, command, ci, pi))
            yield jobs

    def run(self, lib, state, job):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = lib.cli.main(job["argv"])
        return code, err.getvalue()

    def check(self, state, job, result):
        code, err = result
        assert code == 0, f"exit code {code}: {err.strip()}"
        with open(job["out"], "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        seen = state["digests"].setdefault(job["key"], digest)
        assert seen == digest, "repeated job gave a different report"
        check_cli_report(job["op"], job["curve"], job["params"], json.loads(data))
