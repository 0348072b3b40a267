"""Batch front end: one command per run, JSON config in, deterministic
report out.

Reports are plain dicts with a fixed field order, serialized with a
fixed layout, so identical config and cache state give byte-identical
output.  Timing goes to stderr, never into the report.  Exit codes:
0 success, 1 config problem, 2 caps too small to certify, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from functools import cache
from math import lcm

from .affinegroups import AffineGroup, affine_sphere_module
from .curvefield import Coordinate, CycCache, FuncElt, TorsionDivisor, WeierstrassCurve
from .eatheory import (
    EATheory,
    EllipticGroupData,
    coefficient_ring,
    completion,
    local_cohomology,
    rep_to_divisor,
    serre_pairing,
    sphere_cohomology,
    sphere_homology,
)
from .errors import CapTooSmall, EllTError, ValidationFailed
from .exactcore import Q, _label, divisors_of, parse_poly, qtext
from .sheafside import DEFAULT_OPENS, OpenSet, glue_check, roundtrip, sections
from .tmodel import _coerce_weight


class ConfigError(Exception):
    """The configuration (file, flags, or parameters) is unusable."""


# ----------------------------------------------------------------------
# config parsing


def _check_keys(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


# a decimal exponent after its mantissa, in the grammar of `Fraction`
_EXPONENT = re.compile(r"([^eE/]*[\d.])[eE]([-+]?\d+(?:_\d+)*)\s*")


def _short_rational(value, where: str) -> Q:
    """Exact rational from an int or a 'p/q' string, refused past
    CURVE_DIGITS_CEILING digits above or below the fraction bar; floats
    are refused.

    `Fraction` builds 10^|e| for a decimal exponent e, so the mantissa is
    read first.  A nonzero mantissa of n characters lies between 10^-n and
    10^n, so when |e| >= CURVE_DIGITS_CEILING + n the value must pass the
    ceiling, and it is refused before any power of ten is built.
    """
    too_long = (f"{where} must have at most {CURVE_DIGITS_CEILING} "
                "digits in its numerator and denominator")
    if type(value) is int:
        number = Q(value)
    elif isinstance(value, str):
        parts = _EXPONENT.fullmatch(value)
        try:
            number, shift = (Q(parts[1]), Q(parts[2])) if parts else (Q(value), 0)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where} is not a rational 'p/q' string: {value!r}")
        if number and shift:
            if abs(shift) >= CURVE_DIGITS_CEILING + len(parts[1]):
                raise ConfigError(too_long)
            number *= Q(10) ** shift
    else:
        raise ConfigError(f"{where} must be an integer or a 'p/q' string, got {value!r}")
    if max(abs(number.numerator), number.denominator) >= 10 ** CURVE_DIGITS_CEILING:
        raise ConfigError(too_long)
    return number


def _integer(value, where: str, minimum: int | None = None,
             maximum: int | None = None) -> int:
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where} must be <= {maximum}")
    return value


# largest class label, `cap` or `caps` value, cap divisor degree,
# section divisor degree, `roundtrip` `opens` and `caps` length, completion
# stage `k`, `localcoh` level `a`, `products_upto`, `kmodel` Euler class
# degree, `coeff` span, `serre` divisor degree and digits of the numerator
# or denominator of a curve coefficient or the coordinate scale a request
# may name: past them one small config can run for minutes (README.md)
CLASS_CEILING = 8
CAP_CEILING = 10
CAP_DEGREE_CEILING = 73
DIVISOR_CEILING = 96
LIST_CEILING = 6
STAGE_CEILING = 16
LEVEL_CEILING = 16
PRODUCTS_CEILING = 140
EULER_DEGREE_CEILING = 256
SPAN_CEILING = 100_000
DEGREE_CEILING = 24
CURVE_DIGITS_CEILING = 8


def _weight_dict(value, where: str, minimum: int | None = None,
                 maximum: int | None = None) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object of {{class: count}}")
    out = {}
    for key, count in value.items():
        try:
            s = _label(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{where} class label {key!r} is not canonical integer text")
        if s < 1:
            raise ConfigError(f"{where} classes are labelled by integers >= 1")
        _integer(s, f"{where} class label", maximum=CLASS_CEILING)
        out[s] = _integer(count, f"{where}[{key}]", minimum, maximum)
    return out


def _caps(params: dict, default: dict | None = None) -> dict | None:
    """params.caps, or else `default`, refused when the cap divisor they
    make has a degree above CAP_DEGREE_CEILING."""
    where, caps = "params.W default caps", default
    if "caps" in params:
        where = "params.caps"
        caps = _weight_dict(params["caps"], where, 0, CAP_CEILING)
    if caps is not None:
        _integer(TorsionDivisor(caps).degree, f"{where} cap divisor degree",
                 maximum=CAP_DEGREE_CEILING)
    return caps


def _divisor(coeffs: dict, where: str, cap: int = 0, pi=()) -> dict:
    """coeffs, refused when their size is above DIVISOR_CEILING: the
    degree with every multiplicity counted positive, plus `cap` on each
    class of `pi`, which bounds every divisor a request builds from them."""
    size = TorsionDivisor({s: abs(n) for s, n in coeffs.items()}).degree
    size += cap * TorsionDivisor(dict.fromkeys(pi, 1)).degree
    _integer(size, f"{where} size", maximum=DIVISOR_CEILING)
    return coeffs


def _class_list(value, where: str, minimum: int = 1,
                maximum: int = CLASS_CEILING, holds: str = "class orders") -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of {holds}")
    return [_integer(s, where, minimum, maximum) for s in value]


class JobConfig:
    """Validated run description: curve, coordinate, command parameters."""

    __slots__ = ("command", "curve", "scale", "params", "cache_path",
                 "output_path", "fmt")

    def __init__(self, command: str, raw: dict):
        _check_keys(raw, ("curve", "coordinate", "command", "params",
                          "cache_path", "output_path", "format"), "config")
        if "command" in raw and raw["command"] != command:
            raise ConfigError(
                f"config names command {raw['command']!r} but {command!r} was invoked"
            )
        self.command = command

        self.curve = None
        if "curve" in raw:
            block = raw["curve"]
            if not isinstance(block, dict):
                raise ConfigError("curve must be an object with keys a, b")
            _check_keys(block, ("a", "b"), "curve")
            if "a" not in block or "b" not in block:
                raise ConfigError("curve needs both a and b")
            self.curve = tuple(_short_rational(block[key], f"curve.{key}") for key in ("a", "b"))

        self.scale = Q(1)
        if "coordinate" in raw:
            block = raw["coordinate"]
            if not isinstance(block, dict):
                raise ConfigError("coordinate must be an object")
            _check_keys(block, ("form", "scale"), "coordinate")
            form = block.get("form", "x/y")
            if form != "x/y":
                raise ConfigError(f"only the x/y coordinate form is supported, got {form!r}")
            if "scale" in block:
                self.scale = _short_rational(block["scale"], "coordinate.scale")
                if self.scale == 0:
                    raise ConfigError("coordinate.scale must be nonzero")

        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        self.params = params

        self.cache_path = raw.get("cache_path")
        self.output_path = raw.get("output_path")
        for field in ("cache_path", "output_path"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{field} must be a string path")

        self.fmt = raw.get("format", "json")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.fmt!r}")
        if self.fmt == "csv" and command not in ("dims", "coeff"):
            raise ConfigError("csv output is limited to the dimension tables "
                              "(dims, coeff)")

    def require_curve(self) -> tuple:
        if self.curve is None:
            raise ConfigError(f"command {self.command} needs a curve")
        return self.curve


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def load_config(command: str, path: str) -> JobConfig:
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return JobConfig(command, raw)


# ----------------------------------------------------------------------
# cache file handling

# largest psi index a request may compute or a cache file may hold:
# psi_n costs four to ten times as much from n = 24 to n = 32 (README.md)
PSI_CEILING = 32
# bits of the larger of the numerator and denominator of the coordinate
# scale, times n^2 - 1: `divpoly` reports n * scale^(n^2 - 1), and each t_s
# carries scale^|A<s>|, so past this the text nears Python's 4300-digit
# conversion limit (README.md)
SCALE_POWER_CEILING = 4096
# bits of u, the lcm of the denominators of a and b, times n^2 - 1: on that
# integral model `cache warm` to 32 takes 2 s at 7 bits of u, 3 s at 8 (README.md)
MODEL_POWER_CEILING = 7168


def _model_power(config: JobConfig, n: int, where: str) -> None:
    u = lcm(*(c.denominator for c in config.require_curve()))
    _integer((n * n - 1) * u.bit_length(), f"{where} with the curve: bits of u^(n^2 - 1), "
             "u the lcm of the denominators of a and b", maximum=MODEL_POWER_CEILING)


def _cache_identity(cache: CycCache) -> dict:
    return {"curve": cache.curve.payload(), "scale": qtext(cache.coordinate.scale)}


def _cache_envelope(path: str) -> dict:
    """The psi cache file at path, refused unless it has the envelope `cache
    warm` writes: a JSON object, a psi object, an `upto` in 1..PSI_CEILING."""
    payload = _read_json(path, "cache")
    if not isinstance(payload, dict) or not isinstance(payload.get("psi"), dict):
        raise ConfigError(f"cache {path} is not a division-polynomial cache")
    upto = payload.get("upto")
    if type(upto) is not int or not 1 <= upto <= PSI_CEILING:
        raise ConfigError(f"cache {path} has no upto in 1..{PSI_CEILING}")
    return payload


def _check_cache_file(config: JobConfig, cache: CycCache, foreign_ok: bool) -> int:
    """Check the psi cache file at config.cache_path against `cache`, in
    order: the envelope `cache warm` writes (an `upto` in 1..PSI_CEILING and
    a psi object), the curve and scale it was built for, its entries
    ({"n": [u, v, d]}, n canonical decimal text in 1..upto, three
    polynomial texts), its `upto` against MODEL_POWER_CEILING, then every
    entry against recomputation.  Returns the number of entries; a file for
    another curve or scale is skipped (0), unread, when `foreign_ok`, since
    one path may serve a batch over several curves."""
    path = config.cache_path
    payload = _cache_envelope(path)
    upto = payload["upto"]
    if any(payload.get(key) != value for key, value in _cache_identity(cache).items()):
        if foreign_ok:
            return 0
        raise EllTError(f"cache {path} was built for curve {payload.get('curve')} "
                        f"at scale {payload.get('scale')}, not the configured one")
    table = {}
    for key, entry in payload["psi"].items():
        try:
            index = _label(key)
        except (TypeError, ValueError):  # "01", " 1", a fullwidth digit, no integer
            index = 0
        if not 1 <= index <= upto:
            raise ConfigError(f"cache {path} has a psi index {key!r} that is not "
                              f"an integer in 1..{upto}")
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(text, str) for text in entry)):
            raise ConfigError(f"cache {path} entry {key} is not three polynomial texts")
        try:
            table[index] = tuple(parse_poly(text) for text in entry)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"cache {path} entry {key} has a malformed polynomial")
        if table[index][2].is_zero():
            raise ConfigError(f"cache {path} entry {key} has a zero denominator")
    _model_power(config, upto, f"cache {path} upto")
    for n, (u, v, d) in table.items():
        if FuncElt(cache.curve, u, v, d) != cache.psi(n):
            raise ValidationFailed(f"cached psi_{n} disagrees with recomputation")
    return len(table)


def _make_cache(config: JobConfig) -> CycCache:
    a, b = config.require_curve()
    curve = WeierstrassCurve(a, b)
    return CycCache(curve, Coordinate(curve, scale=config.scale))


def _make_theory(config: JobConfig) -> EATheory:
    return EATheory(_make_cache(config))


# ----------------------------------------------------------------------
# command handlers


def _echo(config: JobConfig, theory_or_cache) -> dict:
    cache = getattr(theory_or_cache, "cache", theory_or_cache)
    return {
        "command": config.command,
        "curve": cache.curve.payload(),
        "coordinate": cache.coordinate.describe(),
    }


def _run_dims(config: JobConfig) -> dict:
    weights = _weight_dict(config.params["W"], "params.W")
    variance = config.params.get("variance", "homology")
    if variance not in ("homology", "cohomology"):
        raise ConfigError("params.variance must be homology or cohomology")
    weight = _coerce_weight(weights)
    exp = (weight if variance == "homology" else -weight).exponent_map()
    caps = _caps(config.params, EllipticGroupData.default_caps(exp))
    # W's size bounds the window depths, which the default caps of a
    # cohomology request do not
    _divisor(rep_to_divisor(weights).coeffs, "params.W divisor")
    theory = _make_theory(config)
    run = sphere_homology if variance == "homology" else sphere_cohomology
    hom = run(theory, weights, caps=caps)
    return {
        **_echo(config, theory),
        "variance": variance,
        "W": TorsionDivisor(weights).payload(),
        "h0": hom.h0,
        "h1": hom.h1,
        "h0_basis": [f.text() for f in hom.h0_basis()],
        "certified_caps": TorsionDivisor(hom.window.caps).payload(),
    }


def _run_basis(config: JobConfig) -> dict:
    coeffs = _divisor(_weight_dict(config.params["divisor"], "params.divisor"),
                      "params.divisor")
    cache = _make_cache(config)
    divisor = TorsionDivisor(coeffs)
    basis = cache.rr_basis(divisor)
    return {
        **_echo(config, cache),
        "divisor": divisor.payload(),
        "dim": len(basis),
        "basis": [f.text() for f in basis],
    }


def _run_coeff(config: JobConfig) -> dict:
    d_min = _integer(config.params.get("d_min", -4), "params.d_min")
    d_max = _integer(config.params.get("d_max", 4), "params.d_max")
    _integer(d_max - d_min, "params.d_max - params.d_min", minimum=0,
             maximum=SPAN_CEILING)
    caps = _caps(config.params)
    theory = _make_theory(config)
    rows = coefficient_ring(theory, d_min, d_max, caps=caps)
    return {**_echo(config, theory), "d_min": d_min, "d_max": d_max, "rows": rows}


def _run_divpoly(config: JobConfig) -> dict:
    n = _integer(config.params["n"], "params.n", 1, PSI_CEILING)
    scale = config.scale
    _integer((n * n - 1) * max(abs(scale.numerator), scale.denominator).bit_length(),
             "params.n with coordinate.scale: bits of scale^(n^2 - 1)",
             maximum=SCALE_POWER_CEILING)
    _model_power(config, n, "params.n")
    cache = _make_cache(config)
    if config.cache_path is not None and os.path.exists(config.cache_path):
        _check_cache_file(config, cache, foreign_ok=True)
    psi = cache.psi(n)
    factors = {s: cache.t(s) for s in divisors_of(n) if s > 1}
    # each t_s is normalised against the coordinate c x/y, and the
    # factors have n^2 - 1 poles at e, so psi_n = n c^(n^2 - 1) prod t_s
    scalar = n * scale ** (n * n - 1)
    if cache.t_star(TorsionDivisor(dict.fromkeys(factors, 1))) * scalar != psi:
        raise EllTError(f"psi_{n} does not match its cyclotomic factorization")
    return {
        **_echo(config, cache),
        "n": n,
        "psi": psi.text(),
        "ord_e": -(n * n - 1),
        "scalar": qtext(scalar),
        "t_factors": {str(s): f.text() for s, f in sorted(factors.items())},
        "factorization_ok": True,
    }


def _run_kmodel(config: JobConfig) -> dict:
    kind = config.params.get("group")
    if kind not in ("multiplicative", "additive"):
        raise ConfigError("params.group must be multiplicative or additive")
    sign = _integer(config.params.get("sign", 1), "params.sign")
    if sign not in (1, -1):
        raise ConfigError("params.sign must be 1 or -1")
    weights = upto = None
    if "W" in config.params:
        weights = _weight_dict(config.params["W"], "params.W")
        if any(a < 1 for a in weights.values()):
            raise ConfigError("params.W multiplicities must be >= 1; dual "
                              "spheres are selected with params.sign = -1")
        _integer(sum(n * a for n, a in weights.items()), "params.W Euler class degree",
                 maximum=EULER_DEGREE_CEILING)
    if "products_upto" in config.params:
        upto = _integer(config.params["products_upto"], "params.products_upto", 1,
                        PRODUCTS_CEILING)
    group = AffineGroup(kind)
    report = {"command": config.command, "group": kind}
    if weights is not None:
        module = affine_sphere_module(group, weights, sign)
        report["W"] = TorsionDivisor(weights).payload()
        report["sign"] = sign
        report["rank"] = module.rank
        report["odd_dim"] = module.odd_dim
        report["generator"] = module.generator.text()
        report["euler"] = group.euler_class(weights).text()
    if upto is not None:
        for n in range(1, upto + 1):
            product = None
            for d in divisors_of(n):
                p = group.phi(d)
                product = p if product is None else product * p
            if not (product - group.n_series(n)).is_zero():
                raise EllTError(f"phi factors fail to assemble [{n}]")
        report["phi"] = {str(s): group.phi(s).text() for s in range(1, upto + 1)}
        report["products_ok_upto"] = upto
    return report


def _run_completion(config: JobConfig) -> dict:
    k = _integer(config.params["k"], "params.k", 1, STAGE_CEILING)
    theory = _make_theory(config)
    module = completion(theory, k)
    action = module.action_matrix()
    return {
        **_echo(config, theory),
        "k": k,
        "dim": k,
        "action": [[qtext(e) for e in row] for row in action.entries],
        "nilpotency_order": _nilpotency_order([row[0] for row in action.entries]),
    }


def _nilpotency_order(column: list) -> int | None:
    """Least m with A^m = 0 for the lower-triangular Toeplitz A of first
    column c, or None: A^m has first column c^m modulo t^k, which is 0
    exactly when m times the index v of the first nonzero entry reaches k."""
    v = next((i for i, c in enumerate(column) if c), None)
    if v is None:
        return 1
    return -(-len(column) // v) if v else None


def _run_localcoh(config: JobConfig) -> dict:
    pi = _class_list(config.params["pi"], "params.pi")
    if not pi:
        raise ConfigError("params.pi must name at least one class")
    a = _integer(config.params.get("a", 1), "params.a", 1, LEVEL_CEILING)
    theory = _make_theory(config)
    return {**_echo(config, theory), **local_cohomology(theory, pi, a).report()}


def _run_serre(config: JobConfig) -> dict:
    divisor = TorsionDivisor(_weight_dict(config.params["divisor"], "params.divisor"))
    _integer(divisor.degree, "params.divisor degree", maximum=DEGREE_CEILING)
    caps = _caps(config.params)
    theory = _make_theory(config)
    pairing = serre_pairing(theory, divisor, caps=caps)
    return {
        **_echo(config, theory),
        "divisor": divisor.payload(),
        "dim": pairing.dim,
        "rank": pairing.rank,
        "nondegenerate": pairing.nondegenerate,
        "matrix": [[qtext(e) for e in row] for row in pairing.matrix.entries],
    }


def _run_sections(config: JobConfig) -> dict:
    coeffs = _weight_dict(config.params["divisor"], "params.divisor")
    pi = _class_list(config.params["pi"], "params.pi")
    cap = _integer(config.params.get("cap", 0), "params.cap", 0, CAP_CEILING)
    _divisor(coeffs, "params.divisor", cap, pi)
    cache = _make_cache(config)
    window = sections(cache, coeffs, OpenSet(pi), cap)
    return {**_echo(config, cache), **window.report()}


def _run_glue(config: JobConfig) -> dict:
    coeffs = _weight_dict(config.params["divisor"], "params.divisor")
    left = OpenSet(_class_list(config.params["left"], "params.left"))
    right = OpenSet(_class_list(config.params["right"], "params.right"))
    cap = _integer(config.params.get("cap", 0), "params.cap", 0, CAP_CEILING)
    _divisor(coeffs, "params.divisor", cap, set(left.pi) | set(right.pi))
    cache = _make_cache(config)
    return {**_echo(config, cache), **glue_check(cache, coeffs, left, right, cap)}


def _run_roundtrip(config: JobConfig) -> dict:
    weights = _weight_dict(config.params["W"], "params.W")
    divisor = _divisor(rep_to_divisor(weights).coeffs, "params.W divisor")
    opens = DEFAULT_OPENS
    if "opens" in config.params:
        raw = config.params["opens"]
        if not isinstance(raw, list):
            raise ConfigError("params.opens must be a list of class lists")
        _integer(len(raw), "params.opens length", maximum=LIST_CEILING)
        opens = tuple(OpenSet(_class_list(p, "params.opens")) for p in raw)
    caps = (0, 1, 2, 3)
    if "caps" in config.params:
        caps = tuple(_class_list(config.params["caps"], "params.caps", 0, CAP_CEILING,
                                 "pole caps"))
        _integer(len(caps), "params.caps length", maximum=LIST_CEILING)
    cap = max(caps, default=0)
    for piece in opens:  # the largest divisor each open fattens W's to
        _divisor(divisor, f"params.W divisor with cap {cap} on classes {list(piece.pi)}",
                 cap, piece.pi)
    theory = _make_theory(config)
    return {**_echo(config, theory), **roundtrip(theory, weights, opens, caps)}


def _run_cache_admin(config: JobConfig) -> dict:
    action = config.params.get("action")
    if action not in ("warm", "verify", "clear"):
        raise ConfigError("params.action must be warm, verify, or clear")
    upto = _integer(config.params.get("upto", 6), "params.upto", 1, PSI_CEILING)
    path = config.cache_path
    if path is None:
        raise ConfigError("cache admin needs a cache path (--cache, ELLT_CACHE, "
                          "or cache_path in the config)")
    report = {"command": config.command, "action": action, "path": path}

    if action == "verify":
        report["entries"] = _check_cache_file(config, _make_cache(config), foreign_ok=False)
        report["ok"] = True
        return report

    exists = os.path.exists(path)
    if exists:
        _cache_envelope(path)  # a cache of any curve; anything else stays in place
    if action == "clear":
        if exists:
            try:
                os.remove(path)
            except OSError as exc:
                raise ConfigError(f"cannot clear cache {path}: {exc}")
        report["removed"] = exists
        return report

    _model_power(config, upto, "params.upto")
    cache = _make_cache(config)
    table = {}
    for n in range(1, upto + 1):
        psi = cache.psi(n)
        table[str(n)] = [psi.u.text(), psi.v.text(), psi.d.text()]
    try:
        _write_output(path, _json_bytes({**_cache_identity(cache), "upto": upto, "psi": table}))
    except OSError as exc:
        raise ConfigError(f"cannot write cache {path}: {exc}")
    report["upto"] = upto
    report["entries"] = upto
    return report


# command -> (handler, accepted params, required params), checked by `run`
_HANDLERS = {
    "dims": (_run_dims, ("W", "variance", "caps"), ("W",)),
    "basis": (_run_basis, ("divisor",), ("divisor",)),
    "coeff": (_run_coeff, ("d_min", "d_max", "caps"), ()),
    "divpoly": (_run_divpoly, ("n",), ("n",)),
    "kmodel": (_run_kmodel, ("group", "W", "sign", "products_upto"), ()),
    "completion": (_run_completion, ("k",), ("k",)),
    "localcoh": (_run_localcoh, ("pi", "a"), ("pi",)),
    "serre": (_run_serre, ("divisor", "caps"), ("divisor",)),
    "sections": (_run_sections, ("divisor", "pi", "cap"), ("divisor", "pi")),
    "glue": (_run_glue, ("divisor", "left", "right", "cap"), ("divisor", "left", "right")),
    "roundtrip": (_run_roundtrip, ("W", "opens", "caps"), ("W",)),
    "cache": (_run_cache_admin, ("action", "upto"), ()),
}


# ----------------------------------------------------------------------
# output


def _json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def _csv_bytes(command: str, report: dict) -> bytes:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if command == "coeff":
        writer.writerow(["degree", "dim", "witness"])
        for row in report["rows"]:
            writer.writerow([row["degree"], row["dim"], row["witness"]])
    else:
        writer.writerow(["h0", "h1"])
        writer.writerow([report["h0"], report["h1"]])
    return out.getvalue().encode("utf-8")


def _write_output(path: str, data: bytes) -> None:
    """Atomic write: a temp file in the target directory, then rename.  The
    file is made as open() makes one, with mode 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ellt-tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def run(config: JobConfig) -> dict:
    handler, accepted, required = _HANDLERS[config.command]
    _check_keys(config.params, accepted, "params")
    for key in required:
        if key not in config.params:
            raise ConfigError(f"{config.command} needs params.{key}")
    return handler(config)


# ----------------------------------------------------------------------
# entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ellt",
        description="exact windows on the elliptic model, one command per run",
        exit_on_error=False,
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", required=True, help="path to a JSON job config")
    parser.add_argument("--out", help="report destination (default: stdout)")
    parser.add_argument("--cache", help="division-polynomial cache file (divpoly, cache)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except argparse.ArgumentError as exc:
            raise ConfigError(str(exc))
        except SystemExit as exc:
            # argparse still exits directly for --help and a few error
            # paths; success stays 0, every failure becomes a config error
            return 0 if not exc.code else 1
        config = load_config(args.command, args.config)
        config.cache_path = args.cache or os.environ.get("ELLT_CACHE") or config.cache_path
        started = time.perf_counter()
        report = run(config)
        elapsed = time.perf_counter() - started
    except ConfigError as exc:
        print(f"ellt: config error: {exc}", file=sys.stderr)
        return 1
    except CapTooSmall as exc:
        print(f"ellt: caps too small: {exc}", file=sys.stderr)
        return 2
    except EllTError as exc:
        print(f"ellt: validation failed: {exc}", file=sys.stderr)
        return 3

    data = _json_bytes(report) if config.fmt == "json" else _csv_bytes(config.command, report)
    out_path = args.out or config.output_path
    try:
        if out_path:
            _write_output(out_path, data)
        else:
            sys.stdout.write(data.decode("utf-8"))
    except OSError as exc:
        print(f"ellt: cannot write report to {out_path}: {exc}", file=sys.stderr)
        return 1
    print(f"ellt: {config.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
