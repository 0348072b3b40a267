"""End-to-end checks of the batch front end: parsing, dispatch, exit codes."""

import json
import os
import stat
from fractions import Fraction

import pytest

from ellt import cli, curvefield, exactcore
from ellt.cli import _HANDLERS, ConfigError, JobConfig, load_config, main
from ellt.exactcore import qtext

E1 = {"curve": {"a": "-1", "b": "0"}}


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(tmp_path, command, payload, *extra):
    return main([command, "--config", write_config(tmp_path, payload), *extra])


def run_json(tmp_path, capsys, command, payload, *extra):
    code = run_cli(tmp_path, command, payload, *extra)
    assert code == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


class TestConfigParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            JobConfig("dims", {**E1, "mystery": 1})

    def test_unknown_curve_key(self):
        with pytest.raises(ConfigError, match="curve"):
            JobConfig("dims", {"curve": {"a": "1", "b": "0", "c": "2"}})

    def test_curve_needs_both_coefficients(self):
        with pytest.raises(ConfigError, match="both"):
            JobConfig("dims", {"curve": {"a": "1"}})

    def test_floats_are_refused(self):
        with pytest.raises(ConfigError, match="p/q"):
            JobConfig("dims", {"curve": {"a": 0.5, "b": "0"}})

    def test_bad_rational_string(self):
        with pytest.raises(ConfigError, match="rational"):
            JobConfig("dims", {"curve": {"a": "one half", "b": "0"}})

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="invoked"):
            JobConfig("dims", {**E1, "command": "basis"})

    def test_matching_command_echo_is_fine(self):
        assert JobConfig("dims", {**E1, "command": "dims"}).command == "dims"

    def test_only_xy_coordinate_form(self):
        with pytest.raises(ConfigError, match="x/y"):
            JobConfig("dims", {**E1, "coordinate": {"form": "weierstrass"}})

    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            JobConfig("dims", {**E1, "coordinate": {"scale": "0"}})

    def test_csv_only_for_dimension_tables(self):
        with pytest.raises(ConfigError, match="csv"):
            JobConfig("basis", {**E1, "format": "csv"})
        assert JobConfig("coeff", {**E1, "format": "csv"}).fmt == "csv"

    def test_bool_is_not_an_integer_weight(self, tmp_path):
        code = run_cli(tmp_path, "dims", {**E1, "params": {"W": {"1": True}}})
        assert code == 1

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("dims", "/nonexistent/job.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config("dims", str(path))


class TestDims:
    def test_single_weight_report(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "dims", {**E1, "params": {"W": {"1": 1}}})
        assert list(rep) == ["command", "curve", "coordinate", "variance", "W",
                             "h0", "h1", "h0_basis", "certified_caps"]
        assert (rep["h0"], rep["h1"]) == (1, 0)
        assert rep["h0_basis"] == ["([1]; []; [1])"]

    def test_cohomology_variance(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "dims",
                       {**E1, "params": {"W": {"1": 1}, "variance": "cohomology"}})
        assert (rep["h0"], rep["h1"]) == (0, 1)

    def test_undersized_caps_exit_two(self, tmp_path):
        code = run_cli(tmp_path, "dims",
                       {**E1, "params": {"W": {"3": 2}, "caps": {"1": 2}}})
        assert code == 2

    def test_missing_weights_is_a_config_error(self, tmp_path):
        assert run_cli(tmp_path, "dims", {**E1, "params": {}}) == 1

    def test_needs_a_curve(self, tmp_path):
        assert run_cli(tmp_path, "dims", {"params": {"W": {"1": 1}}}) == 1

    def test_csv_table(self, tmp_path, capsys):
        code = run_cli(tmp_path, "dims",
                       {**E1, "format": "csv", "params": {"W": {"2": 1}}})
        assert code == 0
        assert capsys.readouterr().out == "h0,h1\n4,0\n"


class TestBasisAndCoeff:
    def test_basis_of_a_double_point(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "basis",
                       {**E1, "params": {"divisor": {"1": 2}}})
        assert rep["dim"] == 2
        assert rep["basis"] == ["([1]; []; [1])", "([0, 1]; []; [1])"]

    def test_negative_divisor_has_empty_basis(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "basis",
                       {**E1, "params": {"divisor": {"1": -1}}})
        assert rep["dim"] == 0 and rep["basis"] == []

    def test_coeff_csv_is_byte_stable(self, tmp_path, capsys):
        cfg = {**E1, "format": "csv", "params": {"d_min": -2, "d_max": 2}}
        assert run_cli(tmp_path, "coeff", cfg) == 0
        assert capsys.readouterr().out == (
            "degree,dim,witness\n"
            "-2,1,Dt^-1\n"
            "-1,1,tau\n"
            "0,1,1\n"
            "1,1,tau*Dt\n"
            "2,1,Dt\n"
        )

    def test_coeff_json_rows(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "coeff", {**E1, "params": {}})
        assert rep["d_min"] == -4 and rep["d_max"] == 4
        assert all(row["dim"] == 1 for row in rep["rows"])


class TestDivpoly:
    def test_level_three(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "divpoly", {**E1, "params": {"n": 3}})
        assert rep["psi"] == "([-1, 0, -6, 0, 3]; []; [1])"
        assert rep["scalar"] == "3"
        assert rep["ord_e"] == -8
        assert rep["t_factors"] == {"3": "([-1/3, 0, -2, 0, 1]; []; [1])"}
        assert rep["factorization_ok"] is True

    def test_level_six_has_three_factors(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "divpoly", {**E1, "params": {"n": 6}})
        assert sorted(rep["t_factors"]) == ["2", "3", "6"]
        assert rep["ord_e"] == -35

    @pytest.mark.parametrize("scale,n", [(c, n) for c in ("2", "-1", "1/3")
                                         for n in (2, 3, 4, 6)])
    def test_scaled_coordinate(self, tmp_path, capsys, scale, n):
        # each t_s is normalised against scale * x/y, so
        # psi_n = n * scale^(n^2 - 1) * prod t_s; psi_n itself is unscaled
        plain = run_json(tmp_path, capsys, "divpoly", {**E1, "params": {"n": n}})
        rep = run_json(tmp_path, capsys, "divpoly",
                       {**E1, "coordinate": {"scale": scale}, "params": {"n": n}})
        assert rep["factorization_ok"] is True and rep["psi"] == plain["psi"]
        assert rep["scalar"] == qtext(n * Fraction(scale) ** (n * n - 1))
        assert rep["t_factors"] != plain["t_factors"] or scale == "-1"


# 8-digit denominators in both coefficients: u = 99999999 * 99999997 has
# 54 bits, so psi_n runs on its integral model up to n 11 (120 * 54 = 6480)
WIDE = {"curve": {"a": "1/99999999", "b": "1/99999997"}}


@pytest.mark.parametrize("command,params,where", [
    ("divpoly", {"n": 12}, "params.n"),
    ("cache", {"action": "warm", "upto": 12}, "params.upto"),
])
def test_denominators_bound_the_psi_index(tmp_path, capsys, command, params, where):
    # 143 * 54 = 7722 bits of u^(n^2 - 1) pass MODEL_POWER_CEILING
    cfg = {**WIDE, "params": params, "cache_path": str(tmp_path / "psi.json")}
    assert run_cli(tmp_path, command, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ellt: config error: {where} with the curve: bits of u^(n^2 - 1)")
    assert err.endswith(f"must be <= {cli.MODEL_POWER_CEILING}\n")
    assert not os.path.exists(tmp_path / "psi.json")


@pytest.mark.parametrize("a,b,n,admitted", [
    ("1/9", "1/7", 32, True),     # u = 63: 1023 * 6 bits
    ("1/11", "1/9", 32, True),    # u = 99: 1023 * 7
    ("1/15", "1/13", 32, False),  # u = 195: 1023 * 8
    ("-1", "0", 32, True),        # u = 1: 1023 * 1
    ("1/99999999", "1/99999997", 11, True),
    ("1/99999999", "1/99999997", 12, False),
])
def test_the_model_power_ceiling(a, b, n, admitted):
    config = JobConfig("divpoly", {"curve": {"a": a, "b": b}})
    if admitted:
        cli._model_power(config, n, "params.n")
    else:
        with pytest.raises(ConfigError, match="bits of u"):
            cli._model_power(config, n, "params.n")


@pytest.mark.parametrize("command,params", [
    ("basis", {"divisor": {"1": 1, "2": 1}}),
    ("divpoly", {"n": 2}),
    ("cache", {"action": "verify"}),
])
def test_a_cache_file_upto_meets_the_model_power_ceiling(tmp_path, capsys, monkeypatch,
                                                         command, params):
    # `cache warm` refuses upto 32 on this curve at once, so a reader
    # refuses a file that claims it before any entry is checked against
    # psi_32; `basis` computes no psi_n, so it never opens the file
    cache = tmp_path / "psi.json"
    cache.write_text(json.dumps({**WIDE, "scale": "1", "upto": 32,
                                 "psi": {"32": ["[1]", "[]", "[1]"]}}))
    config = {**WIDE, "params": params}
    if command == "basis":
        assert run_cli(tmp_path, command, config) == 0
        plain = capsys.readouterr().out
    calls = []
    psi = curvefield.CycCache.psi
    monkeypatch.setattr(curvefield.CycCache, "psi",
                        lambda self, n: calls.append(n) or psi(self, n))
    code = run_cli(tmp_path, command, config, "--cache", str(cache))
    captured = capsys.readouterr()
    if command == "basis":
        assert code == 0 and captured.out == plain
    else:
        assert code == 1
        assert captured.err.startswith(f"ellt: config error: cache {cache} upto with the "
                                       "curve: bits of u^(n^2 - 1)")
    assert calls == []


@pytest.mark.parametrize("upto,code", [(11, 0), (12, 1)])
def test_a_cache_file_upto_is_bounded_as_warm_bounds_it(tmp_path, upto, code):
    # `cache warm` takes this curve to 11 and refuses 12
    cache = tmp_path / "psi.json"
    cache.write_text(json.dumps({**WIDE, "scale": "1", "upto": upto, "psi": {}}))
    cfg = {**WIDE, "params": {"action": "verify"}}
    assert run_cli(tmp_path, "cache", cfg, "--cache", str(cache)) == code


@pytest.mark.parametrize("text", ["[1e10000000]", "[1e0]", "[1.0]", "[+1]", "[1_0]"])
def test_cache_texts_are_refused_before_they_are_read(tmp_path, capsys, monkeypatch, text):
    # psi_1 = 1: these texts used to give 0 when their value was 1 and 3
    # otherwise, and 10^10000000 was built first
    cache = tmp_path / "psi.json"
    cache.write_text(json.dumps({**E1, "scale": "1", "upto": 1, "psi": {"1": [text, "[]", "[1]"]}}))
    built = []
    monkeypatch.setattr(exactcore, "rational", lambda value: built.append(value))
    for command, params in (("divpoly", {"n": 1}), ("cache", {"action": "verify"})):
        assert run_cli(tmp_path, command, {**E1, "params": params}, "--cache", str(cache)) == 1
        assert "entry 1 has a malformed polynomial" in capsys.readouterr().err
    assert built == []


# (-1/256, 0) is (-1, 0) rescaled, so every command runs on it, and its
# u = 256 puts a cache file with upto 32 past MODEL_POWER_CEILING
C256 = {"curve": {"a": "-1/256", "b": "0"}}
C256_HEADER = {**C256, "scale": "1"}
# each file that a reader refuses, with the exit code it gives there
BAD_CACHE_FILES = {
    "malformed": ({**C256_HEADER, "upto": 1, "psi": {"1": ["[1", "[]", "[1]"]}}, 1),
    "past-the-ceiling": ({**C256_HEADER, "upto": 32, "psi": {"1": ["[1]", "[]", "[1]"]}}, 1),
    "wrong-entry": ({**C256_HEADER, "upto": 2, "psi": {"2": ["[]", "[3]", "[1]"]}}, 3),
}
# one request of each command that computes no psi_n
NO_PSI_REQUESTS = {
    "basis": {"divisor": {"1": 1, "2": 1}},
    "coeff": {"d_min": -2, "d_max": 2},
    "completion": {"k": 3},
    "dims": {"W": {"2": 1}},
    "glue": {"divisor": {"1": 1}, "left": [1], "right": [2], "cap": 2},
    "localcoh": {"pi": [2], "a": 1},
    "roundtrip": {"W": {"1": 1}},
    "sections": {"divisor": {"1": 1}, "pi": [2], "cap": 2},
    "serre": {"divisor": {"1": 2}},
}


@pytest.mark.parametrize("kind", sorted(BAD_CACHE_FILES))
def test_the_readers_refuse_each_bad_cache_file(tmp_path, capsys, kind):
    blob, code = BAD_CACHE_FILES[kind]
    cache = tmp_path / "psi.json"
    cache.write_text(json.dumps(blob))
    for command, params in (("divpoly", {"n": 2}), ("cache", {"action": "verify"})):
        assert run_cli(tmp_path, command, {**C256, "params": params}, "--cache", str(cache)) == code


@pytest.mark.parametrize("kind", sorted(BAD_CACHE_FILES))
@pytest.mark.parametrize("command", sorted(NO_PSI_REQUESTS))
def test_commands_without_psi_never_read_the_cache_file(tmp_path, capsys, monkeypatch,
                                                        command, kind):
    config = {**C256, "params": NO_PSI_REQUESTS[command]}
    code = run_cli(tmp_path, command, config)
    plain = capsys.readouterr().out
    cache = tmp_path / "psi.json"
    cache.write_text(json.dumps(BAD_CACHE_FILES[kind][0]))
    calls = []
    psi, reader = curvefield.CycCache.psi, cli._check_cache_file
    monkeypatch.setattr(curvefield.CycCache, "psi",
                        lambda self, n: calls.append(n) or psi(self, n))
    monkeypatch.setattr(cli, "_check_cache_file",
                        lambda *args, **kw: calls.append("read") or reader(*args, **kw))
    assert run_cli(tmp_path, command, config, "--cache", str(cache)) == code == 0
    assert capsys.readouterr().out == plain
    assert calls == []


def _fraction_then_ceiling(text):
    """`Fraction(text)` and then the digit ceiling, as messages or a value."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"x is not a rational 'p/q' string: {text!r}"
    if max(abs(value.numerator), value.denominator) >= 10 ** cli.CURVE_DIGITS_CEILING:
        return "x must have at most 8 digits in its numerator and denominator"
    return value


@pytest.mark.parametrize("mantissa", [
    "0", "-0", "1", "-2.5", "+.5", "3.", " 7", "12_5", "0.000", "\uff11", "007.50",
    "99999999", ".00000001", "1/2", "1 ", "", ".", "1.2.3", "x", "1.d", "1_",
])
def test_exponent_strings_read_as_fraction_reads_them(mantissa):
    for exponent in ("0", "3", "-3", "+2", "1_0", "-12", "7", "-7", "8", "-8", "9", "-9",
                     "16", "-16", "_1", "1__0", "\uff12", "x", ""):
        for text in (f"{mantissa}e{exponent}", f"{mantissa}E{exponent} \n"):
            try:
                got = cli._short_rational(text, "x")
            except ConfigError as exc:
                got = str(exc)
            assert got == _fraction_then_ceiling(text), text


@pytest.mark.parametrize("text,value", [
    ("1e20000000", None), ("-3.5e-20000000", None), ("0e10000000", 0), ("-0.0E999999999999", 0),
])
def test_a_far_exponent_builds_no_power_of_ten(monkeypatch, text, value):
    # Fraction reads only the mantissa, and no power of ten is taken
    read = []
    monkeypatch.setattr(cli, "Q", lambda arg: read.append(arg) or Fraction(arg))
    if value is None:
        with pytest.raises(ConfigError, match="at most 8 digits"):
            cli._short_rational(text, "curve.a")
    else:
        assert cli._short_rational(text, "curve.a") == value
    assert read == list(text.partition("e" if "e" in text else "E")[::2])


class TestKmodel:
    def test_multiplicative_products(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "kmodel",
                       {"params": {"group": "multiplicative", "W": {"1": 1},
                                   "products_upto": 12}})
        assert rep["rank"] == 1 and rep["odd_dim"] == 0
        assert rep["generator"] == "[-1] / [-1, 1]"
        assert rep["euler"] == "[1, -1] / [1]"
        assert rep["products_ok_upto"] == 12
        assert rep["phi"]["6"] == "[1, -1, 1]"

    def test_dual_sphere_generator_is_the_euler_class(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "kmodel",
                       {"params": {"group": "multiplicative", "W": {"2": 1},
                                   "sign": -1}})
        assert rep["generator"] == rep["euler"] == "[1, 0, -1] / [1]"

    def test_additive_factors_are_constants(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "kmodel",
                       {"params": {"group": "additive", "products_upto": 8}})
        for s, text in rep["phi"].items():
            if int(s) >= 2:
                assert "," not in text, f"phi_{s} = {text} is not constant"

    def test_zero_multiplicity_is_a_config_error(self, tmp_path):
        code = run_cli(tmp_path, "kmodel",
                       {"params": {"group": "multiplicative", "W": {"1": 0}}})
        assert code == 1

    def test_unknown_group(self, tmp_path):
        assert run_cli(tmp_path, "kmodel", {"params": {"group": "formal"}}) == 1


class TestOtherCommands:
    def test_completion(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "completion", {**E1, "params": {"k": 3}})
        assert rep["dim"] == 3
        assert rep["nilpotency_order"] == 3
        assert rep["action"][0] == ["0", "0", "0"]

    def test_localcoh(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "localcoh",
                       {**E1, "params": {"pi": [2], "a": 1}})
        assert rep["dim"] == 4 and rep["degree"] == "odd"

    def test_serre(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "serre",
                       {**E1, "params": {"divisor": {"1": 1}}})
        assert rep["rank"] == rep["dim"] == 1
        assert rep["nondegenerate"] is True
        assert rep["matrix"] == [["1"]]

    def test_degenerate_serre_exits_three(self, tmp_path):
        assert run_cli(tmp_path, "serre", {**E1, "params": {"divisor": {}}}) == 3

    def test_off_torsion_coordinate_exits_three_on_narrow_charts(
            self, tmp_path, capsys, monkeypatch):
        # x/y vanishes where x = 0, which on this curve is no torsion point
        # of order <= 12: all twelve class polynomials are built before the
        # refusal, each normalised on charts no wider than the expansion's
        # precision plus 10, whatever the degree of t_s
        precs, widths = [], []
        expand, chart = curvefield.expand_at_e, curvefield._chart_series

        def expand_spy(elt, prec, chart=None):
            precs.append(prec)
            return expand(elt, prec, chart)

        def chart_spy(curve, prec):
            widths.append(prec)
            return chart(curve, prec)

        monkeypatch.setattr(curvefield, "expand_at_e", expand_spy)
        monkeypatch.setattr(curvefield, "_chart_series", chart_spy)
        code = run_cli(tmp_path, "completion",
                       {"curve": {"a": "-43", "b": "166"}, "params": {"k": 3}})
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("ellt: validation failed: coordinate has zeros or poles off the "
                       "torsion classes validated up to order 12: factor [0, 0, 1]\n")
        assert precs and widths and max(widths) <= max(precs) + 10

    def test_sections(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "sections",
                       {**E1, "params": {"divisor": {}, "pi": [1], "cap": 3}})
        assert rep["dim"] == 3
        assert rep["pi"] == [1] and rep["cap"] == 3

    def test_glue(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "glue",
                       {**E1, "params": {"divisor": {}, "left": [1],
                                         "right": [2], "cap": 2}})
        assert rep["ok"] is True and rep["coker"] == 1

    def test_roundtrip(self, tmp_path, capsys):
        rep = run_json(tmp_path, capsys, "roundtrip",
                       {**E1, "params": {"W": {"2": 1}, "caps": [0, 1]}})
        assert rep["ok"] is True
        assert rep["D"] == {"1": 1, "2": 1}


@pytest.mark.parametrize("command,params", [
    ("completion", {"k": 0}),
    ("dims", {"W": {"1": 1}, "caps": {"1": -1}}),
    ("coeff", {"caps": {"1": -1}}),
    ("serre", {"divisor": {"1": 1}, "caps": {"1": -1}}),
    ("roundtrip", {"W": {"2": 1}, "caps": [-1]}),
    ("sections", {"divisor": {}, "pi": [1], "cap": -1}),
    ("glue", {"divisor": {}, "left": [1], "right": [2], "cap": -1}),
    ("localcoh", {"pi": [0]}),
])
def test_out_of_range_parameters_are_config_errors(tmp_path, capsys, command, params):
    assert run_cli(tmp_path, command, {**E1, "params": params}) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("ellt: config error:")


@pytest.mark.parametrize("command,params,holds", [
    ("roundtrip", {"W": {"1": 1}, "caps": 3}, "params.caps must be a list of pole caps"),
    ("roundtrip", {"W": {"1": 1}, "opens": [3]}, "params.opens must be a list of class orders"),
    ("sections", {"divisor": {}, "pi": 1}, "params.pi must be a list of class orders"),
    ("glue", {"divisor": {}, "left": 1, "right": [2]},
     "params.left must be a list of class orders"),
])
def test_a_list_parameter_names_what_it_holds(tmp_path, capsys, command, params, holds):
    assert run_cli(tmp_path, command, {**E1, "params": params}) == 1
    assert capsys.readouterr().err == f"ellt: config error: {holds}\n"


@pytest.mark.parametrize("text", ["01", " 1", "+1", "0_1", "\uff11"])
@pytest.mark.parametrize("command,params", [
    ("dims", lambda t: {"W": {"1": 1, t: 1}}),
    ("dims", lambda t: {"W": {"1": 1}, "caps": {"1": 2, t: 1}}),
    ("basis", lambda t: {"divisor": {t: 2}}),
    ("kmodel", lambda t: {"group": "additive", "W": {t: 1}}),
])
def test_label_text_must_be_canonical(tmp_path, capsys, command, params, text):
    # int() reads each of these as class 1: {"1": 1, "01": 1} used to run
    # as W = {"1": 1} and exit 0
    config = {"params": params(text)} if command == "kmodel" else {**E1, "params": params(text)}
    assert run_cli(tmp_path, command, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("ellt: config error:") and "canonical" in err and err.count("\n") == 1


MISSING_DIR = "missing-dir"


def _malformed_input_cases():
    """(command, config, cache): the config as a dict or as raw bytes, and
    the raw bytes of the --cache file, or MISSING_DIR for a cache path in
    a directory that does not exist."""
    header = {"curve": E1["curve"], "scale": "1", "upto": 1}
    bad_caches = {
        "psi-is-a-list": {**header, "psi": [["[1]", "[]", "[1]"]]},
        "two-fields": {**header, "psi": {"1": ["[1]", "[]"]}},
        "non-integer-key": {**header, "psi": {"one": ["[1]", "[]", "[1]"]}},
        "unparsable-polynomial": {**header, "psi": {"1": ["[1", "[]", "[1]"]}},
        "zero-denominator": {**header, "psi": {"1": ["[1]", "[]", "[]"]}},
        # a right entry past the file's own upto, and files that would make
        # a reader recompute psi past the ceiling of 32
        "index-above-upto": {**header, "psi": {"2": ["[]", "[2]", "[1]"]}},
        "no-upto": {"curve": E1["curve"], "scale": "1", "psi": {"1": ["[1]", "[]", "[1]"]}},
        "upto-above-ceiling": {**header, "upto": 33, "psi": {"1": ["[1]", "[]", "[1]"]}},
        "index-above-ceiling": {**header, "upto": 33, "psi": {"33": ["[1]", "[]", "[1]"]}},
    }
    readers = {"divpoly": {"n": 2}, "cache": {"action": "verify"}}
    for command, params in readers.items():
        config = {**E1, "params": params}
        for name, payload in bad_caches.items():
            yield pytest.param(command, config, json.dumps(payload).encode(),
                               id=f"{command}-{name}")
        yield pytest.param(command, config, b'{"psi": "\xff"}', id=f"{command}-cache-not-utf8")
    yield pytest.param("divpoly", b'{"curve": "\xff"}', None, id="config-not-utf8")
    yield pytest.param("divpoly", b"[" * 100_000, None, id="config-nested-too-deep")
    yield pytest.param("cache", {**E1, "params": {"action": "warm", "upto": 2}}, MISSING_DIR,
                       id="cache-warm-into-missing-directory")
    yield pytest.param("cache", {**E1, "params": {"action": "warm", "upto": 33}}, b"{}",
                       id="cache-warm-above-ceiling")
    yield pytest.param("divpoly", {**E1, "params": {"n": 33}}, None, id="divpoly-above-ceiling")
    yield pytest.param("kmodel", {"params": {"group": "multiplicative", "W": {"1": 1},
                                             "sign": True}}, None, id="kmodel-sign-true")
    # d_min past d_max used to print an empty table and exit 0
    yield pytest.param("coeff", {**E1, "params": {"d_min": 5, "d_max": 2}}, None,
                       id="coeff-d_min-above-d_max")
    # a curve coefficient of 4000 digits used to end in a traceback while
    # printing psi_8, past Python's 4300-digit integer conversion limit
    yield pytest.param("divpoly", {"curve": {"a": -1, "b": 10 ** 3999}, "params": {"n": 8}},
                       None, id="divpoly-curve-digits-above-ceiling")
    # so did a coordinate scale of 3991 digits while printing basis
    # elements, which carry scale^|A<s>|; divpoly reports n * scale^(n^2 - 1)
    # and refuses that power past 4096 bits
    yield pytest.param("basis", {**E1, "coordinate": {"scale": str(10 ** 3990 + 1)},
                                 "params": {"divisor": {"3": 1}}},
                       None, id="basis-scale-digits-above-ceiling")
    for scale, n in (("16", 32), ("-1/16", 32), ("99999999", 16)):
        yield pytest.param("divpoly", {**E1, "coordinate": {"scale": scale}, "params": {"n": n}},
                           None, id=f"divpoly-scale-{scale}-power-{n}-above-ceiling")
    # class labels above CLASS_CEILING = 8 and caps above CAP_CEILING = 10
    above_ceiling = {
        "dims-label": ("dims", {"W": {"9": 1}}),
        "dims-caps-label": ("dims", {"W": {"1": 1}, "caps": {"1": 1, "9": 0}}),
        "basis-label": ("basis", {"divisor": {"9": -1}}),
        "localcoh-label": ("localcoh", {"pi": [9]}),
        "glue-label": ("glue", {"divisor": {}, "left": [9], "right": [2]}),
        "kmodel-label": ("kmodel", {"group": "additive", "W": {"9": 1}}),
        "dims-cap": ("dims", {"W": {"1": 1}, "caps": {"1": 11}}),
        "serre-cap": ("serre", {"divisor": {"1": 1}, "caps": {"1": 11}}),
        "sections-cap": ("sections", {"divisor": {}, "pi": [1], "cap": 11}),
        "glue-cap": ("glue", {"divisor": {}, "left": [1], "right": [2], "cap": 11}),
        "roundtrip-cap": ("roundtrip", {"W": {"1": 1}, "caps": [11]}),
        # completion stage above 16, products above 140, a coeff span above
        # 100000 and a serre divisor of degree above 24
        "completion-k": ("completion", {"k": 17}),
        "kmodel-products": ("kmodel", {"group": "additive", "products_upto": 141}),
        "coeff-span": ("coeff", {"d_min": 0, "d_max": 100_001}),
        "coeff-negative-span": ("coeff", {"d_min": -100_000, "d_max": 1}),
        "serre-degree": ("serre", {"divisor": {"1": 25}}),
        "serre-class-degree": ("serre", {"divisor": {"8": 1}}),
        "serre-mixed-degree": ("serre", {"divisor": {"1": 1, "5": 1}}),
        # cap divisors of degree above 73, explicit or the default caps of W
        "dims-cap-degree": ("dims", {"W": {"1": 1}, "caps": {"1": 2, "8": 1, "6": 1}}),
        "dims-default-cap-degree": ("dims", {"W": {"8": 1, "7": 1}}),
        "dims-cohomology-cap-degree": ("dims", {"W": {"8": -1, "7": -1},
                                                "variance": "cohomology"}),
        "coeff-cap-degree": ("coeff", {"caps": {"1": 2, "8": 1, "6": 1}}),
        "serre-cap-degree": ("serre", {"divisor": {"1": 1}, "caps": {"1": 1, "8": 10}}),
        # divisors of size above 96: degree with multiplicities counted
        # positive, plus the cap on every removed class
        "basis-size": ("basis", {"divisor": {"3": 20}}),
        "basis-class-size": ("basis", {"divisor": {"8": 3}}),
        "basis-signed-size": ("basis", {"divisor": {"8": 2, "1": -1}}),
        "basis-degree-zero-size": ("basis", {"divisor": {"8": 3, "7": -3}}),
        "sections-size": ("sections", {"divisor": {"3": 13}, "pi": [1]}),
        "sections-cap-size": ("sections", {"divisor": {}, "pi": [8], "cap": 3}),
        "glue-size": ("glue", {"divisor": {"8": 2, "1": 1}, "left": [1], "right": [2]}),
        "glue-cap-size": ("glue", {"divisor": {}, "left": [8], "right": [7], "cap": 10}),
        "roundtrip-W-size": ("roundtrip", {"W": {"8": 2}}),
        "roundtrip-dual-W-size": ("roundtrip", {"W": {"8": -1, "7": -1}}),
        # roundtrip divisors fattened by the largest cap on each open (size
        # 961 and 481 ran 5.2 s and 1.35 s), and the default opens and caps
        # fattening a size-96 W to 108
        "roundtrip-opens-size": ("roundtrip", {"W": {"1": 1}, "opens": [[8, 7]],
                                               "caps": [10]}),
        "roundtrip-open-size": ("roundtrip", {"W": {"1": 1}, "opens": [[8]], "caps": [10]}),
        "roundtrip-default-opens-size": ("roundtrip", {"W": {"8": 1, "4": 2}}),
        # opens and caps lists longer than 6, a localcoh level above 16, a
        # kmodel Euler class of degree above 256 (additive {"8": 10000}
        # used to print a traceback) and kmodel params checked without W
        "roundtrip-opens-length": ("roundtrip", {"W": {"1": 1}, "opens": [[1]] * 7}),
        "roundtrip-caps-length": ("roundtrip", {"W": {"1": 1}, "caps": [0] * 7}),
        "localcoh-level": ("localcoh", {"pi": [8], "a": 17}),
        "kmodel-euler-degree": ("kmodel", {"group": "multiplicative", "W": {"1": 257}}),
        "kmodel-euler-digits": ("kmodel", {"group": "additive", "W": {"8": 10000}}),
        "kmodel-sign-without-W": ("kmodel", {"group": "additive", "sign": 2}),
        "kmodel-null-products": ("kmodel", {"group": "additive", "products_upto": None}),
        # a dims W of size above 96, whose window depth the default caps
        # of a cohomology request do not bound ({"1": 10^6} ran out of memory)
        "dims-W-size": ("dims", {"W": {"1": 97}, "variance": "cohomology"}),
    }
    for name, (command, params) in above_ceiling.items():
        config = {"params": params} if command == "kmodel" else {**E1, "params": params}
        yield pytest.param(command, config, None, id=f"{name}-above-ceiling")


@pytest.mark.parametrize("command,config,cache", _malformed_input_cases())
def test_malformed_input_is_one_config_error(tmp_path, capsys, command, config, cache):
    config_path = tmp_path / "job.json"
    config_path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    argv = [command, "--config", str(config_path)]
    if cache == MISSING_DIR:
        argv += ["--cache", str(tmp_path / "absent" / "psi.json")]
    elif cache is not None:
        (tmp_path / "psi.json").write_bytes(cache)
        argv += ["--cache", str(tmp_path / "psi.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ellt: config error:") and captured.err.count("\n") == 1


def test_ceilings_are_inclusive(tmp_path, capsys):
    rep = run_json(tmp_path, capsys, "glue",
                   {**E1, "params": {"divisor": {}, "left": [1], "right": [2], "cap": 10}})
    assert rep["ok"] is True
    rep = run_json(tmp_path, capsys, "localcoh", {**E1, "params": {"pi": [8]}})
    assert rep["dim"] == 64  # |A[8]|
    rep = run_json(tmp_path, capsys, "completion", {**E1, "params": {"k": 16}})
    assert rep["dim"] == 16
    rep = run_json(tmp_path, capsys, "kmodel",
                   {"params": {"group": "additive", "products_upto": 140}})
    assert rep["products_ok_upto"] == 140
    rep = run_json(tmp_path, capsys, "coeff", {**E1, "params": {"d_min": -5, "d_max": 99_995}})
    assert len(rep["rows"]) == 100_001
    rep = run_json(tmp_path, capsys, "serre", {**E1, "params": {"divisor": {"6": 1}}})
    assert rep["dim"] == rep["rank"] == 24
    # divisors of size 96, the cheap way
    rep = run_json(tmp_path, capsys, "basis", {**E1, "params": {"divisor": {"1": 96}}})
    assert rep["dim"] == 96
    rep = run_json(tmp_path, capsys, "sections",
                   {**E1, "params": {"divisor": {"1": 86}, "pi": [1], "cap": 10}})
    assert rep["dim"] == 96
    rep = run_json(tmp_path, capsys, "glue",
                   {**E1, "params": {"divisor": {"1": 56}, "left": [1], "right": [2],
                                     "cap": 10}})
    assert rep["dims"]["intersection"] == 96
    rep = run_json(tmp_path, capsys, "roundtrip",
                   {**E1, "params": {"W": {"4": 6}, "caps": [0]}})
    assert rep["D"] == {"1": 6, "2": 6, "4": 6}
    # six opens and six caps, W {"1": 6} fattened by cap 10 on [1, 3] to 96
    opens, caps = [[1, 3], [1], [3], [], [2], [1, 2]], [0, 1, 2, 3, 4, 10]
    rep = run_json(tmp_path, capsys, "roundtrip",
                   {**E1, "params": {"W": {"1": 6}, "opens": opens, "caps": caps}})
    assert rep["caps"] == caps and [row["pi"] for row in rep["opens"]] == opens
    rep = run_json(tmp_path, capsys, "localcoh", {**E1, "params": {"pi": [1], "a": 16}})
    assert rep["dim"] == 16
    rep = run_json(tmp_path, capsys, "kmodel", {"params": {"group": "additive", "W": {"8": 32}}})
    assert rep["euler"] == "[" + "0, " * 32 + f"{8 ** 32}] / [1]"  # (8x)^32
    caps = {"1": 1, "8": 1, "6": 1}  # cap divisor degree 1 + 48 + 24 = 73
    rep = run_json(tmp_path, capsys, "dims",
                   {"curve": {"a": "0", "b": "1"}, "params": {"W": {"1": 1}, "caps": caps}})
    assert rep["certified_caps"] == caps
    # curve coefficients and a coordinate scale of 8 digits above and
    # below the fraction bar, and scale^(n^2 - 1) of 1023 * 4 bits
    curve = {"a": "-99999999/99999997", "b": "0"}
    scaled = {"curve": curve, "coordinate": {"scale": "-99999999/99999997"}}
    rep = run_json(tmp_path, capsys, "divpoly", {**scaled, "params": {"n": 4}})
    assert rep["curve"] == curve
    rep = run_json(tmp_path, capsys, "divpoly",
                   {**E1, "coordinate": {"scale": "-1/15"}, "params": {"n": 32}})
    assert rep["scalar"] == qtext(32 * Fraction(-1, 15) ** 1023)
    # 8-digit denominators in both coefficients, psi_11: 120 * 54 bits
    rep = run_json(tmp_path, capsys, "divpoly", {**WIDE, "params": {"n": 11}})
    assert rep["factorization_ok"] is True


class TestCacheAdmin:
    def test_warm_verify_clear_cycle(self, tmp_path, capsys):
        cache = str(tmp_path / "psi.json")
        cfg = {**E1, "cache_path": cache}

        rep = run_json(tmp_path, capsys, "cache",
                       {**cfg, "params": {"action": "warm", "upto": 6}})
        assert rep["entries"] == 6 and os.path.exists(cache)
        first = open(cache, "rb").read()

        code = run_cli(tmp_path, "cache",
                       {**cfg, "params": {"action": "verify"}}, "--out",
                       str(tmp_path / "v.json"))
        assert code == 0
        assert json.load(open(tmp_path / "v.json"))["ok"] is True

        # determinism: clearing and rewarming reproduces the bytes
        run_json(tmp_path, capsys, "cache", {**cfg, "params": {"action": "clear"}})
        assert not os.path.exists(cache)
        run_json(tmp_path, capsys, "cache",
                 {**cfg, "params": {"action": "warm", "upto": 6}})
        assert open(cache, "rb").read() == first

    def test_corruption_is_caught(self, tmp_path, capsys):
        cache = str(tmp_path / "psi.json")
        cfg = {**E1, "cache_path": cache}
        run_json(tmp_path, capsys, "cache",
                 {**cfg, "params": {"action": "warm", "upto": 4}})
        blob = json.load(open(cache))
        blob["psi"]["3"][0] = "[1, 0, -6, 0, 3]"
        json.dump(blob, open(cache, "w"))
        assert run_cli(tmp_path, "cache", {**cfg, "params": {"action": "verify"}}) == 3
        assert run_cli(tmp_path, "divpoly", {**cfg, "params": {"n": 2}}) == 3

    @pytest.mark.parametrize("key,index", [("01", "1"), ("\uff12", "2"), (" 1", "1")],
                             ids=["leading-zero", "fullwidth-two", "leading-space"])
    def test_noncanonical_psi_index_is_a_config_error(self, tmp_path, capsys, key, index):
        # int() reads each of these keys as a psi index; class labels and
        # cache indices both take canonical decimal text only
        cache = str(tmp_path / "psi.json")
        cfg = {**E1, "cache_path": cache}
        run_json(tmp_path, capsys, "cache", {**cfg, "params": {"action": "warm", "upto": 2}})
        blob = json.load(open(cache))
        blob["psi"][key] = blob["psi"].pop(index)
        json.dump(blob, open(cache, "w"))
        assert run_cli(tmp_path, "cache", {**cfg, "params": {"action": "verify"}}) == 1
        assert "psi index" in capsys.readouterr().err

    def test_each_entry_is_parsed_once(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "psi.json")
        cfg = {**E1, "cache_path": cache}
        run_json(tmp_path, capsys, "cache", {**cfg, "params": {"action": "warm", "upto": 5}})
        parsed = []
        parse_poly = cli.parse_poly
        monkeypatch.setattr(cli, "parse_poly",
                            lambda text: parsed.append(text) or parse_poly(text))
        assert run_cli(tmp_path, "cache", {**cfg, "params": {"action": "verify"}}) == 0
        assert len(parsed) == 3 * 5
        # every entry is still checked against recomputation
        blob = json.load(open(cache))
        blob["psi"]["5"][2] = "[2]"
        json.dump(blob, open(cache, "w"))
        assert run_cli(tmp_path, "cache", {**cfg, "params": {"action": "verify"}}) == 3

    @pytest.mark.parametrize("curve", [E1, {"curve": {"a": "0", "b": "1/4"}}],
                             ids=["E1", "E6"])
    @pytest.mark.parametrize("scale", ["1", "-1/3"])
    def test_warm_then_verify_round_trips(self, tmp_path, capsys, curve, scale):
        cache = tmp_path / "psi.json"
        cfg = {**curve, "coordinate": {"scale": scale}, "cache_path": str(cache)}
        rep = run_json(tmp_path, capsys, "cache", {**cfg, "params": {"action": "warm", "upto": 7}})
        assert rep["entries"] == rep["upto"] == 7
        blob = json.loads(cache.read_text())
        assert blob["curve"] == curve["curve"] and blob["scale"] == scale
        assert list(blob["psi"]) == [str(n) for n in range(1, 8)]
        rep = run_json(tmp_path, capsys, "cache", {**cfg, "params": {"action": "verify"}})
        assert rep["entries"] == 7 and rep["ok"] is True
        # the stored texts are the psi_n that divpoly prints, file or no file
        plain = run_json(tmp_path, capsys, "divpoly",
                         {**curve, "coordinate": {"scale": scale}, "params": {"n": 7}})
        assert plain["psi"] == "({}; {}; {})".format(*blob["psi"]["7"])
        assert run_json(tmp_path, capsys, "divpoly", {**cfg, "params": {"n": 7}}) == plain
        assert cache.read_text() == json.dumps(blob, indent=2) + "\n"

    def test_verify_rejects_foreign_curve(self, tmp_path, capsys):
        cache = str(tmp_path / "psi.json")
        run_json(tmp_path, capsys, "cache",
                 {**E1, "cache_path": cache, "params": {"action": "warm", "upto": 3}})
        other = {"curve": {"a": "0", "b": "1"}, "cache_path": cache}
        assert run_cli(tmp_path, "cache", {**other, "params": {"action": "verify"}}) == 3

    def test_commands_ignore_foreign_cache(self, tmp_path, capsys):
        # a cache for another curve must not contaminate the run
        cache = str(tmp_path / "psi.json")
        run_json(tmp_path, capsys, "cache",
                 {"curve": {"a": "0", "b": "1"}, "cache_path": cache,
                  "params": {"action": "warm", "upto": 4}})
        rep = run_json(tmp_path, capsys, "divpoly",
                       {**E1, "cache_path": cache, "params": {"n": 3}})
        assert rep["psi"] == "([-1, 0, -6, 0, 3]; []; [1])"

    @pytest.mark.parametrize("key,entry", [
        ("3", ["[1, x]", "[]", "[1]"]),
        ("3", "[1, 0, 3]"),
        ("9", ["[1]", "[]", "[1]"]),
    ], ids=["malformed-polynomial", "not-three-texts", "index-above-upto"])
    def test_a_foreign_file_is_judged_by_its_identity_first(
            self, tmp_path, capsys, monkeypatch, key, entry):
        # a file for (0, 1) with a bad entry: on (-1, 0) its entries are never
        # read, so divpoly skips it (exit 0, was 1) and verify refuses it as
        # foreign (exit 3, was 1); on its own curve it stays a config error
        cache = str(tmp_path / "psi.json")
        other = {"curve": {"a": "0", "b": "1"}, "cache_path": cache}
        run_json(tmp_path, capsys, "cache", {**other, "params": {"action": "warm", "upto": 4}})
        blob = json.load(open(cache))
        blob["psi"][key] = entry
        json.dump(blob, open(cache, "w"))
        parsed = []
        parse_poly = cli.parse_poly
        monkeypatch.setattr(cli, "parse_poly",
                            lambda text: parsed.append(text) or parse_poly(text))
        rep = run_json(tmp_path, capsys, "divpoly", {**E1, "cache_path": cache, "params": {"n": 3}})
        assert rep["psi"] == "([-1, 0, -6, 0, 3]; []; [1])"
        assert run_cli(tmp_path, "cache", {**E1, "cache_path": cache,
                                           "params": {"action": "verify"}}) == 3
        assert "was built for curve" in capsys.readouterr().err
        assert parsed == []
        assert run_cli(tmp_path, "divpoly", {**other, "params": {"n": 3}}) == 1
        assert run_cli(tmp_path, "cache", {**other, "params": {"action": "verify"}}) == 1

    def test_missing_cache_file_is_an_empty_cache(self, tmp_path, capsys):
        cfg = {**E1, "params": {"W": {"1": 1, "2": 1}}}
        assert run_cli(tmp_path, "dims", cfg) == 0
        plain = capsys.readouterr().out
        absent = tmp_path / "absent.json"
        assert run_cli(tmp_path, "dims", cfg, "--cache", str(absent)) == 0
        assert capsys.readouterr().out == plain
        assert not absent.exists()

    def test_env_var_supplies_the_path(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "env.json")
        monkeypatch.setenv("ELLT_CACHE", cache)
        run_json(tmp_path, capsys, "cache",
                 {**E1, "params": {"action": "warm", "upto": 3}})
        assert os.path.exists(cache)

    def test_missing_path_is_a_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ELLT_CACHE", raising=False)
        assert run_cli(tmp_path, "cache", {**E1, "params": {"action": "warm"}}) == 1


class TestOutput:
    def test_out_flag_overrides_config(self, tmp_path, capsys):
        target = tmp_path / "flag.json"
        decoy = tmp_path / "decoy.json"
        cfg = {**E1, "output_path": str(decoy), "params": {"W": {"1": 1}}}
        assert run_cli(tmp_path, "dims", cfg, "--out", str(target)) == 0
        assert target.exists() and not decoy.exists()
        assert json.loads(target.read_text())["h0"] == 1

    def test_config_output_path(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        cfg = {**E1, "output_path": str(target), "params": {"W": {"1": 1}}}
        assert run_cli(tmp_path, "dims", cfg) == 0
        assert json.loads(target.read_text())["h1"] == 0

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        cfg = {**E1, "params": {"W": {"1": 1, "3": 1}}}
        run_cli(tmp_path, "dims", cfg)
        first = capsys.readouterr().out
        run_cli(tmp_path, "dims", cfg)
        assert capsys.readouterr().out == first

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self, capsys):
        assert main(["transmogrify", "--config", "x.json"]) == 1

    def test_successive_calls_share_one_parser(self, tmp_path, capsys):
        # the parser is built once per process; help, a bad flag and every
        # exit code in between leave the next call's report and code alone
        ok = {**E1, "params": {"W": {"1": 1, "3": 1}}}
        small_caps = {**E1, "params": {"W": {"3": 2}, "caps": {"1": 2}}}
        degenerate = {**E1, "params": {"divisor": {}}}
        assert cli._build_parser() is cli._build_parser()
        runs = []
        for _ in range(2):
            codes = [run_cli(tmp_path, "dims", ok)]
            report = capsys.readouterr().out
            codes += [main(["--help"])]
            help_text = capsys.readouterr().out
            codes += [main(["dims", "--config", write_config(tmp_path, ok), "--bogus"]),
                      run_cli(tmp_path, "dims", small_caps),
                      run_cli(tmp_path, "serre", degenerate),
                      run_cli(tmp_path, "dims", ok)]
            captured = capsys.readouterr()
            runs.append((codes, report, help_text, captured.out))
        assert runs[0][0] == [0, 0, 1, 2, 3, 0]
        assert runs[0][1] == runs[0][3] and "usage: ellt" in runs[0][2]
        assert runs[1] == runs[0]


# a valid value for every required param of every command
REQUIRED = {
    "dims": {"W": {"1": 1}},
    "basis": {"divisor": {"1": 2}},
    "coeff": {},
    "divpoly": {"n": 2},
    "kmodel": {},
    "completion": {"k": 1},
    "localcoh": {"pi": [2]},
    "serre": {"divisor": {"1": 1}},
    "sections": {"divisor": {"1": 1}, "pi": [2]},
    "glue": {"divisor": {"1": 1}, "left": [2], "right": [3]},
    "roundtrip": {"W": {"1": 1}},
    "cache": {},
}


class TestParameterContract:
    def test_the_command_table_names_every_command(self):
        assert sorted(_HANDLERS) == sorted(REQUIRED)
        for command, (_, accepted, required) in _HANDLERS.items():
            assert list(required) == list(REQUIRED[command]), command
            assert set(required) <= set(accepted), command

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, params in REQUIRED.items() for key in params
    ])
    def test_each_missing_required_key(self, tmp_path, capsys, command, key):
        params = {k: v for k, v in REQUIRED[command].items() if k != key}
        assert run_cli(tmp_path, command, {**E1, "params": params}) == 1
        assert capsys.readouterr().err == f"ellt: config error: {command} needs params.{key}\n"

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_unknown_key_wins_over_a_missing_one(self, tmp_path, capsys, command):
        for params in ({**REQUIRED[command], "bogus": 1}, {"bogus": 1}):
            assert run_cli(tmp_path, command, {**E1, "params": params}) == 1
            assert capsys.readouterr().err == (
                "ellt: config error: unknown keys in params: ['bogus']\n")


class TestWrittenFileModes:
    """Reports and cache files are made as open() makes a new file: mode
    0o666 less the umask, through a temp file renamed into place."""

    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_reports_and_caches_take_the_umask(self, tmp_path, mask):
        report, cache = tmp_path / "r.json", tmp_path / "psi.json"
        old = os.umask(mask)
        try:
            assert run_cli(tmp_path, "dims", {**E1, "params": {"W": {"1": 1}}},
                           "--out", str(report)) == 0
            assert run_cli(tmp_path, "cache", {**E1, "cache_path": str(cache),
                                               "params": {"action": "warm", "upto": 3}}) == 0
            plain = tmp_path / "plain"
            plain.write_bytes(b"")
        finally:
            os.umask(old)
        for path in (report, cache, plain):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask, path.name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "plain", "psi.json",
                                                              "r.json"]

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()  # a directory cannot be renamed over
        assert run_cli(tmp_path, "dims", {**E1, "params": {"W": {"1": 1}}},
                       "--out", str(target)) == 1
        assert "cannot write report" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json", "taken"]
