"""Rules with one home in the library: the immutability guard
(`exactcore._Frozen.__setattr__`), value semantics (`exactcore._Frozen`
compares, hashes and prints every value type from its public slots;
`__eq__` and `__hash__` are defined nowhere else but in
`eatheory.GradedFn`, whose zeros are equal whatever their weight, and
`affinegroups.LaurentFn`, which equals the scalars it coerces), binary
powering (`exactcore.power`),
the CLI parameter contract (`cli.run`, from the command table),
products, powers and quotients of cyclotomic functions
(`curvefield.CycCache.t_star`, which a window backend's `element(vec)`
uses for a whole vertex vector) and conversion to int (`exactcore._label`,
for a label's decimal text; every other integer goes through
`exactcore._whole`, which refuses a float that `int` would truncate) and
the split of a polynomial into multiplicity layers against a class
polynomial (`curvefield._layers`, shared by classification, valuations
and class residues; membership tests live only in the test reference
`tests/valuation_reference.py`).  The leading coefficient of t_e, which
scales every t_s and gives kappa, is read off degrees (`FuncElt.lead_e`),
never off a series, and series derivatives live only in the test
reference `tests/residue_reference.py`.  Block multipliers are memoised
in one place (`eatheory.EllipticGroupData`), and a window's kernel basis is
built in one place (`tmodel.QWindow.kernel`, on first read; dimensions come
from the rank).  Block assembly runs on ints: a multiplier's integer ladder
is built once per distinct multiplier and a window's once per window, and
rationals appear only at the public edge (`QWindow.matrix`).  Every
residue comes from one split of a denominator against a class polynomial
and one inverse modulo its class part (`curvefield._residue_split`), read
through `curvefield.residue_form`, once per column of the Serre pairing.
The psi cache file belongs to the CLI: `cli._check_cache_file` is its one
reader, `divpoly` and `cache` the only commands that compute psi_n, and
`curvefield` keeps no persistence.  A curve's report form is
`WeierstrassCurve.payload`.
A second copy drifts from the first;
this walks the same source as `test_no_asserts.py` and names every copy
it finds."""

import ast
import fractions
import sys
from pathlib import Path

from ellt import curvefield, eatheory, tmodel
from ladder_reference import sweep_windows

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ellt").glob("*.py"))


def _homes(matches):
    """'file:Scope.name' for each node `matches` accepts, named by the
    innermost class or function around it."""
    found = []

    def visit(node, path, scope):
        if matches(node):
            found.append(f"{path.name}:{'.'.join(scope)}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, ())
    return found


def _is_bit_test(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def test_one_immutability_guard():
    assert any(path.name == "exactcore.py" for path in SOURCES)
    guards = _homes(lambda node: isinstance(node, ast.FunctionDef)
                    and node.name == "__setattr__")
    assert guards == ["exactcore.py:_Frozen"]


def test_one_home_of_value_semantics():
    for name in ("__eq__", "__hash__"):
        homes = _homes(lambda node: isinstance(node, ast.FunctionDef) and node.name == name
                       or isinstance(node, ast.Assign) and any(
                           isinstance(target, ast.Name) and target.id == name
                           for target in node.targets))
        assert sorted(homes) == ["affinegroups.py:LaurentFn", "eatheory.py:GradedFn",
                                 "exactcore.py:_Frozen"], name


def test_one_powering_loop():
    loops = _homes(lambda node: isinstance(node, ast.While)
                   and any(_is_bit_test(inner) for inner in ast.walk(node)))
    assert loops == ["exactcore.py:power"]


def test_one_parameter_contract_check():
    def checks_params(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_check_keys" and node.args
                and ast.unparse(node.args[0]) == "config.params")

    assert _homes(checks_params) == ["cli.py:run"]


def _is_call_of(node, name):
    """A call of `name(...)` or of `anything.name(...)`."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def test_quotients_by_t_star_are_t_star_of_the_negative():
    # 1/t*(E) is t*(-E): no inverse of a t* result or of a window shift
    def inverts_a_shift(node):
        if not (_is_call_of(node, "inverse") and isinstance(node.func, ast.Attribute)):
            return False
        inner = node.func.value
        return (_is_call_of(inner, "t_star")
                or isinstance(inner, ast.Attribute) and inner.attr == "shift")

    assert _homes(inverts_a_shift) == []


def test_powers_of_t_s_come_from_t_star():
    # t_s^w is t*(w A<s>), built by exponent arithmetic
    assert _homes(lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and _is_call_of(node.left, "t")
                  and isinstance(node.left.func, ast.Attribute)) == []


def test_vertex_vectors_become_elements_whole():
    # backends build an element from a whole vertex vector, element(vec)
    assert _homes(lambda node: isinstance(node, ast.FunctionDef)
                  and node.name == "source_element") == []


def test_one_int_conversion():
    assert set(_homes(lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "int")) == {"exactcore.py:_label"}


def test_one_multiplicity_split():
    def gcd_loop(node):
        return isinstance(node, ast.While) and any(
            _is_call_of(inner, "poly_gcd") for inner in ast.walk(node))

    assert _homes(gcd_loop) == ["curvefield.py:_layers"]


def test_no_membership_loop_in_the_library():
    assert _homes(lambda node: isinstance(node, ast.FunctionDef)
                  and node.name == "membership") == []


def test_no_series_derivative_in_the_library():
    assert _homes(lambda node: isinstance(node, ast.FunctionDef)
                  and node.name == "derivative") == []


def test_t_s_scales_and_kappa_read_no_series():
    # the leading coefficient of t_e comes from `lead_e`, not from a chart
    reads = {"chart", "base_series", "expand", "expand_at_e", "_chart_series"}
    found = _homes(lambda node: any(_is_call_of(node, name) for name in reads))
    assert "curvefield.py:CycCache.base_series" in found  # the rule sees these calls
    assert not {"curvefield.py:CycCache.t", "curvefield.py:CycCache.diff_factor"} & set(found)


def test_ord_along_takes_no_support():
    def ord_along(node):
        return isinstance(node, ast.FunctionDef) and node.name == "ord_along"

    def takes_support(node):
        return ord_along(node) and any(
            arg.arg == "support"
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))

    assert _homes(ord_along) == ["curvefield.py:CycCache"]
    assert _homes(takes_support) == []


def test_one_multiplier_memo():
    def memo(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "_multipliers"

    def writes_memo(node):
        if isinstance(node, ast.Assign):
            return any(memo(target) for target in node.targets)
        if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            return memo(node.target)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and memo(node.func.value)
                and node.func.attr in {"setdefault", "update", "pop", "popitem", "clear"})

    writers = _homes(writes_memo)
    assert writers and all(home.startswith("eatheory.py:EllipticGroupData.")
                           for home in writers), writers


def test_one_residue_split():
    # the split of a denominator against a class polynomial, then the
    # inverse of the rest modulo the class part, is `_residue_split`;
    # `residue_form` hands it to every residue reader and to the pairing
    layers = set(_homes(lambda node: _is_call_of(node, "_layers")))
    inverses = _homes(lambda node: _is_call_of(node, "poly_inverse_mod"))
    assert layers & set(inverses) == {"curvefield.py:_residue_split"}
    assert [home for home in inverses if home.startswith("curvefield.py:")] == [
        "curvefield.py:_residue_split"]


def test_serre_pairing_reads_one_form_per_column(monkeypatch):
    # one residue form, so at most one inverse, per column, and products
    # for the sections, the columns and the windows only: the entry loop
    # made deg D^2 more
    counts = {"forms": 0, "inverses": 0, "products": 0}

    def counted(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(eatheory, "residue_form", counted("forms", eatheory.residue_form))
    monkeypatch.setattr(curvefield, "poly_inverse_mod",
                        counted("inverses", curvefield.poly_inverse_mod))
    monkeypatch.setattr(curvefield.FuncElt, "__mul__",
                        counted("products", curvefield.FuncElt.__mul__))
    for divisor, degree in (({1: 1, 3: 1}, 9), ({1: 1, 2: 1, 3: 1}, 12)):
        theory = eatheory.build_ea((-1, 0))
        counts.update(forms=0, inverses=0, products=0)
        pairing = eatheory.serre_pairing(theory, divisor)
        assert pairing.rank == degree == len(pairing.classes)
        assert counts["forms"] == degree and counts["inverses"] <= degree
        assert counts["products"] <= 5 * degree, counts


def test_one_kernel_basis():
    # every other reader needs only dimensions, which the rank gives
    assert _homes(lambda node: _is_call_of(node, "kernel_and_image")) == [
        "tmodel.py:QWindow.kernel"]


def test_one_ladder_per_window_and_multiplier(monkeypatch):
    # the multiplier memo holds integer ladders, so a memo hit scales nothing
    calls = []
    real = curvefield._ladder_ints

    def counted(h, count):
        calls.append(count)
        return real(h, count)

    for module in (curvefield, eatheory):
        monkeypatch.setattr(module, "_ladder_ints", counted)
    theories = [eatheory.build_ea(curve) for curve in ((-1, 0), (0, 1))]
    built = sum(len(t.backend._windows) + len(t.backend._multipliers) for t in theories)
    calls.clear()
    windows = [win for theory in theories for win in sweep_windows(theory)]
    built = sum(len(t.backend._windows) + len(t.backend._multipliers) for t in theories) - built
    assert sum(len(win.blocks) for win in windows) > 1000 and built > 250
    assert len(calls) == built


def test_block_assembly_builds_no_fraction():
    # rationals are built only at the public edge (QWindow.matrix, coords):
    # once a context's windows and multipliers exist, assembling its
    # blocks, the window and its rank calls nothing in the fractions module
    theory = eatheory.build_ea((-1, 0))
    weights, caps = {1: 1, 2: -1, 3: 1}, {1: 2, 2: 1, 3: 2, 4: 1}
    ctx = theory.backend.setup(tmodel.dim_fn(weights).exponent_map(), caps)
    for s, _, _ in ctx.blocks:
        ctx._block(s)  # builds the windows and multipliers, in Fractions
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        blocks = [ctx.block_matrix(s) for s, _, _ in ctx.blocks]
        win = theory.window(weights, caps)
    finally:
        sys.setprofile(None)
    assert len(blocks) == 4 and win.rows and calls == []
    assert win.matrix is not None  # the public edge does build them


def test_curvefield_keeps_no_cache_file():
    # `CycCache.psi` reads the integral model's g_n memo, and no method
    # writes or loads a psi table; the payloads left are report forms
    file_methods = _homes(lambda node: isinstance(node, ast.FunctionDef)
                          and (node.name == "warm" or "payload" in node.name))
    assert [home for home in file_methods if home.startswith("curvefield.py:")] == [
        "curvefield.py:TorsionDivisor", "curvefield.py:WeierstrassCurve"]
    assert _homes(lambda node: isinstance(node, ast.Attribute) and node.attr == "_psi") == []


def test_one_cache_file_reader():
    def in_cli(homes):
        return {home for home in homes if home.startswith("cli.py:")}

    assert in_cli(_homes(lambda node: _is_call_of(node, "parse_poly"))) == {
        "cli.py:_check_cache_file"}
    assert in_cli(_homes(lambda node: _is_call_of(node, "psi"))) == {
        "cli.py:_check_cache_file", "cli.py:_run_divpoly", "cli.py:_run_cache_admin"}


def test_one_report_form_for_a_curve():
    def curve_dict(node):
        return isinstance(node, ast.Dict) and [
            getattr(key, "value", None) for key in node.keys] == ["a", "b"]

    assert _homes(curve_dict) == ["curvefield.py:WeierstrassCurve.payload"]
