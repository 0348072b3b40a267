"""Theory set-up fast paths against the paths they replaced.

`expand_at_e` evaluates u, v, d in relative precision, as x^n q(1/x);
the reference below is the Horner evaluation over a chart widened by
twice the degree.  `CycCache.ord_along` reads the valuation along a class
in closed form from the `_layers` of u, v and d against the class
polynomial; the reference is the loop of `membership` tests in
`tests/valuation_reference.py` that it replaced.
`CycCache.chart` grows its stored chart at least threefold, so a fresh
theory reruns `_chart_series` at most once.

`CycCache.t_star` builds t*(E) by exponent arithmetic on integer
coefficient tuples; the reference is the `FuncElt` product of the powers
t_s^n_s.  `_chart_series` runs the coefficient recurrence of 1/y; the
reference is the fixed-point iteration it replaced.  `CycCache.t` is
built the same on a warm cache as on a cold one.
`CycCache.validate_coordinate` classifies the norm and the denominator
of t_e once each and reads every class bound in closed form; the
reference is the membership loop with fresh supports.  `FuncElt.lead_e`
reads the leading coefficient at e off degrees; the reference is the
expansion.  The default x/y coordinate is built as c x y / rhs in one
constructor; the reference is (x / y) * c.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt import cli, curvefield
from ellt.curvefield import (
    Coordinate,
    _chart_series,
    CycCache,
    FuncElt,
    TorsionDivisor,
    WeierstrassCurve,
    _eval_rel,
    expand_at_e,
)
from ellt.eatheory import EllipticGroupData
from ellt.errors import PrecisionExhausted, UnsupportedPoles
from ellt.exactcore import LaurentSeries, Poly, Q, QONE, QZERO, series_reciprocal
from valuation_reference import reference_ord_along

# the curves of the cli_jobs benchmark pools
CURVES = [WeierstrassCurve(a, b) for a, b in
          ((-1, 0), (0, 1), (1, 0), (-4, 0), (0, -2), (0, Q(1, 4)))]
# one cache per curve: the reference shares its chart memo, and ord_along
# its class polynomials, across examples
CACHES = [CycCache(curve) for curve in CURVES]
MAX_PREC = 12


def horner(p, x):
    acc = None
    for c in reversed(p.coeffs):
        if acc is None:
            acc = LaurentSeries(0, (Q(c),) + (QZERO,) * (x.precision - 1))
        else:
            acc = acc * x + c
    return acc


def reference_expand(elt, prec, chart):
    """Horner evaluation of u, v, d over the x, y series to
    `prec + 2 + 2 * degree` terms."""
    work = prec + 2
    width = work + 2 * max(elt.u.degree, elt.v.degree, elt.d.degree, 1)
    x, y = chart(width)
    num = None
    if not elt.u.is_zero():
        num = horner(elt.u, x)
    if not elt.v.is_zero():
        vy = horner(elt.v, x) * y
        num = vy if num is None else num + vy
    series = num * series_reciprocal(horner(elt.d, x))
    if series.exact_valuation() != elt.ord_e():
        raise PrecisionExhausted("expansion valuation disagrees with ord_e")
    return series.truncate(prec)


def assert_expansions_agree(cache, elt):
    # the reference is exact through its window, so one expansion at the
    # top precision, truncated, stands for it at every lower precision
    ref = reference_expand(elt, MAX_PREC, cache.chart)
    for prec in range(1, MAX_PREC + 1):
        assert expand_at_e(elt, prec, cache.chart) == ref.truncate(prec), (elt, prec)


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _poly(max_degree):
    return st.lists(_coeff, max_size=max_degree + 1).map(Poly)


_monic = st.lists(_coeff, max_size=4).map(lambda cs: Poly(cs + [Q(1)]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(CURVES) - 1), _poly(60), _poly(6), _monic)
def test_relative_expansion_matches_wide_window(ci, u, v, d):
    cache = CACHES[ci]
    elt = FuncElt(cache.curve, u, v, d)
    if elt.is_zero():
        return
    assert_expansions_agree(cache, elt)
    # each polynomial is exact to all `prec + 2` terms of the chart, not
    # only to the `prec` that the expansion keeps
    x = cache.chart(MAX_PREC + 2)[0]
    for p in (elt.u, elt.v, elt.d):
        if not p.is_zero():
            wide = horner(p, cache.chart(MAX_PREC + 2 + 2 * p.degree)[0])
            assert _eval_rel(p, x, series_reciprocal(x)) == wide.truncate(MAX_PREC + 2), p


def test_expansion_of_degree_sixty_and_coordinates():
    # t_11 has degree 60 in x; the scaled x/y coordinate and a custom
    # coordinate with u, v != 0 expand as bases and inside products
    cache = CACHES[0]
    curve = cache.curve
    x, y = curve.x(), curve.y()
    scaled = Coordinate(curve, scale=Q(-3, 2)).base
    custom = x / y + x.inverse()
    assert not custom.u.is_zero() and not custom.v.is_zero()
    elements = [cache.t(11).inverse() * y, scaled, scaled.inverse(),
                custom, custom ** 3, custom.inverse() * cache.t(5),
                FuncElt(curve, Poly.x_power(60, Q(2)) + Poly((1, 0, -3)),
                        Poly.x_power(59, Q(-1, 3)), Poly((1, 1)))]
    for elt in elements:
        assert_expansions_agree(cache, elt)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedPoles:
        return UnsupportedPoles


CLASSES = (2, 3, 4)
# the x-values of the rational 2-torsion points of each curve: x - x0
# meets only part of rhs wherever rhs has another root
ROOTS = [[x0 for x0 in range(-3, 4) if curve.rhs.eval(Q(x0)) == 0] for curve in CURVES]


_depth = st.tuples(st.sampled_from(CLASSES), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CURVES) - 1), st.sampled_from(["u", "v", "mixed"]),
       _poly(2), _depth, st.integers(0, 2), _depth,
       st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.sampled_from([False, False, False, True]), st.sampled_from(CLASSES))
def test_ord_along_matches_membership_loop(ci, kind, unit, zero, zero_v, pole, partial,
                                           stray, s):
    # a zero and a pole of chosen depth on the classes 2, 3, 4 (the
    # same class cancels down), on mixed elements a zero of v on the same
    # class, a pole at part of the 2-torsion where the curve has a
    # rational 2-torsion point, and now and then a pole off the torsion
    # classes, which both paths refuse
    cache = CACHES[ci]
    (zc, zd), (pc, pd), (pick, part) = zero, pole, partial
    num = (unit if not unit.is_zero() else Poly.const(1)) * cache.class_poly(zc).pow(zd)
    den = cache.class_poly(pc).pow(pd)
    if ROOTS[ci]:
        den = den * Poly((-ROOTS[ci][pick % len(ROOTS[ci])], 1)).pow(part)
    if stray:
        den = den * Poly((-5, 1))
    blank = Poly()
    if kind == "u":
        elt = FuncElt(cache.curve, num, blank, den)
    elif kind == "v":
        elt = FuncElt(cache.curve, blank, num, den)
    else:
        elt = FuncElt(cache.curve, num, Poly((1, 2)) * cache.class_poly(zc).pow(zero_v), den)
    expected = _outcome(reference_ord_along, cache, elt, s)
    assert _outcome(cache.ord_along, elt, s) == expected, (elt, s)


@pytest.mark.parametrize("u,v,d,expected", [
    ((0, 1), (1,), (0, 0, 1), -3),
    ((0, 1), (1,), (0, -1, 1), -2),
    ((0, -1, 1), (1,), (0, -1, 1), -1),
    ((0, -1, 1), (1,), (0, 0, -1, 1), -3),
    ((1, 1), (1,), (0, 0, -1, 1), -4),
    ((0, -1, 0, 1), (-1, 1), (1,), 1),
    ((0, 0, 1, 0, -2, 0, 1), (0, -1, 0, 1), (1,), 3),
])
def test_ord_along_on_two_torsion_by_hand(u, v, d, expected):
    # on y^2 = x^3 - x, rhs = x (x - 1) (x + 1): ord(x - x0) = 2 and
    # ord y = 1 at each 2-torsion point, so the poles of u / d and of
    # v y / d never cancel, and the deepest pole decides
    cache = CACHES[0]
    elt = FuncElt(cache.curve, Poly(u), Poly(v), Poly(d))
    assert (elt.u, elt.v, elt.d) == (Poly(u), Poly(v), Poly(d))
    assert cache.ord_along(elt, 2) == expected
    assert reference_ord_along(cache, elt, 2) == expected


def reference_validate(cache):
    """The coordinate report with no shared supports: the same
    classification, then per class the membership loop on t_e and on a
    fresh 1/t_e, each finding its own pole support."""
    base = cache.coordinate.base
    touched = set()
    for poly in (base.norm_poly(), base.d):
        if poly.degree >= 1:
            touched.update(cache.classify_x_poly(poly)[0])
    profile = {s: tuple(max(0, -reference_ord_along(cache, f, s))
                        for f in (base, base.inverse()))
               for s in sorted(touched)}
    return {"validated_to": cache.coordinate.validated_to,
            "classes": sorted(touched), "profile": profile}


@pytest.mark.parametrize("scale", [1, 2, -1, Q(1, 3)])
@pytest.mark.parametrize("ci", range(len(CURVES)))
def test_validate_coordinate_matches_the_reference(ci, scale):
    curve = CURVES[ci]
    report = CycCache(curve, Coordinate(curve, scale=scale)).validate_coordinate()
    assert report == reference_validate(CycCache(curve, Coordinate(curve, scale=scale)))


def _products_in_ord_along(monkeypatch):
    """The `FuncElt` products made inside the closed form
    `CycCache._ord_along` from now on."""
    products, inside = [], []
    ord_along, mul = CycCache._ord_along, FuncElt.__mul__

    def spy_ord(self, *args, **kwargs):
        inside.append(True)
        try:
            return ord_along(self, *args, **kwargs)
        finally:
            inside.pop()

    def spy_mul(self, other):
        if inside:
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(CycCache, "_ord_along", spy_ord)
    monkeypatch.setattr(FuncElt, "__mul__", spy_mul)
    return products


def test_validate_a_mixed_custom_coordinate(monkeypatch):
    # on y^2 = x^3 + 1 the line y = x + 1 meets the curve at (0, 1),
    # (-1, 0) and (2, 3), of orders 3, 2 and 6, so (y - x - 1) / x^2 is a
    # coordinate with u and v both nonzero, and so is its inverse:
    # ord_along reads both in closed form, with no product
    curve = CURVES[1]
    base = FuncElt(curve, Poly((-1, -1)), Poly((1,)), Poly((0, 0, 1)))
    products = _products_in_ord_along(monkeypatch)
    report = CycCache(curve, Coordinate(curve, base=base)).validate_coordinate()
    assert products == []
    assert report == {"validated_to": 12, "classes": [2, 3, 6],
                      "profile": {2: (0, 1), 3: (2, 0), 6: (0, 1)}}
    assert report == reference_validate(CycCache(curve, Coordinate(curve, base=base)))


def test_a_mixed_coordinate_classifies_each_element_once(monkeypatch):
    # the norm and the denominator of t_e hold every zero and pole off e,
    # so validating (y - x - 1) / x^2 classifies those two polynomials and
    # finds no pole support: their classification is the refusal
    curve = CURVES[1]
    base = FuncElt(curve, Poly((-1, -1)), Poly((1,)), Poly((0, 0, 1)))
    products = _products_in_ord_along(monkeypatch)
    classified = []
    classify_x_poly = CycCache.classify_x_poly
    monkeypatch.setattr(CycCache, "classify_x_poly",
                        lambda self, poly: classified.append(poly)
                        or classify_x_poly(self, poly))
    supported = []
    pole_support = CycCache.pole_support
    monkeypatch.setattr(CycCache, "pole_support",
                        lambda self, elt: supported.append(elt)
                        or pole_support(self, elt))
    cache = CycCache(curve, Coordinate(curve, base=base))
    report = cache.validate_coordinate()
    assert report["profile"] == {2: (0, 1), 3: (2, 0), 6: (0, 1)}
    assert supported == []
    assert classified == [base.norm_poly(), base.d]
    assert products == []
    # an element with a pole off the torsion classes is still refused,
    # by ord_along's own support and by principal_part's
    stray = FuncElt(curve, Poly((1,)), Poly((1,)), Poly((-5, 1)))
    backend = EllipticGroupData(cache)
    for call in (lambda: cache.ord_along(stray, 3),
                 lambda: backend.principal_part(stray, 3, 1)):
        with pytest.raises(UnsupportedPoles, match="not supported on torsion classes"):
            call()


@pytest.mark.parametrize("s,depth", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_principal_part_finds_one_pole_support(monkeypatch, s, depth):
    # x + y has u and v both nonzero; ord_along takes the support that
    # principal_part already found instead of finding its own
    curve = CURVES[0]
    backend = EllipticGroupData(CycCache(curve))
    f = curve.x() + curve.y()
    expected = backend.principal_part(f, s, depth)
    supported = []
    pole_support = CycCache.pole_support
    monkeypatch.setattr(CycCache, "pole_support",
                        lambda self, elt: supported.append(elt)
                        or pole_support(self, elt))
    assert backend.principal_part(f, s, depth) == expected
    assert supported == [f]


def _count_chart_runs(monkeypatch):
    """(widths of every `_chart_series` run from now on, the unpatched
    function)."""
    widths = []
    original = curvefield._chart_series

    def spy(curve, prec):
        widths.append(prec)
        return original(curve, prec)

    monkeypatch.setattr(curvefield, "_chart_series", spy)
    return widths, original


def test_wider_charts_at_least_triple(monkeypatch):
    widths, chart_series = _count_chart_runs(monkeypatch)
    cache = CycCache(CURVES[5])
    for prec in (4, 3, 5, 7, 8, 10, 12, 13, 2):
        # a cut of the wider chart is the chart of exactly that width
        assert cache.chart(prec) == chart_series(cache.curve, prec)
    assert widths == [4, 12, 36]


def test_a_fresh_theory_runs_the_chart_at_most_twice(tmp_path, monkeypatch):
    widths, _ = _count_chart_runs(monkeypatch)
    path = tmp_path / "job.json"
    runs = []
    for command, params in (("serre", {"divisor": {"1": 2}}), ("completion", {"k": 6}),
                            ("dims", {"W": {"1": 1, "2": -1}}), ("serre", {"divisor": {"1": 2}})):
        path.write_text(json.dumps({"curve": {"a": "0", "b": "1/4"}, "params": params}))
        before = len(widths)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([command, "--config", str(path)]) == 0
        runs.append(len(widths) - before)
    # serre validates each t_s at width 3 and reads kappa off degrees;
    # completion widens to k + 2; the second serre pays again, since
    # nothing outlives a cli.main call
    assert runs == [1, 2, 1, 1]


# curves with and without denominators, and the coordinate scales the CLI
# accepts most often
DEN_CURVES = CURVES + [WeierstrassCurve(Q(1, 9), Q(1, 7)), WeierstrassCurve(Q(-3, 5), Q(7, 11))]
SCALES = (1, 2, -1, Q(1, 3))
# one cache per (curve, scale), so t_s is built once per pair
SCALED = {}


def _scaled_cache(ci, scale):
    key = (ci, scale)
    if key not in SCALED:
        curve = DEN_CURVES[ci]
        SCALED[key] = CycCache(curve, Coordinate(curve, scale=scale))
    return SCALED[key]


@pytest.mark.parametrize("scale", [1, 2, Q(1, 3)])
@pytest.mark.parametrize("ci", range(len(CURVES)))
def test_the_two_torsion_class_polynomial_is_rhs(ci, scale):
    # rhs is monic, so P_2 made monic, read through _x_part like every
    # other class, is rhs itself
    cache = _scaled_cache(ci, scale)
    assert cache.class_poly(2) == cache.curve.rhs


def reference_t_star(cache, divisor):
    """The `FuncElt` product of t_s ** n_s over the classes s >= 2."""
    out = cache.curve.one()
    for s, n in divisor.coeffs.items():
        if s >= 2:
            out = out * cache.t(s) ** n
    return out


_exponents = st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(DEN_CURVES) - 1), st.sampled_from(SCALES), _exponents,
       st.integers(-3, 3))
def test_t_star_matches_the_product_of_powers(ci, scale, exps, n2):
    # n2 is drawn on its own so odd and negative powers of t_2 = c y,
    # which fold y^2 into rhs, come up in most examples
    cache = _scaled_cache(ci, scale)
    divisor = TorsionDivisor({**exps, 2: n2})
    cache._t_star.clear()  # build it, not read it from an earlier example
    got = cache.t_star(divisor)
    assert got == reference_t_star(cache, divisor), (cache.curve, scale, divisor)
    # the parts are Fractions, as the constructor would leave them
    assert all(type(c) is Q for p in (got.u, got.v, got.d) for c in p.coeffs)
    assert cache.t_star(divisor) is got


def fixed_point_chart(curve, prec):
    """The chart by fixed-point passes of s = t^3 + a t s^2 + b s^3 on
    eight extra terms, then y = 1/s and x = t y."""
    width = prec + 8
    t = LaurentSeries(1, (QONE,) + (QZERO,) * (width - 1))
    t3 = LaurentSeries(3, (QONE,) + (QZERO,) * (width - 1))
    s = t3
    for _ in range(width + 2):
        nxt = t3 + (t * (s * s)) * curve.a + (s * (s * s)) * curve.b
        if nxt == s:
            break
        s = nxt
    y = series_reciprocal(s)
    return (t * y).truncate(prec), y.truncate(prec)


def test_recurrence_chart_matches_fixed_point_chart():
    for curve in DEN_CURVES:
        for prec in range(1, 41):
            assert _chart_series(curve, prec) == fixed_point_chart(curve, prec), (curve, prec)


def test_t_is_the_same_from_a_cold_and_a_warm_cache():
    # the warm cache has expanded its coordinate at several precisions,
    # widened its chart and built other t_s; a cache of another scale on
    # the same curve is warmed first, so a memo shared between caches shows
    for ci in (0, 5, 6):
        curve = DEN_CURVES[ci]
        other = CycCache(curve, Coordinate(curve, scale=Q(-3, 2)))
        warm = CycCache(curve, Coordinate(curve, scale=2))
        for cache in (other, warm):
            cache.diff_factor()
            for prec in (1, 3, 2):
                cache.base_series(prec)
            cache.t(4)
        for s in (2, 3, 5, 6, 4):
            cold = CycCache(curve, Coordinate(curve, scale=2))
            assert warm.t(s) == cold.t(s), (curve, s)
        base = warm.coordinate.base
        for prec in (1, 2, 3, 8):
            assert warm.base_series(prec) == expand_at_e(base, prec), (curve, prec)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(CURVES) - 1), st.sampled_from(["pure", "mixed", "denominator"]),
       _poly(8), _poly(6), _monic)
def test_lead_e_is_the_leading_coefficient_of_the_expansion(ci, kind, u, v, d):
    # pure elements have d = 1, mixed ones u and v both nonzero (so both
    # parities of the pole order compete), and denominator elements any d
    cache = CACHES[ci]
    if kind == "pure":
        d = Poly.const(1)
    elif kind == "mixed":
        u, v = u + Poly.x_power(u.degree + 1), v + Poly.x_power(v.degree + 1, Q(-2))
    elt = FuncElt(cache.curve, u, v, d)
    if elt.is_zero():
        return
    assert elt.lead_e() == cache.expand(elt, 1).coeffs[0], elt


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("ci", range(len(CURVES)))
def test_the_default_coordinate_is_x_over_y_times_the_scale(ci, scale):
    # c x y / rhs in one constructor is (x / y) * c, also where x divides
    # rhs (b = 0) and the constructor's gcd leaves c y / (x^2 + a)
    curve = CURVES[ci]
    base = Coordinate(curve, scale=scale).base
    assert base == (curve.x() / curve.y()) * scale
    assert base.lead_e() == scale
