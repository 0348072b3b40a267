"""Residues from the residue theorem against the Laurent-tail path.

`curvefield.trace_residues` splits the denominator into its part g on the
marker's roots and the rest h, and reads the residue sum as one
coefficient of num h^-1 mod g; `residue_at_e` is minus the finite
residues, read as one coefficient of v mod d.  `residue_reference` keeps
the path they replaced: local Laurent tails inverted modulo squarefree
factors and summed by Newton traces, and the series of f Dt at e, with
kappa from the series of dx/y and dt_e, which `CycCache.diff_factor`
reads as -L/2 from the leading coefficient L of t_e.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import residue_reference as ref
from ellt.curvefield import (
    Coordinate,
    CycCache,
    FuncElt,
    WeierstrassCurve,
    residue_along,
    residue_at_e,
    trace_residues,
)
from ellt.eatheory import build_ea, serre_pairing
from ellt.exactcore import LaurentSeries, Poly, Q

# the curves of the cli_jobs benchmark pools
CURVES = [WeierstrassCurve(a, b) for a, b in
          ((-1, 0), (0, 1), (1, 0), (-4, 0), (0, -2), (0, Q(1, 4)))]
# a curve with fractional coefficients on which x/y is no coordinate of a
# theory (x = 0 is no torsion x-value), so only its caches are compared
FRACTIONAL = WeierstrassCurve(Q(1, 4), Q(-3, 2))
SCALES = (1, 2, Q(1, 3))
DIVISORS = ({1: 1}, {1: 2}, {2: 1}, {1: 1, 2: 1}, {3: 1}, {1: 3}, {1: 1, 3: 1})
# (y - x - 1) / x^2 on y^2 = x^3 + 1: a custom coordinate with u and v
# both nonzero
CUSTOM = FuncElt(CURVES[1], Poly((-1, -1)), Poly((1,)), Poly((0, 0, 1)))


def _coordinates(curves):
    out = {f"({c.a}, {c.b}) scale {qs}": (c, Coordinate(c, scale=qs))
           for c in curves for qs in SCALES}
    out["custom"] = (CURVES[1], Coordinate(CURVES[1], base=CUSTOM))
    return out


THEORIES = _coordinates(CURVES)
CACHES = _coordinates([*CURVES, FRACTIONAL])


def assert_residues_agree(cache, f, classes):
    """The library's residues of f equal the reference's; returns the
    reference residues by class."""
    expected = {s: ref.residue_along(cache, f, s) for s in classes}
    for s in classes:
        assert residue_along(cache, f, s) == expected[s], s
    assert residue_at_e(cache, f) == ref.residue_at_e(cache, f)
    return expected


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_serre_entries_match_the_reference(name):
    # the pairing reads each column's residue form on the sections'
    # numerators; the reference pairs each section with each class
    # representative as a function-field product
    theory = build_ea(*THEORIES[name])
    for divisor in DIVISORS:
        pairing = serre_pairing(theory, divisor)
        for i, f in enumerate(pairing.sections):
            for j, (h, s) in enumerate(zip(pairing.reps, pairing.classes)):
                expected = assert_residues_agree(theory.cache, f * h, {1, 2, 3, s})
                assert pairing.matrix.entries[i][j] == expected[s], (divisor, i, j)


def test_large_serre_pairing_matches_the_entry_loop():
    # degree 24 on (0, 1), against one product and one `residue_along`
    # per entry, the path the residue forms replaced
    theory = build_ea((0, 1))
    pairing = serre_pairing(theory, {5: 1})
    entries = tuple(tuple(residue_along(theory.cache, f * h, s)
                          for h, s in zip(pairing.reps, pairing.classes))
                    for f in pairing.sections)
    assert pairing.dim == 24 and pairing.matrix.entries == entries
    assert pairing.rank == 24


def _poly(rng, degree):
    return Poly(tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)))


@pytest.mark.parametrize("name", sorted(CACHES))
def test_random_torsion_poles_match_the_reference(name):
    curve, coordinate = CACHES[name]
    cache = CycCache(curve, coordinate)
    rng = random.Random(name)
    for _ in range(6):
        d = Poly.const(1)
        for s in rng.sample(range(2, 7), rng.randint(1, 2)):
            d = d * cache.class_poly(s).pow(rng.randint(1, 3))
        if rng.random() < 0.4:
            # x - 1/7 is no torsion x-value on these curves
            d = d * Poly((Q(-1, 7), 1))
        f = FuncElt(curve, _poly(rng, rng.randint(0, d.degree + 2)),
                    _poly(rng, rng.randint(0, d.degree + 2)), d)
        assert_residues_agree(cache, f, range(2, 7))


_small = st.integers(-6, 6)
_polys = st.lists(_small, min_size=1, max_size=5).map(lambda c: Poly(tuple(c)))
_monic = st.lists(_small, min_size=1, max_size=3).map(lambda c: Poly((*c, 1)))


@settings(max_examples=300, deadline=None)
@given(_polys, st.lists(st.tuples(_monic, st.integers(1, 3)), min_size=1, max_size=3),
       st.fractions(min_value=-5, max_value=5).filter(bool), _monic)
def test_non_monic_denominators_match_the_reference(num, factors, lead, marker):
    den = Poly.const(lead)
    for g, m in factors:
        den = den * g.pow(m)
    # markers are squarefree: the one drawn, a factor of den and their product
    for m in (marker, factors[0][0], marker * factors[0][0]):
        m = _squarefree(m)
        if m.degree >= 1:
            assert trace_residues(num, den, m) == ref.trace_residues(num, den, m)


def _squarefree(p):
    out = Poly.const(1)
    for f, _ in ref.squarefree_decomposition(p):
        out = out * f
    return out


def test_non_monic_marker_is_refused():
    with pytest.raises(ValueError):
        trace_residues(Poly.const(1), Poly((0, 1)), Poly((0, 2)))


def test_series_derivative():
    s = LaurentSeries(-2, [1, 0, 0, 0, 5])  # t^-2 + 5 t^2 + O(t^3)
    d = ref.series_derivative(s)
    assert d.valuation == -3
    assert d.coeff(-3) == -2
    assert d.coeff(1) == 10
    assert d.end == 2


# nine curves, with and without denominators, each at five scales of x/y
# and with four custom coordinates of other leading coefficients and
# parities: 81 coordinates
KAPPA_CURVES = [*CURVES, *(WeierstrassCurve(Q(a), Q(b))
                           for a, b in (("1/9", "1/7"), (-2, 3), (5, -7)))]


def _kappa_coordinates(curve):
    x, y = curve.x(), curve.y()
    scaled = [Coordinate(curve, scale=c) for c in (1, 2, -1, Q(1, 3), Q(-7, 5))]
    custom = [y / x ** 2, (x / y) * 2 + x.inverse(),
              (y - x - 1) / x ** 2 * Q(-1, 2), x ** 2 / (x * y + 1) * Q(5, 3)]
    return scaled + [Coordinate(curve, base=base) for base in custom]


@pytest.mark.parametrize("ci", range(len(KAPPA_CURVES)))
def test_diff_factor_matches_the_series_reference(ci):
    curve = KAPPA_CURVES[ci]
    coordinates = _kappa_coordinates(curve)
    assert len(coordinates) == 9
    for coordinate in coordinates:
        cache = CycCache(curve, coordinate)
        kappa = cache.diff_factor()
        assert kappa == ref.reference_diff_factor(cache), coordinate.base
        assert kappa == -cache.base_series(2).coeff(1) / 2, coordinate.base
