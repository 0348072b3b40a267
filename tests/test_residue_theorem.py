"""Residues from the residue theorem against the Laurent-tail path.

`curvefield.trace_residues` splits the denominator into its part g on the
marker's roots and the rest h, and reads the residue sum as one
coefficient of num h^-1 mod g; `residue_at_e` is minus the finite
residues, read as one coefficient of v mod d.  `residue_reference` keeps
the path they replaced: local Laurent tails inverted modulo squarefree
factors and summed by Newton traces, and the series of f Dt at e.
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
from ellt.exactcore import Poly, Q

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
    for s in classes:
        assert residue_along(cache, f, s) == ref.residue_along(cache, f, s), s
    assert residue_at_e(cache, f) == ref.residue_at_e(cache, f)


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_serre_entries_match_the_reference(name):
    theory = build_ea(*THEORIES[name])
    for divisor in DIVISORS:
        pairing = serre_pairing(theory, divisor)
        for f in pairing.sections:
            for h, s in zip(pairing.reps, pairing.classes):
                assert_residues_agree(theory.cache, f * h, {1, 2, 3, s})


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
