"""The integer polynomial gcd against Euclid over Fractions.

`exactcore.poly_gcd` runs Collins' primitive remainder sequence on Python
ints and makes the last remainder monic once.  The reference below is the
Euclidean algorithm over `Fraction` coefficients that it replaced; the
monic gcd is unique, so the two agree coefficient for coefficient, and so
do `residue_reference.squarefree_decomposition` and the canonical
`FuncElt` forms built on them.
"""

from fractions import Fraction
from math import gcd, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt import curvefield, exactcore
from ellt.curvefield import FuncElt, WeierstrassCurve
from ellt.exactcore import Poly, poly_gcd
import residue_reference


def reference_poly_gcd(a, b):
    """Monic gcd by Euclid over Fractions; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


_coeff = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)


def _poly(max_degree):
    return st.lists(_coeff, max_size=max_degree + 1).map(Poly)


def _nonzero(max_degree):
    # the top coefficient is drawn nonzero, so the degree is exact
    return st.tuples(st.lists(_coeff, max_size=max_degree),
                     _coeff.filter(bool)).map(lambda p: Poly(p[0] + [p[1]]))


@st.composite
def _pairs(draw):
    """Two polynomials, either possibly zero or constant, sharing a
    planted factor of degree 0-3."""
    common = draw(_nonzero(3))
    a, b = draw(_poly(5)), draw(_poly(5))
    return a * common, b * common


class TestAgainstEuclid:
    @settings(max_examples=400, deadline=None)
    @given(_pairs())
    def test_equal_coefficient_for_coefficient(self, pair):
        a, b = pair
        assert poly_gcd(a, b) == reference_poly_gcd(a, b)
        assert poly_gcd(b, a) == reference_poly_gcd(a, b)

    @pytest.mark.parametrize("a, b, expected", [
        ((), (), ()),
        ((), (Fraction(2, 3), 0, -4), (Fraction(-1, 6), 0, 1)),
        ((0, -3), (), (0, 1)),
        ((7,), (Fraction(-1, 2),), (1,)),
        ((5,), (1, 2, 3), (1,)),
        ((-1, 0, 1), (1, 1), (1, 1)),
    ])
    def test_zero_and_constant_inputs(self, a, b, expected):
        assert poly_gcd(Poly(a), Poly(b)) == Poly(expected)

    def test_denominators_in_the_gcd(self):
        # gcds of psi-type inputs on curves like (1/9, 1/7) carry them
        factor = Poly((Fraction(1, 7), Fraction(1, 9), 0, 1))
        a = factor * Poly((Fraction(-3, 5), 1))
        b = factor * Poly((2, Fraction(1, 11), 1))
        assert poly_gcd(a, b) == factor == reference_poly_gcd(a, b)

    def test_remainders_stay_small(self, monkeypatch):
        """Every remainder is divided by its content, so the integers stay
        near the Hadamard bound of the inputs: a primitive remainder
        divides a subresultant, and a pseudo-division with degree drop 1
        scales by the leading coefficient at most twice.  Without the
        content division they grow quadratically in the degree."""
        top = [0]

        def spy(*args):
            top[0] = max([top[0]] + [abs(x).bit_length() for x in args])
            return gcd(*args)

        monkeypatch.setattr(exactcore, "gcd", spy)
        for degree in (12, 24):
            a = Poly([(7 * k + 3) % 19 - 9 for k in range(degree)] + [1])
            b = Poly([(5 * k + 2) % 17 - 8 for k in range(degree - 1)] + [3])
            top[0] = 0
            assert poly_gcd(a, b) == Poly((1,))
            norm = [log2(sum(c * c for c in p.coeffs)) / 2 for p in (a, b)]
            hadamard = b.degree * norm[0] + a.degree * norm[1]
            assert top[0] <= 3 * hadamard, (degree, top[0], hadamard)


def _with_reference_gcd(monkeypatch):
    monkeypatch.setattr(exactcore, "poly_gcd", reference_poly_gcd)
    monkeypatch.setattr(curvefield, "poly_gcd", reference_poly_gcd)
    monkeypatch.setattr(residue_reference, "poly_gcd", reference_poly_gcd)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_nonzero(2), st.integers(1, 3)), max_size=3), _coeff.filter(bool))
def test_squarefree_decomposition_on_both_paths(factors, lead):
    p = Poly((lead,))
    for f, m in factors:
        p = p * f.pow(m)
    fast = residue_reference.squarefree_decomposition(p)
    with pytest.MonkeyPatch.context() as mp:
        _with_reference_gcd(mp)
        assert residue_reference.squarefree_decomposition(p) == fast


CURVES = [WeierstrassCurve(-1, 0), WeierstrassCurve(0, Fraction(1, 4)),
          WeierstrassCurve(Fraction(1, 9), Fraction(1, 7))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CURVES), _poly(4), _poly(3), _nonzero(3), _nonzero(2))
def test_func_elt_canonical_forms_on_both_paths(curve, u, v, d, common):
    parts = (u * common, v * common, d * common)
    fast = FuncElt(curve, *parts)
    with pytest.MonkeyPatch.context() as mp:
        _with_reference_gcd(mp)
        slow = FuncElt(curve, *parts)
    assert (fast.u, fast.v, fast.d) == (slow.u, slow.v, slow.d)
