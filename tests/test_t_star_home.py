"""`CycCache.t_star` is the one home for products, powers and quotients
of cyclotomic functions.

Dividing by t*(E) is multiplying by t*(-E), and t_s^w is t* of the single
class w A<s>; the references are the `FuncElt` inverse and power that
`rr_basis`, `QuotientWindow.rep`, `EATheory.q` and `torsion_rep` used
before.  Canonical forms are unique, so the two sides are the same
`FuncElt`.  A window backend turns a whole vertex vector into one element
(`element(vec)`): the pure sum of the monomials c_k m_k times t*(-E),
against the sum of c_k (m_k / t*(E)) built one index at a time.
"""

import random
from fractions import Fraction

import pytest

from ellt.curvefield import (
    Coordinate,
    CycCache,
    FuncElt,
    TorsionDivisor,
    WeierstrassCurve,
    monomial,
    single_class,
)
from ellt.eatheory import EATheory

# the six curves of the cli_jobs pools
CURVES = [WeierstrassCurve(a, b) for a, b in
          ((-1, 0), (0, 1), (1, 0), (-4, 0), (0, -2), (0, Fraction(1, 4)))]
SCALES = (1, 2, Fraction(1, 3))
# mixed signs, the class 1 (which t_star ignores) and every t_2 exponent
# from -3 to 3, so odd and even powers of t_2 = c y both come up
DIVISORS = [TorsionDivisor({1: n1, 2: n2, **rest})
            for n2 in range(-3, 4)
            for n1, rest in ((0, {3: 1, 4: -1}), (3, {5: -2, 6: 1}), (-2, {3: -2}))]


@pytest.fixture(scope="module", params=[(ci, scale) for ci in range(len(CURVES))
                                        for scale in SCALES],
                ids=lambda p: f"curve{p[0]}-scale{p[1]}")
def cache(request):
    ci, scale = request.param
    return CycCache(CURVES[ci], Coordinate(CURVES[ci], scale=scale))


def test_quotient_by_t_star_is_t_star_of_the_negative(cache):
    for divisor in DIVISORS:
        cache._t_star.clear()  # build both sides, not read them from the memo
        assert cache.t_star(divisor.scale(-1)) == cache.t_star(divisor).inverse(), divisor


def test_powers_of_t_s_are_t_star_of_one_class(cache):
    for s in range(2, 7):
        for w in (-3, -2, -1, 1, 2, 3):
            cache._t_star.clear()
            assert cache.t_star(single_class(s, w)) == cache.t(s) ** w, (s, w)


CAPS = ({1: 1}, {1: 3}, {1: 2, 2: 1}, {1: 1, 3: 2}, {2: 1, 4: 1}, {2: 3}, {1: 2, 5: 1, 6: 1})


@pytest.fixture(scope="module")
def theories():
    return [EATheory(CycCache(curve, Coordinate(curve, scale=scale)))
            for curve, scale in ((CURVES[0], 1), (CURVES[1], 2), (CURVES[5], Fraction(1, 3)))]


# the terms m_k * t*(E).inverse() of each (coordinate, cap divisor), built
# once: keyed by value, since a freed context's id is reused
TERMS = {}


def reference_element(ctx, vec):
    """sum_k vec[k] (m_k * t*(E).inverse()), one index at a time (a zero
    vec[k] adds nothing, so it is skipped)."""
    terms = TERMS.setdefault((ctx.cache.coordinate, ctx.cap_divisor), [])
    if len(terms) < len(vec):
        inv = ctx.cache.t_star(ctx.cap_divisor).inverse()
        terms += [monomial(ctx.cache.curve, k) * inv for k in range(len(terms), len(vec))]
    total = ctx.cache.curve.one() * 0
    for term, c in zip(terms, vec):
        if c:
            total = total + term * c
    return total


def test_vertex_vectors_become_one_element(theories):
    rng = random.Random(15)
    for theory in theories:
        for caps in CAPS:
            ctx = theory.backend.setup({}, caps)
            n = ctx.source_dim
            vectors = [tuple(int(k == j) for k in range(n)) for j in range(n)]
            vectors += [tuple(rng.choice((0, 0, 1, -2, Fraction(3, 5), 7)) for _ in range(n))
                        for _ in range(4)]
            for vec in vectors:
                got = ctx.element(vec)
                assert got == reference_element(ctx, vec), (caps, vec)
                assert ctx.element(list(vec)) == got
            for bad in ((0,) * (n - 1), (0,) * (n + 1)):
                with pytest.raises(ValueError, match="length"):
                    ctx.element(bad)


def test_kernel_elements_invert_nothing(theories, monkeypatch):
    windows = [theory.window(w, caps) for theory in theories
               for w, caps in (({}, None), ({1: 1}, None), ({2: 1}, {1: 2, 2: 2}),
                               ({1: 1, 3: 1}, None))]
    expected = [[reference_element(win.ctx, vec) for vec in win.kernel] for win in windows]
    calls = []
    inverse = FuncElt.inverse
    monkeypatch.setattr(FuncElt, "inverse", lambda self: calls.append(self) or inverse(self))
    got = [[win.kernel_element(k) for k in range(win.hom_dim)] for win in windows]
    assert calls == []
    assert got == expected and all(expected)
