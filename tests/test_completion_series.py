"""The completion stage on series against the per-column path it replaced.

`CompletionModule` expands 1, t_e, ..., t_e^{k-1} as powers of
`CycCache.base_series(k)`, and `matrix_of(f)` is the lower-triangular
Toeplitz matrix of `coords(f)`: modulo t_e^k, f t_e^j has the
coordinates of f moved down j places.  The reference forms each column
as `coords(f * t_e^j)` from a `FuncElt` product, as the stage once did.
The `completion` report reads the nilpotency order of the action from
its first column; the reference powers the action matrix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt import cli
from ellt.curvefield import Coordinate, CycCache, FuncElt, WeierstrassCurve
from ellt.eatheory import CompletionModule, build_ea, completion
from ellt.exactcore import Matrix, Poly, Q

# the curves of the cli_jobs benchmark pools
CURVES = [WeierstrassCurve(a, b) for a, b in
          ((-1, 0), (0, 1), (1, 0), (-4, 0), (0, -2), (0, Q(1, 4)))]
# (y - x - 1) / x^2 on y^2 = x^3 + 1: a custom coordinate with u and v
# both nonzero
CUSTOM = FuncElt(CURVES[1], Poly((-1, -1)), Poly((1,)), Poly((0, 0, 1)))
CACHES = {f"({c.a}, {c.b})": CycCache(c) for c in CURVES}
CACHES["custom"] = CycCache(CURVES[1], Coordinate(CURVES[1], base=CUSTOM))
SAMPLES = {
    "base": lambda base, x: base,
    "one": lambda base, x: base.curve.one(),
    "x*base^2": lambda base, x: x * base * base,
    "base^2+3": lambda base, x: base * base + 3,
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("name", sorted(CACHES))
def test_toeplitz_matrix_matches_the_per_column_reference(name, sample):
    cache = CACHES[name]
    base = cache.coordinate.base
    f = SAMPLES[sample](base, cache.curve.x())
    # the columns f * t_e^j of the largest stage, formed once for all k
    products = [f * base ** j for j in range(16)]
    for k in range(1, 17):
        module = CompletionModule(cache, k)
        reference = tuple(zip(*[module.coords(p) for p in products[:k]]))
        assert module.matrix_of(f).entries == reference, k


@pytest.mark.parametrize("k", [1, 5, 16])
def test_action_matrix_builds_no_function_products(monkeypatch, k):
    theory = build_ea((0, 1))
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__"):
        original = getattr(FuncElt, name)
        monkeypatch.setattr(FuncElt, name,
                            lambda self, other, _name=name, _original=original:
                            calls.append(_name) or _original(self, other))
    expand = CycCache.expand
    expanded = []
    monkeypatch.setattr(CycCache, "expand",
                        lambda self, elt, prec: expanded.append(elt) or expand(self, elt, prec))
    action = completion(theory, k).action_matrix()
    assert calls == []
    # at most one expansion of t_e for the powers (base_series is
    # memoised per precision) and one for its coordinates, whatever k is
    assert 1 <= len(expanded) <= 2
    assert all(elt == theory.cache.coordinate.base for elt in expanded)
    assert action.entries == tuple(tuple(Q(int(i == j + 1)) for j in range(k))
                                   for i in range(k))


def power_loop_order(action, k):
    """Nilpotency order of the action by `Matrix` powers, at most k, or
    None when action^k is nonzero."""
    power, order = action, 1
    while order < k and any(e for row in power.entries for e in row):
        power = power * action
        order += 1
    return order if not any(e for row in power.entries for e in row) else None


def toeplitz(column):
    k = len(column)
    return Matrix(tuple(tuple(column[i - j] if j <= i else Q(0) for j in range(k))
                        for i in range(k)))


@pytest.mark.parametrize("name", sorted(CACHES))
def test_nilpotency_order_matches_the_power_loop(name):
    for k in range(1, 17):
        action = CompletionModule(CACHES[name], k).action_matrix()
        column = [row[0] for row in action.entries]
        assert cli._nilpotency_order(column) == power_loop_order(action, k) == k


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0, 0, 0, 1, -2, Q(1, 3)]), min_size=1, max_size=9))
def test_nilpotency_order_of_any_toeplitz_action(column):
    column = [Q(c) for c in column]
    assert cli._nilpotency_order(column) == power_loop_order(toeplitz(column), len(column))
