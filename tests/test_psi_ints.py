"""Division polynomials and cyclotomic data on the integral model against
the `FuncElt` pipeline in `psi_reference`.

`CycCache.psi` runs the doubling recurrences on integer tuples g_n of
the model Y^2 = X^3 + A X + B, A = u^4 a and B = u^6 b; the primitive
parts P_s are exact integer divisions of g_s, and t_s is P_s over L^m
times its leading coefficient, for L the leading coefficient of t_e.
Every text below must match the reference's: psi_n, t_s, the x part
that `t_star` multiplies, and the class polynomial.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellt import cli
from ellt.curvefield import Coordinate, CycCache, WeierstrassCurve
from ellt.errors import ValidationFailed
from ellt.exactcore import Q, divisors_of
from psi_reference import ReferenceCyclotomic

SCALES = (1, 2, -1, Q(1, 3))


def _texts(data, n):
    """psi_n and, for each divisor s >= 2 of n, t_s, its x part and its
    class polynomial, as text; `data` is a cache or the reference."""
    out = [data.psi(n).text()]
    for s in divisors_of(n):
        if s > 1:
            c, p = data._x_part(s)
            out.append((s, data.t(s).text(), f"{c} {p}", data.class_poly(s).text()))
    return out


def _pair(a, b, scale=1):
    curve = WeierstrassCurve(a, b)
    return (CycCache(curve, Coordinate(curve, scale=scale)),
            ReferenceCyclotomic(CycCache(curve, Coordinate(curve, scale=scale))))


# numerators and denominators up to the CLI's 8-digit ceiling
_digits = st.integers(-(10**8 - 1), 10**8 - 1)
_coefficient = st.one_of(_digits, st.builds(Q, _digits, st.integers(1, 10**8 - 1)))


@settings(max_examples=40, deadline=None)
@given(_coefficient, _coefficient, st.sampled_from(SCALES), st.integers(1, 12))
def test_integer_pipeline_matches_the_reference(a, b, scale, n):
    assume(4 * Q(a) ** 3 + 27 * Q(b) ** 2 != 0)
    cache, reference = _pair(a, b, scale)
    assert _texts(cache, n) == _texts(reference, n), (a, b, scale, n)


# on (-1, 0) every index that psi_32 recurses through: 0-18 and 32 (the
# reference needs 4 s more for the indices 19-31, one by one)
@pytest.mark.parametrize("a, b, indices", [(-1, 0, [*range(19), 32]),
                                           (Q(1, 9), Q(1, 7), range(17)),
                                           (Q(1, 1009), Q(1, 1013), range(17))])
def test_every_index_on_fixed_curves(a, b, indices):
    cache, reference = _pair(a, b)
    for n in indices:
        assert _texts(cache, n) == _texts(reference, n), (a, b, n)


def test_a_corrupt_even_index_fails_the_division_by_two():
    # g_6 = g_3 (g_5 g_2^2 - g_1 g_4^2) / 2 is even only while g_4 is:
    # an odd constant term leaves g_4^2, hence the product, odd
    cache = CycCache(WeierstrassCurve(-1, 0))
    g4 = cache._model.g_n(4)
    cache._model.g[4] = (g4[0] + 1,) + g4[1:]
    with pytest.raises(ValidationFailed, match="not divisible by 2y"):
        cache.psi(6)


@pytest.mark.parametrize("n, index", [(6, 0), (9, 3), (12, 0)])
def test_a_corrupt_index_fails_the_primitive_part(n, index):
    # g_n is no longer a multiple of the P_d of its divisors
    cache = CycCache(WeierstrassCurve(Q(1, 9), Q(1, 7)))
    g = list(cache._model.g_n(n))
    g[index] += 1
    cache._model.g[n] = tuple(g)
    with pytest.raises(ValidationFailed, match=f"primitive part of psi_{n} is not polynomial"):
        cache.t(n)


def test_an_inexact_quotient_step_fails_with_no_remainder_left():
    # X^5 over P_3 = 3 X^4 - 6 X^2 - 1 on (-1, 0): the one quotient step
    # is 1/3, and what stays below the divisor's degree is zero
    cache = CycCache(WeierstrassCurve(-1, 0))
    cache._model.g[6] = (0, 0, 0, 0, 0, 1)
    with pytest.raises(ValidationFailed, match="primitive part of psi_6 is not polynomial"):
        cache.t(6)


def test_a_tampered_cache_entry_fails_verification(tmp_path, capsys):
    path = tmp_path / "psi.json"
    config = tmp_path / "job.json"
    curve = {"a": "1/9", "b": "1/7"}
    config.write_text(json.dumps({"curve": curve, "cache_path": str(path),
                                  "params": {"action": "warm", "upto": 12}}))
    assert cli.main(["cache", "--config", str(config)]) == 0
    blob = json.loads(path.read_text())
    blob["psi"]["11"][0] = blob["psi"]["11"][0][:-1] + ", 1]"  # one degree more
    path.write_text(json.dumps(blob))
    config.write_text(json.dumps({"curve": curve, "cache_path": str(path),
                                  "params": {"action": "verify"}}))
    capsys.readouterr()
    assert cli.main(["cache", "--config", str(config)]) == 3
    assert "cached psi_11 disagrees with recomputation" in capsys.readouterr().err
