"""The value types share one immutability guard and one powering routine.

Every value class inherits `exactcore._Frozen`, so assignment after
construction raises with the class's own name.  `Poly.pow` and the `**`
of series, curve functions and affine rational functions all run
`exactcore.power`, which squares only while higher bits remain.  Integer
fields read through `exactcore._whole`, so a float is refused, not
truncated.
"""

from functools import reduce
from operator import mul

import pytest

from ellt.affinegroups import AffineGroup, LaurentFn
from ellt.curvefield import (
    Coordinate,
    FuncElt,
    TorsionDivisor,
    WeierstrassCurve,
)
from ellt.eatheory import GradedFn, LocalCohomology, TorsionClass, build_ea, local_cohomology
from ellt.exactcore import LaurentSeries, Matrix, Poly, Q, power, series_one
from ellt.sheafside import OpenSet
from ellt.tmodel import AlmostConstant, EulerClassSymbol, Representation

CURVE = WeierstrassCurve(-1, 0)


def _values():
    x, y = CURVE.x(), CURVE.y()
    return [
        Poly((1, 2)),
        Matrix([[1, 2], [3, 4]]),
        LaurentSeries(-1, (1, 2, 3)),
        TorsionDivisor({1: 2, 3: -1}),
        CURVE,
        x + y,
        Coordinate(CURVE),
        GradedFn(x, 2),
        TorsionClass(3, 1, 0, (1, 2)),
        OpenSet([2, 3]),
        AlmostConstant(1, {2: 3}),
        Representation({1: 2}, fixed_part=1),
        EulerClassSymbol({2: 1}),
        LaurentFn(Poly((0, 1)), Poly((1, 1))),
        AffineGroup("multiplicative"),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_assignment_is_refused_and_fields_are_kept(value):
    name = type(value).__name__
    fields = {slot: getattr(value, slot) for slot in type(value).__slots__}
    assert fields
    for slot in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, slot, 0)
    assert {slot: getattr(value, slot) for slot in fields} == fields


def test_fifteen_value_types():
    assert len({type(v) for v in _values()}) == 15


def test_power_on_ints():
    for n in range(10):
        assert power(3, n, 1) == 3 ** n


def test_poly_powers_agree_with_repeated_products():
    p = Poly((Q(1, 2), -1, 2))
    for n in range(10):
        assert p.pow(n) == reduce(mul, [p] * n, Poly.const(1))
    with pytest.raises(ValueError):
        p.pow(-1)


def test_series_powers_agree_with_repeated_products():
    s = LaurentSeries(-2, (3, Q(1, 2), 0, -1, 5, 7))
    for n in range(10):
        assert s ** n == reduce(mul, [s] * n, series_one(s.precision))
    with pytest.raises(ValueError):
        s ** -1


def test_function_powers_agree_with_repeated_products():
    f = (CURVE.x() + CURVE.y()) / (CURVE.x() - 1)
    one = CURVE.one()
    for n in range(10):
        assert f ** n == reduce(mul, [f] * n, one)
        assert f ** -n == reduce(mul, [f.inverse()] * n, one)


def test_affine_powers_agree_with_repeated_products():
    a = LaurentFn(Poly((1, 2)), Poly((0, 1, 1)))
    one = LaurentFn(Poly((1,)))
    for n in range(10):
        assert a ** n == reduce(mul, [a] * n, one)
        assert a ** -n == reduce(mul, [a.inverse()] * n, one)


def test_powers_square_only_below_the_top_bit(monkeypatch):
    products = []
    multiply = FuncElt.__mul__
    monkeypatch.setattr(FuncElt, "__mul__",
                        lambda self, other: products.append(1) or multiply(self, other))
    base = CURVE.x() + CURVE.y()
    for n, count in ((0, 0), (1, 0), (2, 1), (5, 3), (8, 3)):
        products.clear()
        base ** n
        assert len(products) == count, n


@pytest.mark.parametrize("make, what", [
    (lambda: GradedFn(CURVE.x(), 1.9), "weights"),
    (lambda: TorsionClass(2.7, 1, 0, [1]), "class labels"),
    (lambda: TorsionClass(2, 1.5, 0, [1]), "depths"),
    (lambda: TorsionClass(2, 1, 0.9, [1]), "weights"),
    (lambda: Coordinate(CURVE, validated_to=6.9), "validation bounds"),
    (lambda: LocalCohomology([2], 1.0, [1, 2], None), "thickening levels"),
    (lambda: local_cohomology(build_ea(CURVE), [2], 1.0), "thickening levels"),
    (lambda: build_ea(CURVE).q({1: 1}, CURVE.x(), 2, depth=1.0), "depths"),
], ids=["GradedFn", "TorsionClass.s", "TorsionClass.depth", "TorsionClass.weight",
        "Coordinate", "LocalCohomology", "local_cohomology", "EATheory.q"])
def test_floats_are_refused_not_truncated(make, what):
    with pytest.raises(TypeError, match=f"^{what} are integers, got "):
        make()
