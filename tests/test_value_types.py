"""The value types share one immutability guard, one value semantics and
one powering routine.

Every value class inherits `exactcore._Frozen`, so assignment after
construction raises with the class's own name.  `_Frozen` is also the one
home of `__eq__` and `__hash__`: a value is its public slots, a slot
named with a leading `_` is a memo, and the repr is `Name(text)`.  Only
`GradedFn` (every zero is equal whatever its weight) and `LaurentFn`
(equal to the scalars it coerces) keep their own equality
(`test_one_home.py`).  `Poly.pow` and the `**`
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
    curve = WeierstrassCurve(-1, 0)  # a fresh one on each call
    x, y = curve.x(), curve.y()
    return [
        Poly((1, 2)),
        Matrix([[1, 2], [3, 4]]),
        LaurentSeries(-1, (1, 2, 3)),
        TorsionDivisor({1: 2, 3: -1}),
        curve,
        x + y,
        Coordinate(curve),
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


def _others():
    """One value of each type in `_values()` order, each differing from it
    in at least one public slot."""
    x, y = CURVE.x(), CURVE.y()
    return [
        Poly((1, 3)),
        Matrix([[1, 2], [3, 5]]),
        LaurentSeries(0, (1, 2, 3)),
        TorsionDivisor({1: 2, 3: -2}),
        WeierstrassCurve(-2, 0),
        x - y,
        Coordinate(CURVE, validated_to=6),
        GradedFn(x, 3),
        TorsionClass(3, 1, 0, (1, 3)),
        OpenSet([2]),
        AlmostConstant(2, {2: 3}),
        Representation({1: 2}, fixed_part=2),
        EulerClassSymbol({2: 2}),
        LaurentFn(Poly((0, 1)), Poly((1, 2))),
        AffineGroup("additive"),
    ]


def _public(value):
    return [slot for slot in type(value).__slots__ if not slot.startswith("_")]


def _with(value, slot, field):
    """A copy of `value` with one slot replaced, past the constructor."""
    copy = object.__new__(type(value))
    for name in type(value).__slots__:
        object.__setattr__(copy, name, field if name == slot else getattr(value, name))
    return copy


@pytest.mark.parametrize("index", range(15), ids=[type(v).__name__ for v in _values()])
def test_a_rebuilt_value_is_equal_and_hashes_alike(index):
    value, copy = _values()[index], _values()[index]
    assert value is not copy
    assert value == copy and not value != copy and hash(value) == hash(copy)
    assert value != object()


@pytest.mark.parametrize("index", range(15), ids=[type(v).__name__ for v in _values()])
def test_each_public_slot_is_part_of_the_value(index):
    value, other = _values()[index], _others()[index]
    assert type(other) is type(value) and value != other
    changed = [slot for slot in _public(value) if getattr(value, slot) != getattr(other, slot)]
    assert changed
    for slot in changed:
        assert _with(value, slot, getattr(other, slot)) != value, slot


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_repr_names_the_type(value):
    assert repr(value).startswith(type(value).__name__ + "(")


def test_coordinates_and_affine_groups_compare_by_value():
    assert Coordinate(CURVE) == Coordinate(CURVE)
    assert hash(Coordinate(CURVE, 2)) == hash(Coordinate(CURVE, 2)) != hash(Coordinate(CURVE))
    warm, cold = AffineGroup("additive"), AffineGroup("additive")
    warm.phi(6)  # fills the `_phi` memo, which is not part of the value
    assert warm._phi and not cold._phi
    assert warm == cold and hash(warm) == hash(cold)
    assert warm != AffineGroup("multiplicative")


def test_a_dict_slot_hashes_by_its_items():
    first, second = AlmostConstant(0, {2: 1, 3: 4}), AlmostConstant(0, {3: 4, 2: 1})
    assert list(first.dev) != list(second.dev)
    assert first == second and hash(first) == hash(second)
    assert Representation({1: 1, 2: 1}) == Representation({2: 1, 1: 1})
    assert len({first, second, Representation({1: 1, 2: 1}), Representation({2: 1, 1: 1})}) == 2


def test_values_of_different_types_are_unequal():
    # a `_Frozen` type compares only with its own; LaurentFn also
    # compares with the scalars and polynomials it coerces
    assert Poly((1,)) != TorsionClass(1, 1, 0, (1,))
    assert OpenSet([2]) != TorsionDivisor({2: 1})
    assert LaurentFn(Poly((1, 2))) == Poly((1, 2)) and Poly((1, 2)) == LaurentFn(Poly((1, 2)))
    assert GradedFn(CURVE.zero(), 1) == GradedFn(CURVE.zero(), 3)


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
