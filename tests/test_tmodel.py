"""Weight functions, sphere bookkeeping, and generic window assembly."""

import pytest
from hypothesis import given, strategies as st

from ellt.curvefield import CycCache, TorsionDivisor, WeierstrassCurve
from ellt.errors import CapTooSmall
from ellt.exactcore import Matrix, Poly, Q
from ellt.sheafside import OpenSet, sections
from ladder_reference import scaled_rows
from ellt.tmodel import (
    AlmostConstant,
    ASObject,
    EulerClassSymbol,
    QWindow,
    Representation,
    SphereObject,
    _coerce_caps,
    dim_fn,
    stabilize,
    suspend,
)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TorsionDivisor({1: 1.9}), id="divisor-float"),
    pytest.param(lambda: TorsionDivisor({2: "3"}), id="divisor-string"),
    pytest.param(lambda: sections(CycCache(WeierstrassCurve(-1, 0)), {1: 2.7}, OpenSet()),
                 id="sections-float"),
    pytest.param(lambda: AlmostConstant(0, {1: 1.9}), id="almost-constant-entry"),
    pytest.param(lambda: AlmostConstant(Q(3, 2)), id="almost-constant-tail"),
    pytest.param(lambda: dim_fn({1: 1.9}), id="dim-fn-multiplicity"),
    pytest.param(lambda: Representation({1: Q(3, 2)}), id="representation-multiplicity"),
    pytest.param(lambda: _coerce_caps({1: 2.5}), id="caps-float"),
    pytest.param(lambda: stabilize(lambda caps: (0, True), {1: 1.5}), id="stabilize-caps"),
])
def test_non_integer_multiplicities_are_refused(build):
    # int() would truncate each of these to a nearby integer
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TorsionDivisor({1.9: 1}), id="divisor"),
    pytest.param(lambda: OpenSet([2.5]), id="open-set"),
    pytest.param(lambda: AlmostConstant(0, {2.5: 1}), id="almost-constant"),
    pytest.param(lambda: Representation({1.5: 1}), id="representation"),
    pytest.param(lambda: dim_fn({2.7: 1}), id="dim-fn"),
    pytest.param(lambda: _coerce_caps({1.5: 2}), id="caps"),
    pytest.param(lambda: stabilize(lambda caps: (0, True), {1.5: 1}), id="stabilize-caps"),
])
def test_non_integer_class_labels_are_refused(build):
    # int() would truncate each label to the class below it
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("text", ["01", " 1", "+1", "1 ", "1_0", "\uff11", "-0"])
@pytest.mark.parametrize("build", [
    pytest.param(lambda text: TorsionDivisor({"1": 1, text: 2}), id="divisor"),
    pytest.param(lambda text: dim_fn({"1": 1, text: 2}), id="dim-fn"),
    pytest.param(lambda text: AlmostConstant(0, {text: 1}), id="almost-constant"),
    pytest.param(lambda text: Representation({text: 1}), id="representation"),
    pytest.param(lambda text: _coerce_caps({text: 1}), id="caps"),
    pytest.param(lambda text: OpenSet([text]), id="open-set"),
])
def test_label_text_must_be_canonical(build, text):
    # int() reads each of these as 1, 10 or 0, so "1" and "01" would name
    # one class twice and the later multiplicity would win or add up
    with pytest.raises(ValueError, match="canonical"):
        build(text)


def test_canonical_label_text_names_its_class():
    assert TorsionDivisor({"1": 1, "10": 2}) == TorsionDivisor({1: 1, 10: 2})
    assert dim_fn({"2": 1}) == dim_fn({2: 1})


class TestAlmostConstant:
    def test_tail_entries_are_dropped(self):
        w = AlmostConstant(2, {3: 2, 5: 1})
        assert w.dev == {5: 1}
        assert w(3) == 2 and w(5) == 1 and w(100) == 2

    def test_arithmetic(self):
        a = AlmostConstant(1, {2: 3})
        b = AlmostConstant(-1, {2: -3, 5: 4})
        total = a + b
        assert total.tail == 0
        assert total(2) == 0 and total(5) == 5 and total(7) == 0
        assert (a - a) == AlmostConstant(0)
        assert (-a)(2) == -3

    def test_int_addition(self):
        w = AlmostConstant(0, {1: 1}) + 2
        assert w.tail == 2 and w(1) == 3

    def test_equality_and_hash(self):
        assert AlmostConstant(0, {2: 0, 3: 1}) == AlmostConstant(0, {3: 1})
        table = {AlmostConstant(1): "a", AlmostConstant(0, {1: 1}): "b"}
        assert table[AlmostConstant(1, {7: 1, 9: 1})] == "a"
        assert table[AlmostConstant(0, {1: 1, 4: 0})] == "b"

    def test_exponent_map_measures_from_tail(self):
        w = AlmostConstant(2, {1: 5, 3: 2, 4: 0})
        assert w.exponent_map() == {1: 3, 4: -2}
        assert w.minus_tail() == AlmostConstant(0, {1: 3, 4: -2})

    def test_payload_roundtrip(self):
        w = AlmostConstant(-1, {2: 4, 6: 0})
        payload = w.payload()
        assert AlmostConstant(payload["tail"], payload["dev"]) == w

    def test_rejects_bad_class_labels(self):
        with pytest.raises(ValueError):
            AlmostConstant(0, {0: 1})

    def test_immutable(self):
        w = AlmostConstant(0)
        with pytest.raises(AttributeError):
            w.tail = 5


class TestDimFn:
    def test_single_weight(self):
        w = dim_fn({1: 1})
        assert w.payload() == {"tail": 0, "dev": {"1": 1}}

    def test_weight_two(self):
        w = dim_fn({2: 1})
        assert w(1) == 1 and w(2) == 1 and w(3) == 0 and w.tail == 0

    def test_mixed_with_fixed_part(self):
        # z + z^3 + Q^2: every class sees the fixed plane
        w = dim_fn({1: 1, 3: 1}, fixed_part=2)
        assert w.tail == 2
        assert w(1) == 4 and w(3) == 3 and w(2) == 2 and w(9) == 2

    def test_virtual_combinations(self):
        w = dim_fn({1: -1})
        assert w(1) == -1 and w.tail == 0
        cancel = dim_fn({2: 1, 4: -1})
        assert cancel(4) == -1 and cancel(2) == 0 and cancel(1) == 0

    def test_representation_input(self):
        rep = Representation({2: 2}, fixed_part=1)
        assert dim_fn(rep) == rep.dim_fn()
        with pytest.raises(ValueError):
            dim_fn(rep, fixed_part=1)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            dim_fn({0: 1})


class TestRepresentation:
    def test_dimension(self):
        rep = Representation({1: 2, 3: 1}, fixed_part=2)
        assert rep.dim() == 5

    def test_euler_exponent_counts_divisible_weights(self):
        rep = Representation({2: 1, 6: 1})
        e = rep.euler_exponent()
        assert e(1) == 2 and e(2) == 2 and e(3) == 1 and e(6) == 1 and e(4) == 0
        assert e.tail == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Representation({1: 0})
        with pytest.raises(ValueError):
            Representation({1: -2})
        with pytest.raises(ValueError):
            Representation({0: 1})
        with pytest.raises(ValueError):
            Representation({}, fixed_part=-1)

    def test_text(self):
        assert Representation({1: 1, 3: 2}, fixed_part=1).text() == "z + 2*z^3 + Q^1"
        assert Representation().text() == "0"


class TestEulerClassSymbol:
    def test_from_weights(self):
        sym = EulerClassSymbol.from_weights({2: 1})
        assert sym.exponent == AlmostConstant(0, {1: 1, 2: 1})

    def test_product_adds_exponents(self):
        a = EulerClassSymbol.from_weights({2: 1})
        b = EulerClassSymbol.from_weights({4: 1})
        assert (a * b).exponent == AlmostConstant(0, {1: 2, 2: 2, 4: 1})

    def test_requires_nonnegative_tail_zero(self):
        with pytest.raises(ValueError):
            EulerClassSymbol(AlmostConstant(1))
        with pytest.raises(ValueError):
            EulerClassSymbol(AlmostConstant(0, {2: -1}))

    def test_text(self):
        assert EulerClassSymbol(AlmostConstant(0)).text() == "c^0"
        assert EulerClassSymbol(AlmostConstant(0, {2: 1})).text() == "c(2: 1)"


class TestStabilize:
    def test_runs_three_bumped_levels(self):
        seen = []

        def ev(caps):
            seen.append(dict(caps))
            return 7, True

        result = stabilize(ev, {1: 2, 3: 0})
        assert result.value == 7
        assert seen == [{1: 2, 3: 0}, {1: 3, 3: 1}, {1: 4, 3: 2}]
        assert result.certificate["certified"] is True

    def test_uncertified_run_is_refused(self):
        with pytest.raises(CapTooSmall) as err:
            stabilize(lambda caps: (1, False), {2: 1})
        assert err.value.caps == {2: 1}

    def test_moving_values_are_refused(self):
        values = iter([4, 4, 5])
        with pytest.raises(CapTooSmall):
            stabilize(lambda caps: (next(values), True), {1: 0})

    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError):
            stabilize(lambda caps: (0, True), {1: -1})


class _FakeContext:
    def __init__(self, backend, caps):
        self.backend = backend
        self.source_dim = backend.dim
        self.blocks = backend.blocks
        self.certified = backend.certified_flag

    def element(self, vec):
        return Poly(vec)

    def block_matrix(self, s):
        den, rows = scaled_rows(self.backend.matrices[s].entries)
        return den, tuple(map(tuple, rows))

    def torsion_rep(self, s, i):
        return (s, i)


class FakeBackend:
    """Minimal backend with fixed matrices, for exercising the assembly."""

    def __init__(self, blocks, matrices, dim=3, certified=True):
        self.blocks = blocks
        self.matrices = matrices
        self.dim = dim
        self.certified_flag = certified

    def default_caps(self, exp):
        return {s: max(w, 0) for s, w in exp.items()}

    def setup(self, exp, caps):
        return _FakeContext(self, caps)


class TestWindowAssembly:
    def test_kernel_and_elements(self):
        backend = FakeBackend(
            blocks=[(2, 2, 2)],
            matrices={2: Matrix([(1, 0, 0), (0, 1, 0)])},
        )
        win = QWindow(backend, AlmostConstant(0), caps={2: 2})
        assert win.hom_dim == 1 and win.ext_dim == 0
        assert win.kernel == [(Q(0), Q(0), Q(1))]
        assert win.kernel_element(0) == Poly.x_power(2)
        assert win.block_surjective(2)

    def test_uncovered_rows_present_the_cokernel(self):
        backend = FakeBackend(
            blocks=[(1, 1, 1), (3, 1, 1)],
            matrices={1: Matrix([(0, 0, 0)]), 3: Matrix([(1, 2, 0)])},
        )
        win = QWindow(backend, AlmostConstant(0), caps={1: 1, 3: 1})
        assert win.ext_dim == 1 and win.hom_dim == 2
        assert win.uncovered_rows() == [0]
        assert win.row_class(0) == (1, 0) and win.row_class(1) == (3, 0)
        assert win.ext_classes() == [(1, 0)] and win.ext_rep(0) == (1, 0)
        assert not win.block_surjective(1) and win.block_surjective(3)

    def test_only_the_public_matrix_divides_by_the_block_denominators(self):
        matrices = {2: Matrix([(Q(1, 2), Q(1, 3), 0)]), 3: Matrix([(Q(2, 5), 0, 1)])}
        backend = FakeBackend(blocks=[(2, 1, 1), (3, 1, 1)], matrices=matrices)
        win = QWindow(backend, AlmostConstant(0), caps={2: 1, 3: 1})
        assert win.rows == ((3, 2, 0), (2, 0, 5))
        assert win.matrix.entries == matrices[2].entries + matrices[3].entries
        assert (win.rank, win.hom_dim, win.ext_dim) == (2, 1, 0)
        assert win.kernel == [(Q(-5, 2), Q(15, 4), Q(1))]

    def test_no_rows_means_everything_survives(self):
        backend = FakeBackend(blocks=[], matrices={})
        win = QWindow(backend, AlmostConstant(0), caps={})
        assert win.hom_dim == 3 and win.ext_dim == 0 and win.matrix is None
        hom = ASObject(backend, 0).q_window(caps={})
        assert [hom.kernel_element(k) for k in range(3)] == [Poly.x_power(k) for k in range(3)]

    def test_report_shape(self):
        backend = FakeBackend(blocks=[], matrices={})
        win = QWindow(backend, dim_fn({2: 1}, fixed_part=1), caps={2: 1})
        report = win.report()
        assert list(report) == ["w", "caps", "hom_dim", "ext_dim", "certified"]
        assert report["w"] == {"tail": 1, "dev": {"1": 2, "2": 2}}
        assert report["caps"] == {"2": 1}

    def test_caps_validation(self):
        backend = FakeBackend(blocks=[], matrices={})
        with pytest.raises(ValueError):
            QWindow(backend, AlmostConstant(0), caps={1: -1})

    def test_wrong_block_shape_is_rejected(self):
        backend = FakeBackend(
            blocks=[(2, 1, 2)],
            matrices={2: Matrix([(1, 0, 0)])},  # claims 2 rows, delivers 1
        )
        with pytest.raises(ValueError):
            QWindow(backend, AlmostConstant(0), caps={2: 1})

    def test_a_block_denominator_below_one_is_rejected(self, monkeypatch):
        backend = FakeBackend(blocks=[(2, 1, 1)], matrices={2: Matrix([(1, 0, 0)])})
        monkeypatch.setattr(_FakeContext, "block_matrix", lambda self, s: (0, ((1, 0, 0),)))
        with pytest.raises(ValueError, match="wrong shape"):
            QWindow(backend, AlmostConstant(0), caps={2: 1})


class TestObjectsAndSuspension:
    def test_sphere_names_and_weights(self):
        backend = FakeBackend(blocks=[], matrices={})
        s = SphereObject(backend, Representation({2: 1}))
        assert s.weight == dim_fn({2: 1})
        assert s.rep == Representation({2: 1})

    def test_suspend_adds_weight_functions(self):
        backend = FakeBackend(blocks=[], matrices={})
        s = SphereObject(backend, Representation({1: 1}))
        double = suspend(s, dim_fn({1: 1}))
        assert isinstance(double, SphereObject)
        assert double.weight == dim_fn({1: 2})
        x = ASObject(backend, dim_fn({3: 1}), name="EA")
        y = suspend(x, dim_fn({}, 1))
        assert y.weight.tail == 1 and y.weight(3) == 2


@given(
    tail=st.integers(min_value=-3, max_value=3),
    dev_a=st.dictionaries(st.integers(1, 6), st.integers(-4, 4), max_size=3),
    dev_b=st.dictionaries(st.integers(1, 6), st.integers(-4, 4), max_size=3),
)
def test_almost_constant_addition_is_pointwise(tail, dev_a, dev_b):
    a = AlmostConstant(tail, dev_a)
    b = AlmostConstant(-tail, dev_b)
    total = a + b
    for s in range(1, 8):
        assert total(s) == a(s) + b(s)
