"""Elliptic windows: frozen examples on two small curves and cross-checks
against the divisor dimension count."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt.curvefield import (
    Coordinate,
    FuncElt,
    TorsionDivisor,
    WeierstrassCurve,
    _ladder_ints,
    h_dims,
    monomial,
)
from ellt import eatheory, tmodel
from ellt.eatheory import (
    CompletionModule,
    EATheory,
    GradedFn,
    TorsionClass,
    _EllipticAssembly,
    build_ea,
    coefficient_ring,
    completion,
    local_cohomology,
    localization_vertex,
    product_check,
    rep_to_divisor,
    serre_pairing,
    sphere_cohomology,
    sphere_homology,
    stable_sphere_homology,
)
from ellt.errors import CapTooSmall, UnsupportedPoles, ValidationFailed
from ellt.exactcore import Matrix, Q, matrix_rank
from ellt.sheafside import OpenSet, sections
from ellt.tmodel import EulerClassSymbol, Representation, dim_fn, suspend
from ladder_reference import (product_multiplier, rational_rows, reference_ladder_frames,
                              reference_reducers, reference_sweep)


@pytest.fixture(scope="module")
def e1():
    return build_ea((-1, 0))  # y^2 = x^3 - x


@pytest.fixture(scope="module")
def e2():
    return build_ea((0, 1))  # y^2 = x^3 + 1


@pytest.mark.parametrize("call", [
    pytest.param(lambda ea: local_cohomology(ea, [2.7]), id="local-cohomology-pi"),
    pytest.param(lambda ea: localization_vertex(ea, 2.9, {1: 2}), id="localization-order"),
    pytest.param(lambda ea: completion(ea, 2.5), id="completion-stage"),
    pytest.param(lambda ea: sections(ea.cache, {}, OpenSet(), 1.5), id="sections-cap"),
])
def test_non_integer_arguments_are_refused(e1, call):
    # int() would truncate each of these to the integer below it
    with pytest.raises(TypeError):
        call(e1)


def _mat_pow(m, n):
    out = m
    for _ in range(n - 1):
        out = out * m
    return out


class TestConstruction:
    def test_accepts_curve_object(self):
        th = build_ea(WeierstrassCurve(-1, 0))
        assert th.curve.a == Q(-1)

    def test_default_coordinate_touches_the_two_torsion(self, e1):
        assert e1.backend.touched == (2,)
        assert e1.backend.profile[2] == (1, 1)

    def test_scaled_coordinate_accepted(self):
        curve = WeierstrassCurve(-1, 0)
        th = build_ea(curve, Coordinate(curve, scale=Q(2)))
        assert sphere_homology(th, {}).h0 == 1

    def test_base_object_name(self, e1):
        assert e1.base_object.name == "EA"

    @pytest.mark.parametrize("fault", ["rank", "rows", "columns"])
    @pytest.mark.parametrize("s, depth", [(s, d) for s in (1, 2, 3, 4) for d in (1, 2)])
    def test_spot_check_refuses_a_faulty_block(self, monkeypatch, s, depth, fault):
        """A class-s block at the spot caps that loses rank, or gains a row
        or a column without losing rank, is refused with the message of
        an uncovered window.  Class 1 is checked at build; a class s >= 2
        at the first read of a class-s window, on every route to one, and
        a failed check is not recorded as passed, so each read raises."""
        caps = {1: depth, 2: 1} if s == 1 else {1: 2, s: depth}
        honest = _EllipticAssembly.block_matrix

        def faulty(self, cls):
            den, block = honest(self, cls)
            if cls != s or self.caps != caps:
                return den, block
            if fault == "rank":
                return den, block[:-1] + ((0,) * len(block[-1]),)
            if fault == "rows":
                return den, block + block[-1:]
            return den, tuple(row + (0,) for row in block)

        monkeypatch.setattr(_EllipticAssembly, "block_matrix", faulty)
        message = f"structure map misses the class-{s} window at depth {depth}"
        if s == 1:
            with pytest.raises(ValidationFailed, match=message):
                build_ea((0, 1))
            return
        th = build_ea((0, 1))
        reads = [
            lambda: th.window({}, {1: 2, s: 1}),
            lambda: sphere_homology(th, {s: -1}),
            lambda: th.q({}, th.curve.one(), s),
            lambda: local_cohomology(th, [s]),
            lambda: serre_pairing(th, {s: 1}),
        ]
        for read in reads + reads:
            with pytest.raises(ValidationFailed, match=message):
                read()

    def test_check_assembles_nine_blocks_and_no_kernel(self, monkeypatch):
        """The base window is the one full window a build assembles, and
        the class-1 spot checks run inside it: 3 block assemblies and 3
        ranks.  The first read at a class s in 2..4 adds that class's two
        spot checks, a later read none, so the four classes come to nine
        blocks and nine ranks.  Every check reads dimensions only, so no
        kernel basis is built."""
        calls = {"block_matrix": 0, "matrix_rank": 0, "kernel_and_image": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_EllipticAssembly, "block_matrix",
                            counted("block_matrix", _EllipticAssembly.block_matrix))
        monkeypatch.setattr(tmodel, "kernel_and_image",
                            counted("kernel_and_image", tmodel.kernel_and_image))
        for module in (tmodel, eatheory):
            monkeypatch.setattr(module, "matrix_rank",
                                counted("matrix_rank", module.matrix_rank))
        th = build_ea((0, 1))
        assert calls == {"block_matrix": 3, "matrix_rank": 3, "kernel_and_image": 0}
        for n, s in enumerate((2, 3, 4), 1):
            # q reads windows without assembling a block of its own
            th.q({}, th.curve.x(), s)
            th.q({}, th.curve.y(), s, 2)
            assert calls == {"block_matrix": 3 + 2 * n, "matrix_rank": 3 + 2 * n,
                             "kernel_and_image": 0}
        th.q({}, th.curve.x(), 1)
        assert calls == {"block_matrix": 9, "matrix_rank": 9, "kernel_and_image": 0}

    def test_a_dropped_theory_is_freed_by_refcount(self):
        """The backend runs its own checks and holds nothing that points
        back at the theory, so no cycle keeps a dropped theory alive."""
        gc.disable()
        try:
            th = build_ea((0, 1))
            assert sphere_homology(th, {2: -1, 3: -1}).h1 == 13
            theory, backend = weakref.ref(th), weakref.ref(th.backend)
            del th
            assert theory() is None and backend() is None
        finally:
            gc.enable()


class TestKernelOnRead:
    """Dimensions come from one rank; a kernel basis is built only when a
    caller reads kernel vectors, and then once per window."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        calls = []
        real = tmodel.kernel_and_image

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(tmodel, "kernel_and_image", counted)
        return calls

    def test_dimension_reads_build_no_kernel(self, e1, kernels):
        win = e1.window({})
        assert win.rows  # conditions, and a one-vector kernel left unbuilt
        assert (win.rank, win.hom_dim, win.ext_dim, win.certified) == (0, 1, 1, True)
        assert not win.block_surjective(1)
        assert win.uncovered_rows() == [0]
        h = sphere_homology(e1, {1: 3, 2: -1})
        assert len(h.window.rows) == 3 and (h.h0, h.h1) == (0, 1)
        assert stable_sphere_homology(e1, {1: 1}, {1: 2}).value == (1, 0)
        assert local_cohomology(e1, [2]).dim == 4
        assert kernels == []

    @pytest.mark.parametrize("read", [
        pytest.param(lambda h: h.window.kernel, id="kernel"),
        pytest.param(lambda h: h.window.kernel_element(0), id="kernel_element"),
        pytest.param(lambda h: h.h0_basis(), id="h0_basis"),
    ])
    def test_the_first_kernel_read_builds_it_once(self, e1, kernels, read):
        h = sphere_homology(e1, {})
        assert h.window.rows
        first = read(h)
        assert len(kernels) == 1
        assert read(h) == first
        assert len(kernels) == 1

    def test_the_serre_ext_window_builds_no_kernel(self, e1, kernels):
        # the sections window imposes no conditions, so its kernel is the
        # unit vectors; the Ext window has rows but only its cokernel is read
        assert serre_pairing(e1, {1: 1}).nondegenerate
        assert kernels == []


class TestSphereHomology:
    def test_zero_sphere(self, e1):
        h = sphere_homology(e1, {})
        assert (h.h0, h.h1) == (1, 1)
        basis = h.h0_basis()
        assert basis[0].fn.is_constant()
        assert basis[0].fn.constant_value() == 1

    def test_zero_sphere_torsion_class_is_the_top_monomial(self, e1):
        # the one missed class is x^2/y, living over the identity
        rep = sphere_homology(e1, {}).h1_reps()[0]
        x, y = e1.curve.x(), e1.curve.y()
        assert rep.fn == x * x / y
        assert rep.weight == 0

    def test_single_weight(self, e1):
        h = sphere_homology(e1, {1: 1})
        assert (h.h0, h.h1) == (1, 0)
        assert [g.fn.text() for g in h.h0_basis()] == ["([1]; []; [1])"]

    def test_inverse_single_weight(self, e1):
        h = sphere_homology(e1, {1: -1})
        assert (h.h0, h.h1) == (0, 1)
        rep = h.h1_reps()[0]
        x, y = e1.curve.x(), e1.curve.y()
        assert rep.fn == x * x / y
        assert rep.weight == 1  # tail 0 minus exponent -1

    def test_weight_two_basis_frozen(self, e1):
        h = sphere_homology(e1, {2: 1})
        assert (h.h0, h.h1) == (4, 0)
        assert [g.fn.text() for g in h.h0_basis()] == [
            "([]; [1]; [0, -1, 0, 1])",   # 1/y
            "([]; [1]; [-1, 0, 1])",      # x/y
            "([1]; []; [1])",             # 1
            "([]; [0, 1]; [-1, 0, 1])",   # x^2/y
        ]

    def test_weight_two_dims_on_second_curve(self, e2):
        h = sphere_homology(e2, {2: 1})
        assert (h.h0, h.h1) == (4, 0)

    def test_mixed_weights(self, e1):
        assert (sphere_homology(e1, {1: 1, 3: 1}).h0,
                sphere_homology(e1, {1: 1, 3: 1}).h1) == (10, 0)
        h = sphere_homology(e1, {1: 1, 2: -1})
        assert (h.h0, h.h1) == (0, 3)

    def test_representation_input_matches_dict(self, e1):
        via_rep = sphere_homology(e1, Representation({2: 1}))
        via_dict = sphere_homology(e1, {2: 1})
        assert (via_rep.h0, via_rep.h1) == (via_dict.h0, via_dict.h1)

    @pytest.mark.parametrize("weight", [1.9, Q(3, 2), "1"])
    def test_non_integer_weights_are_refused(self, e1, weight):
        # int() would read each of these as the weight-1 sphere
        with pytest.raises(TypeError):
            sphere_homology(e1, weight)

    def test_trivial_summand_twists_but_does_not_move_dims(self, e1):
        h = sphere_homology(e1, Representation({1: 1}, fixed_part=2))
        assert (h.h0, h.h1) == (1, 0)
        assert h.h0_basis()[0].weight == 2

    def test_report_shape(self, e1):
        report = sphere_homology(e1, {1: 1}).report()
        assert list(report) == [
            "curve", "coordinate", "W", "h0", "h1", "h0_basis", "certified_caps",
        ]
        assert report["curve"] == {"a": "-1", "b": "0"}
        assert report["coordinate"] == {"form": "x/y", "scale": "1"}
        assert report["W"] == {"1": 1}
        assert report["certified_caps"] == {"1": 1}

    def test_undersized_caps_refused(self, e1):
        with pytest.raises(CapTooSmall) as info:
            sphere_homology(e1, {3: 2}, caps={1: 2})
        assert info.value.caps == {1: 2}

    def test_larger_certified_caps_do_not_move_the_answer(self, e1):
        small = sphere_homology(e1, {2: 1})
        big = sphere_homology(e1, {2: 1}, caps={1: 2, 2: 3, 3: 1})
        assert (small.h0, small.h1) == (big.h0, big.h1)
        assert [g.fn.text() for g in small.h0_basis()] == [
            g.fn.text() for g in big.h0_basis()[: small.h0]
        ] or big.h0 == small.h0


class TestDimensionCount:
    # dims must agree with the divisor count h_dims(D(W)) in every case
    def test_sweep_small_support(self, e1, e2):
        weights = []
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                if abs(n1) + abs(n2) <= 2:
                    w = {}
                    if n1:
                        w[1] = n1
                    if n2:
                        w[3] = n2
                    weights.append(w)
        for theory in (e1, e2):
            for w in weights:
                h = sphere_homology(theory, w)
                assert (h.h0, h.h1) == h_dims(rep_to_divisor(w)), w

    def test_mirror_swaps_dims(self, e1):
        for w in ({1: 2}, {2: 1}, {1: 1, 4: -1}, {6: -1}):
            neg = {n: -a for n, a in w.items()}
            h = sphere_homology(e1, w)
            hm = sphere_homology(e1, neg)
            assert (h.h0, h.h1) == (hm.h1, hm.h0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=-2, max_value=2).filter(bool),
            max_size=3,
        )
    )
    def test_dims_match_divisor_count(self, w):
        theory = _shared_theory()
        h = sphere_homology(theory, w)
        assert (h.h0, h.h1) == h_dims(rep_to_divisor(w))


_THEORY = None


def _shared_theory():
    global _THEORY
    if _THEORY is None:
        _THEORY = build_ea((-1, 0))
    return _THEORY


class TestSphereCohomology:
    def test_reduced_groups(self, e1):
        h = sphere_cohomology(e1, {1: 1})
        assert (h.h0, h.h1) == (0, 1)
        h = sphere_cohomology(e1, {1: 2})
        assert (h.h0, h.h1) == (0, 2)

    def test_virtual_input_inverts_back(self, e1):
        h = sphere_cohomology(e1, {1: -1})
        assert (h.h0, h.h1) == (1, 0)


class TestQMap:
    def test_unit_maps_to_zero(self, e1):
        c0 = EulerClassSymbol.from_weights({})
        for s in (1, 2, 3):
            assert e1.q(c0, e1.curve.one(), s).is_zero()

    def test_twisted_tensor_dies(self, e1):
        # t_2 * (1/y) = 1 is regular, so the class vanishes
        c2 = EulerClassSymbol.from_weights({2: 1})
        cls = e1.q(c2, e1.curve.y().inverse(), 2)
        assert cls.is_zero()
        assert cls.weight == -1

    def test_untwisted_tensor_survives(self, e1):
        c0 = EulerClassSymbol.from_weights({})
        cls = e1.q(c0, e1.curve.y().inverse(), 2)
        assert not cls.is_zero()
        assert cls.vector == (Q(1), Q(0), Q(0))
        assert cls.weight == 0

    def test_weight_bookkeeping(self, e1):
        c2 = EulerClassSymbol.from_weights({2: 1})
        fn = GradedFn(e1.curve.x(), 3)
        cls = e1.q(c2, fn, 2, depth=2)
        assert cls.weight == 2  # 3 - 1
        assert cls.depth == 2
        assert len(cls.vector) == 6

    def test_symbol_coercion_from_weights(self, e1):
        assert e1.q({2: 1}, e1.curve.y().inverse(), 2).is_zero()


class TestCoefficientRing:
    def test_frozen_table(self, e1):
        rows = coefficient_ring(e1)
        assert [r["degree"] for r in rows] == list(range(-4, 5))
        assert all(r["dim"] == 1 for r in rows)
        witness = {r["degree"]: r["witness"] for r in rows}
        assert witness[0] == "1"
        assert witness[2] == "Dt"
        assert witness[-2] == "Dt^-1"
        assert witness[4] == "Dt^2"
        assert witness[-1] == "tau"
        assert witness[1] == "tau*Dt"
        assert witness[3] == "tau*Dt^2"
        assert witness[-3] == "tau*Dt^-1"

    def test_uncertified_caps_refused(self, e1):
        with pytest.raises(CapTooSmall):
            coefficient_ring(e1, caps={})

    def test_second_curve(self, e2):
        rows = coefficient_ring(e2, d_min=-2, d_max=2)
        assert [r["dim"] for r in rows] == [1] * 5


class TestSerrePairing:
    def test_identity_point(self, e1):
        pairing = serre_pairing(e1, {1: 1})
        assert pairing.dim == 1
        assert pairing.matrix.entries == ((Q(1),),)
        assert pairing.nondegenerate

    def test_two_torsion_class(self, e1):
        pairing = serre_pairing(e1, {2: 1})
        assert pairing.dim == 3
        assert pairing.rank == 3
        assert pairing.classes == (1, 2, 2)

    def test_doubled_identity(self, e1):
        pairing = serre_pairing(e1, {1: 2})
        assert (pairing.dim, pairing.rank) == (2, 2)

    def test_degree_four(self, e1):
        pairing = serre_pairing(e1, {1: 1, 2: 1})
        assert (pairing.dim, pairing.rank) == (4, 4)

    def test_sections_are_built_on_first_read(self, e1, monkeypatch):
        # no report reads the section functions, so the pairing builds none
        # until a caller does, and then once
        calls = []
        real = tmodel.QWindow.kernel_element
        monkeypatch.setattr(tmodel.QWindow, "kernel_element",
                            lambda self, k: calls.append(k) or real(self, k))
        pairing = serre_pairing(e1, {1: 1, 2: 1})
        assert calls == [] and pairing.nondegenerate
        first = pairing.sections
        assert calls == [0, 1, 2, 3] and pairing.sections is first
        assert len(calls) == 4
        window = tmodel.QWindow(e1.backend, tmodel.AlmostConstant(0, {1: 1, 2: 1}))
        assert first == [real(window, k) for k in range(4)]

    def test_rejects_degree_zero(self, e1):
        with pytest.raises(ValidationFailed):
            serre_pairing(e1, {})

    def test_rejects_negative_divisor(self, e1):
        with pytest.raises(ValidationFailed):
            serre_pairing(e1, {2: -1})


class TestCompletion:
    def test_first_stage(self, e1):
        comp = completion(e1, 1)
        assert comp.dim == 1
        assert comp.action_matrix().entries == ((Q(0),),)

    def test_stage_three_shift(self, e1):
        action = completion(e1, 3).action_matrix()
        assert action.entries == (
            (Q(0), Q(0), Q(0)),
            (Q(1), Q(0), Q(0)),
            (Q(0), Q(1), Q(0)),
        )
        assert matrix_rank(action) == 2

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_nilpotent_of_exact_order(self, e1, k):
        action = completion(e1, k).action_matrix()
        assert matrix_rank(action) == k - 1
        assert any(c != 0 for row in _mat_pow(action, k - 1).entries for c in row)
        assert all(c == 0 for row in _mat_pow(action, k).entries for c in row)

    def test_coords_and_roundtrip(self, e1):
        comp = completion(e1, 4)
        base = e1.cache.coordinate.base
        assert comp.coords(e1.curve.one()) == [Q(1), Q(0), Q(0), Q(0)]
        assert comp.coords(base * base + base) == [Q(0), Q(1), Q(1), Q(0)]
        vec = [Q(2), Q(0), Q(-1), Q(3)]
        assert comp.coords(comp.element(vec)) == vec

    def test_regular_value_of_an_even_function(self, e1):
        # x*t^2 = x^3/y^2 takes the value 1 at the identity on this curve
        comp = completion(e1, 2)
        base = e1.cache.coordinate.base
        f = e1.curve.x() * base * base
        assert comp.coords(f)[0] == Q(1)

    def test_pole_refused(self, e1):
        comp = completion(e1, 3)
        with pytest.raises(UnsupportedPoles):
            comp.coords(e1.cache.coordinate.base.inverse())

    def test_stage_bounds(self, e1):
        with pytest.raises(ValueError):
            completion(e1, 0)

    def test_scaled_coordinate_stays_triangular(self):
        curve = WeierstrassCurve(-1, 0)
        th = build_ea(curve, Coordinate(curve, scale=Q(1, 3)))
        action = completion(th, 3).action_matrix()
        assert action.entries == (
            (Q(0), Q(0), Q(0)),
            (Q(1), Q(0), Q(0)),
            (Q(0), Q(1), Q(0)),
        )


class TestLocalCohomology:
    def test_two_torsion_stage_one(self, e1):
        lc = local_cohomology(e1, {2}, 1)
        assert lc.dim == 4
        assert lc.classes == (1, 2)
        assert lc.report() == {
            "pi": [2], "a": 1, "classes": [1, 2], "dim": 4, "degree": "odd",
        }

    def test_two_torsion_stage_two(self, e1):
        assert local_cohomology(e1, {2}, 2).dim == 8

    def test_identity_only(self, e1):
        assert local_cohomology(e1, {1}, 3).dim == 3

    def test_family(self, e1):
        # orders 2 and 3 cover classes 1, 2, 3: 1 + 3 + 8 points
        assert local_cohomology(e1, {2, 3}, 1).dim == 12

    def test_reps_have_the_right_count(self, e1):
        lc = local_cohomology(e1, {2}, 1)
        assert len(lc.reps()) == 4

    def test_validation(self, e1):
        with pytest.raises(ValidationFailed):
            local_cohomology(e1, set(), 1)
        with pytest.raises(ValidationFailed):
            local_cohomology(e1, {2}, 0)


class TestLocalizationVertex:
    def test_capped_identity(self, e1):
        basis = localization_vertex(e1, 2, {1: 2})
        assert [g.text() for g in basis] == ["([1]; []; [1])", "([0, 1]; []; [1])"]

    def test_weighted_unit(self, e1):
        basis = localization_vertex(e1, 2, {}, weight=1)
        assert [g.text() for g in basis] == ["Dt"]

    def test_cap_outside_subgroup(self, e1):
        with pytest.raises(ValidationFailed):
            localization_vertex(e1, 2, {3: 1})

    def test_negative_cap(self, e1):
        with pytest.raises(ValidationFailed):
            localization_vertex(e1, 2, {1: -1})


class TestProductCheck:
    def test_passes_on_both_curves(self, e1, e2):
        assert product_check(e1) == {
            "classes": [1, 2, 3], "depth": 2, "pairs": 27, "ok": True,
        }
        assert product_check(e2, depth=1)["ok"]


class TestStabilization:
    def test_stable_value(self, e1):
        result = stable_sphere_homology(e1, {2: 1}, {1: 1, 2: 1})
        assert result.value == (4, 0)
        assert result.caps == {1: 1, 2: 1}
        assert result.certificate["certified"]

    def test_undersized_probe_raises(self, e1):
        # dims would sit still at these caps, but no certificate exists,
        # so the protocol must refuse rather than return a wrong number
        with pytest.raises(CapTooSmall):
            stable_sphere_homology(e1, {3: 2}, {1: 2})


class TestRepToDivisor:
    def test_weight_classes(self):
        assert rep_to_divisor({1: 1}) == TorsionDivisor({1: 1})
        assert rep_to_divisor({2: 1}) == TorsionDivisor({1: 1, 2: 1})
        assert rep_to_divisor({6: 1}) == TorsionDivisor({1: 1, 2: 1, 3: 1, 6: 1})

    def test_virtual_cancellation(self):
        assert rep_to_divisor({1: 1, 2: -1}) == TorsionDivisor({2: -1})

    def test_trivial_summand_dropped(self):
        assert rep_to_divisor(Representation({1: 1}, fixed_part=3)) == TorsionDivisor({1: 1})


class TestSuspensionAgreement:
    def test_suspending_the_base_object(self, e1):
        # suspension by z^2 must present the same window as the sphere
        hom = suspend(e1.base_object, dim_fn({2: 1})).q_window()
        h = sphere_homology(e1, {2: 1})
        assert hom.hom_dim == h.h0
        assert [hom.kernel_element(k).text() for k in range(hom.hom_dim)] == [
            g.fn.text() for g in h.h0_basis()
        ]


class TestGradedFn:
    def test_arithmetic(self, e1):
        x = GradedFn(e1.curve.x(), 1)
        y = GradedFn(e1.curve.y(), 2)
        assert (x * y).weight == 3
        assert (x * y).fn == e1.curve.x() * e1.curve.y()
        assert (x + x).fn == e1.curve.x() * 2
        assert (x - x).is_zero()
        assert (3 * x).fn == e1.curve.x() * 3

    def test_weight_mismatch_refused(self, e1):
        x = GradedFn(e1.curve.x(), 1)
        y = GradedFn(e1.curve.y(), 2)
        with pytest.raises(ValueError):
            x + y

    def test_zero_absorbs_any_weight(self, e1):
        zero = GradedFn(e1.curve.zero(), 5)
        x = GradedFn(e1.curve.x(), 1)
        assert (zero + x).weight == 1

    def test_text_rules(self, e1):
        one = e1.curve.one()
        assert GradedFn(one, 0).text() == "([1]; []; [1])"
        assert GradedFn(one, 1).text() == "Dt"
        assert GradedFn(one, -2).text() == "Dt^-2"
        assert GradedFn(one * 2, 1).text() == "([2]; []; [1]) * Dt"

    def test_immutable(self, e1):
        g = GradedFn(e1.curve.one(), 1)
        with pytest.raises(AttributeError):
            g.weight = 2


class TestTorsionClass:
    def test_zero_detection(self):
        assert TorsionClass(2, 1, 0, [0, 0, 0]).is_zero()
        assert not TorsionClass(2, 1, 0, [0, 1, 0]).is_zero()

    def test_equality_includes_the_weight(self):
        a = TorsionClass(2, 1, 0, [1, 0, 0])
        b = TorsionClass(2, 1, 1, [1, 0, 0])
        assert a != b
        assert a == TorsionClass(2, 1, 0, [Q(1), Q(0), Q(0)])

    def test_text(self):
        cls = TorsionClass(3, 1, -1, [Q(1, 2)] + [Q(0)] * 7)
        assert cls.text().startswith("class 3 depth 1 weight -1: [1/2, ")


@pytest.fixture(scope="module")
def e1_scaled():
    curve = WeierstrassCurve(-1, 0)
    return build_ea(curve, Coordinate(curve, scale=Q(2)))


class TestFrameAssembly:
    """Blocks assembled in the monomial frame against canonical products,
    read by the rational reference ladder and sweep."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["e1", "e2", "scaled"]),
        st.dictionaries(st.integers(min_value=1, max_value=4),
                        st.integers(min_value=-2, max_value=2), max_size=3),
        st.dictionaries(st.integers(min_value=1, max_value=4),
                        st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
    )
    def test_blocks_match_the_product_path(self, e1, e2, e1_scaled, which, exp, caps):
        """Twice on one backend: the second assembly reads every multiplier
        from the memo, and memo hits must match the product path too."""
        theory = {"e1": e1, "e2": e2, "scaled": e1_scaled}[which]
        curve = theory.curve
        first = {}
        for _ in range(2):
            ctx = theory.backend.setup(exp, caps)
            for s, _, rows in ctx.blocks:
                win, mult = ctx._block(s)
                assert first.setdefault(s, mult) is mult
                product = product_multiplier(ctx, s, win)
                assert mult == _ladder_ints(product, 3)
                reference = reference_reducers(win)
                columns = [
                    reference_sweep(reference, reference_ladder_frames(
                        monomial(curve, k) * product, 1, win.frame_dim)[0])
                    for k in range(ctx.source_dim)
                ]
                assert rational_rows(*ctx.block_matrix(s)) == Matrix(tuple(zip(*columns))).entries

    def test_an_impure_multiplier_is_refused_and_not_stored(self):
        backend = build_ea((-1, 0)).backend
        stored = dict(backend._multipliers)
        # 1/t_2 has its poles on A[2]; t_e = x/y on the 2-torsion too
        for s, w, exps in ((2, 0, {2: -1}), (1, 1, {})):
            for _ in range(2):
                with pytest.raises(ValidationFailed, match="poles only at e"):
                    backend.multiplier(s, w, exps)
        assert backend._multipliers == stored

    def test_warm_assembly_makes_no_function_field_products(self, monkeypatch):
        theory = build_ea((-1, 0))
        weights, caps = {1: 1, 2: -1, 3: 1}, {1: 2, 2: 1, 3: 2, 4: 1}
        theory.window(weights, caps)
        ctx = theory.window(weights, caps).ctx  # window memo and t* warm
        section = sections(theory.cache, {1: 1}, OpenSet([2, 3]), 2)
        target = section.allowed + TorsionDivisor({1: 2, 3: 1})
        section.frame_rows(target)  # warms t*(target - allowed)
        products = []
        original = FuncElt.__mul__

        def counted(self, other):
            products.append(1)
            return original(self, other)

        monkeypatch.setattr(FuncElt, "__mul__", counted)
        assert all(len(ctx.block_matrix(s)[1]) == rows for s, _, rows in ctx.blocks)
        assert len(ctx.blocks) == 4 and products == []
        assert len(section.frame_rows(target)) == section.dim and products == []
        # another weight with the same twist at e: a new assembly whose
        # class-1 block shares (s, w, exps), so its multiplier t_e * t*(...)
        # comes from the memo, not from a product
        other = theory.backend.setup({**ctx.exp, 3: ctx.exp[3] + 1}, caps)
        assert other.exp[1] == ctx.exp[1] == 1
        assert len(other.block_matrix(1)[1]) == ctx.blocks[0][2] and products == []
        assert other._block(1)[1] is ctx._block(1)[1]

    def test_warm_window_builds_no_public_matrix(self, monkeypatch):
        theory = build_ea((-1, 0))
        weights, caps = {1: 1, 2: -1, 3: 1}, {1: 2, 2: 1, 3: 2, 4: 1}
        theory.window(weights, caps)  # window memo and t* warm
        built = []
        original = Matrix.__init__

        def counted(self, entries):
            built.append(1)
            original(self, entries)

        monkeypatch.setattr(Matrix, "__init__", counted)
        win = theory.window(weights, caps)
        surjective = [win.block_surjective(s) for s, *_ in win.blocks]
        uncovered = win.uncovered_rows()
        assert built == [] and len(surjective) == 4 and len(uncovered) == win.ext_dim
        assert win.matrix.rows == win.total_rows and built == [1]  # public, on demand
        assert win.matrix is win.matrix and built == [1]
