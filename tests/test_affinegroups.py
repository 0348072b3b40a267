"""Multiplicative and additive degenerations: cyclotomic factors and spheres."""

import pytest
from hypothesis import given, strategies as st

from ellt.errors import CapTooSmall, ValidationFailed
from ellt.exactcore import Poly, Q
from ellt.affinegroups import (
    AffineGroup,
    LaurentFn,
    additive_group,
    affine_sphere_module,
    multiplicative_group,
)
from ellt.tmodel import (
    Representation,
    SphereObject,
    dim_fn,
    stabilize,
    suspend,
)


@pytest.fixture(scope="module")
def gm():
    return multiplicative_group()


@pytest.fixture(scope="module")
def ga():
    return additive_group()


class TestCyclotomicRecursion:
    def test_products_recover_the_n_series(self, gm, ga):
        for group in (gm, ga):
            for n in range(1, 13):
                prod = Poly([1])
                for d in range(1, n + 1):
                    if n % d == 0:
                        prod = prod * group.phi(d)
                assert prod == group.n_series(n), (group.kind, n)

    def test_multiplicative_factors_are_classical(self, gm):
        assert gm.phi(1) == Poly([1, -1])  # 1 - z
        assert gm.phi(2) == Poly([1, 1])
        assert gm.phi(3) == Poly([1, 1, 1])
        assert gm.phi(4) == Poly([1, 0, 1])
        assert gm.phi(6) == Poly([1, -1, 1])
        assert gm.phi(12) == Poly([1, 0, -1, 0, 1])

    def test_multiplicative_class_sizes_are_totients(self, gm):
        sizes = {s: gm.class_size(s) for s in (1, 2, 3, 4, 5, 6, 8, 12)}
        assert sizes == {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}

    def test_additive_factors_are_constant_past_the_identity(self, ga):
        assert ga.phi(1) == Poly([0, 1])  # the coordinate x itself
        expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 1, 7: 7, 8: 2, 9: 3, 12: 1}
        for s, c in expected.items():
            assert ga.phi(s) == Poly([c]), s
            assert ga.class_size(s) == 0

    def test_n_series_validation(self, gm):
        with pytest.raises(ValueError):
            gm.n_series(0)
        with pytest.raises(ValueError):
            gm.phi(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AffineGroup("formal")


class TestLaurentFn:
    def test_canonical_form(self):
        fn = LaurentFn(Poly([2, 2]), Poly([0, -2]))
        # (2 + 2z) / (-2z) reduces with a monic denominator
        assert fn.den == Poly([0, 1])
        assert fn.num == Poly([-1, -1])

    def test_gcd_reduction(self):
        fn = LaurentFn(Poly([0, 1, 1]), Poly([0, 1]))  # z(1+z)/z
        assert fn.is_polynomial() and fn.num == Poly([1, 1])

    def test_zero(self):
        assert LaurentFn(Poly()).is_zero()
        with pytest.raises(ZeroDivisionError):
            LaurentFn(Poly([1]), Poly())
        with pytest.raises(ZeroDivisionError):
            LaurentFn(Poly()).inverse()

    def test_arithmetic(self):
        a = LaurentFn(Poly([1]), Poly([1, 1]))
        b = LaurentFn(Poly([1]), Poly([-1, 1]))
        total = a + b
        assert total == LaurentFn(Poly([0, 2]), Poly([-1, 0, 1]))
        assert a * b == LaurentFn(Poly([1]), Poly([-1, 0, 1]))
        assert a - a == LaurentFn(Poly())
        assert (a / b) == LaurentFn(Poly([-1, 1]), Poly([1, 1]))

    def test_scalar_mixing(self):
        a = LaurentFn(Poly([0, 1]))
        assert a + 1 == LaurentFn(Poly([1, 1]))
        assert 2 * a == LaurentFn(Poly([0, 2]))
        assert 1 - a == LaurentFn(Poly([1, -1]))
        assert a == Poly([0, 1])

    def test_powers(self):
        a = LaurentFn(Poly([0, 1]), Poly([1, 1]))
        assert a ** 0 == LaurentFn(Poly([1]))
        assert a ** 3 == LaurentFn(Poly([0, 0, 0, 1]), Poly([1, 3, 3, 1]))
        assert a ** -2 == LaurentFn(Poly([1, 2, 1]), Poly([0, 0, 1]))

    def test_text_and_parse(self):
        fn = LaurentFn(Poly([1, 2]), Poly([0, 0, 3]))
        assert fn.text() == "[1/3, 2/3] / [0, 0, 1]"


@given(
    num=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    den=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_laurent_fn_times_inverse_is_one(num, den):
    n, d = Poly(num), Poly(den)
    if n.is_zero() or d.is_zero():
        return
    fn = LaurentFn(n, d)
    assert fn * fn.inverse() == LaurentFn(Poly([1]))


class TestEulerClasses:
    def test_weight_n_oracles(self, gm, ga):
        assert gm.euler_class({1: 1}) == LaurentFn(Poly([1, -1]))
        assert gm.euler_class({3: 1}) == LaurentFn(Poly([1, 0, 0, -1]))
        assert ga.euler_class({1: 1}) == LaurentFn(Poly([0, 1]))
        assert ga.euler_class({3: 1}) == LaurentFn(Poly([0, 3]))

    def test_multiplicative_over_sums(self, gm):
        both = gm.euler_class({1: 1, 2: 2})
        split = gm.euler_class({1: 1}) * gm.euler_class({2: 1}) ** 2
        assert both == split

    def test_virtual_weights_move_to_the_denominator(self, gm):
        fn = gm.euler_class({2: -1})
        assert fn == LaurentFn(Poly([1]), Poly([1, 0, -1]))

    def test_fixed_part_kills_the_class(self, gm):
        assert gm.euler_class(Representation({1: 1}, fixed_part=1)).is_zero()

    def test_floats_are_refused_not_truncated(self, gm, ga):
        # {1: 1.9} once read as z and {2.7: 1} as z^2
        for group in (gm, ga):
            for weights in ({1: 1.9}, {2.7: 1}, {1: Q(3, 2)}):
                with pytest.raises(TypeError):
                    group.euler_class(weights)
            with pytest.raises(TypeError):
                affine_sphere_module(group, {1: 1.9})
        assert gm.euler_class({"2": 1}) == gm.euler_class({2: 1})


class TestSphereModules:
    def test_generators_are_inverse_euler_classes(self, gm):
        rep = Representation({1: 1, 2: 1})
        chi = gm.euler_class(rep)
        assert affine_sphere_module(gm, rep, sign=1).generator == chi.inverse()
        assert affine_sphere_module(gm, rep, sign=-1).generator == chi

    def test_odd_part_vanishes(self, gm, ga):
        for group in (gm, ga):
            module = affine_sphere_module(group, {2: 1})
            assert module.odd_dim == 0 and module.rank == 1

    def test_fixed_part_is_refused(self, gm):
        with pytest.raises(ValidationFailed):
            affine_sphere_module(gm, Representation({1: 1}, fixed_part=1))

    def test_sign_validation(self, gm):
        with pytest.raises(ValueError):
            affine_sphere_module(gm, {1: 1}, sign=0)


class TestMultiplicativeWindows:
    def test_weight_one_sphere_report(self, gm):
        win = SphereObject(gm, Representation({1: 1})).q_window()
        assert win.report() == {
            "w": {"tail": 0, "dev": {"1": 1}},
            "caps": {"1": 1},
            "hom_dim": 6,
            "ext_dim": 0,
            "certified": True,
        }

    def test_kernel_is_a_window_of_chi_inverse_multiples(self, gm):
        rep = Representation({1: 1, 2: 2})
        chi = gm.euler_class(rep)
        hom = SphereObject(gm, rep).q_window(caps={1: 4, 2: 3})
        assert hom.hom_dim == 9 + 3 + 2  # floor plus sum of w(s) * deg phi_s
        for k in range(hom.hom_dim):
            assert (hom.kernel_element(k) * chi).is_polynomial()

    def test_generator_survives_with_live_blocks(self, gm):
        rep = Representation({1: 1})
        sph = SphereObject(gm, rep)
        win = sph.q_window(caps={1: 2})
        assert win.total_rows == 1 and win.hom_dim == 6
        chi = gm.euler_class(rep)
        # chi^(-1) = (Phi_c / chi) / Phi_c, so its vertex coordinates are
        # the coefficients of the complementary polynomial
        f = win.ctx.denominator // chi.num
        coords = [f.coeff(i) for i in range(win.source_dim)]
        assert all(sum(a * b for a, b in zip(row, coords)) == 0
                   for row in win.matrix.entries)

    def test_kernel_dimension_is_cap_independent(self, gm):
        sph = SphereObject(gm, Representation({1: 1, 2: 2}))
        dims = set()
        for bump in range(3):
            win = sph.q_window(caps={1: 3 + bump, 2: 2 + bump})
            assert win.certified
            dims.add((win.hom_dim, win.ext_dim))
        assert dims == {(14, 0)}

    def test_blocks_are_surjective(self, gm):
        win = SphereObject(gm, Representation({1: 1, 2: 2})).q_window(
            caps={1: 4, 2: 3}
        )
        assert win.block_surjective(1) and win.block_surjective(2)

    def test_negative_sphere(self, gm):
        win = SphereObject(gm, dim_fn({1: -1})).q_window(caps={1: 1})
        assert win.certified
        assert win.hom_dim == 4 and win.ext_dim == 0

    def test_odd_groups_vanish_across_samples(self, gm):
        samples = [
            dim_fn({1: 1}),
            dim_fn({2: 1}),
            dim_fn({1: -1}),
            dim_fn({1: 1, 3: 1}),
            dim_fn({2: -1, 4: 1}),
        ]
        for w in samples:
            exp = w.exponent_map()
            caps = {s: max(v, 0) + 1 for s, v in exp.items()}
            win = SphereObject(gm, w).q_window(caps=caps)
            assert win.certified and win.ext_dim == 0, w.text()

    def test_missing_cap_is_not_certified(self, gm):
        sph = SphereObject(gm, Representation({1: 1, 2: 2}))
        win = sph.q_window(caps={1: 4})
        assert not win.certified
        with pytest.raises(CapTooSmall):
            stabilize(
                lambda caps: (
                    sph.q_window(caps=caps).hom_dim,
                    sph.q_window(caps=caps).certified,
                ),
                {1: 4},
            )

    def test_stabilize_happy_path(self, gm):
        sph = SphereObject(gm, Representation({1: 1, 2: 2}))

        def ev(caps):
            win = sph.q_window(caps=caps)
            return (win.hom_dim, win.ext_dim), win.certified

        result = stabilize(ev, {1: 3, 2: 2})
        assert result.value == (14, 0)

    def test_suspension_matches_direct_sphere(self, gm):
        direct = SphereObject(gm, Representation({1: 2}))
        stepped = suspend(SphereObject(gm, Representation({1: 1})), dim_fn({1: 1}))
        caps = {1: 3}
        assert stepped.q_window(caps=caps).report() == direct.q_window(caps=caps).report()


class TestAdditiveWindows:
    def test_only_the_identity_class_carries_blocks(self, ga):
        win = SphereObject(ga, Representation({2: 1})).q_window(caps={1: 2})
        # exponent is {1: 1, 2: 1} but class 2 has size zero
        assert [b[0] for b in win.blocks] == [1]
        assert win.certified

    def test_kernel_window_tracks_the_euler_class(self, ga):
        rep = Representation({2: 1})
        chi = ga.euler_class(rep)  # 2x
        hom = SphereObject(ga, rep).q_window(caps={1: 3})
        for k in range(hom.hom_dim):
            assert (hom.kernel_element(k) * chi).is_polynomial()
        assert hom.hom_dim == 5 + 1  # floor(|w|deg + 4) + w(1)

    def test_ext_vanishes(self, ga):
        assert SphereObject(ga, Representation({3: 2})).q_window(caps={1: 4}).ext_dim == 0
