
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellt.errors import (
    DepthExceeded,
    UnsupportedPoles,
    ValidationFailed,
)
from ellt.eatheory import EATheory, EllipticGroupData
from ellt.exactcore import Poly, Q, parse_poly, poly_gcd
from ellt.tmodel import EulerClassSymbol
from ellt.curvefield import (
    Coordinate,
    CycCache,
    FuncElt,
    QuotientWindow,
    TorsionDivisor,
    WeierstrassCurve,
    divisors_of,
    exact_order_count,
    expand_at_e,
    h_dims,
    ladder_frames,
    monomial,
    residue_along,
    residue_at_e,
    single_class,
    trace_residues,
)
from ladder_reference import (
    frame_element,
    outcome as _outcome,
    reference_ladder_frames,
    scaled_rows,
)
from valuation_reference import membership

E1 = WeierstrassCurve(-1, 0)  # y^2 = x^3 - x
E2 = WeierstrassCurve(0, 1)   # y^2 = x^3 + 1
E3 = WeierstrassCurve(Q(1, 4), -2)

small_poly = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4
).map(Poly)
unit_poly = small_poly.filter(lambda p: not p.is_zero())
# constant denominators (the pure fast path) as often as general ones
denominator_poly = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=3)
    .filter(lambda c: c != 0).map(Poly.const),
    unit_poly,
)


def reference_canonical(u, v, d):
    """Canonical (u, v, d) by the full gcd path, whatever the degree of d."""
    g = poly_gcd(poly_gcd(u, v), d)
    if g.degree > 0:
        u, v, d = u // g, v // g, d // g
    inv = 1 / d.leading()
    return u.scale(inv), v.scale(inv), d.monic()


@pytest.fixture(scope="module")
def cache1():
    return CycCache(E1)


@pytest.fixture(scope="module")
def cache2():
    return CycCache(E2)


@pytest.fixture(scope="module")
def cache1_scaled():
    # reducers on this coordinate have leads other than 1
    return CycCache(E1, Coordinate(E1, scale=2))


class TestTorsionCounting:
    def test_exact_order_counts(self):
        assert [exact_order_count(s) for s in (1, 2, 3, 4)] == [1, 3, 8, 12]

    def test_counts_partition_full_torsion(self):
        # the classes of exact order s dividing n partition the n^2 points
        for n in range(1, 13):
            assert sum(exact_order_count(s) for s in divisors_of(n)) == n * n


class TestTorsionDivisor:
    def test_degree_weights_by_class_size(self):
        d = TorsionDivisor({1: 2, 2: 1, 3: -1})
        assert d.degree == 2 + 3 - 8

    def test_arithmetic(self):
        a = single_class(2) + single_class(3, 2)
        b = a - single_class(3, 2)
        assert b == single_class(2)
        assert a.scale(-1).coefficient(3) == -2

    def test_zero_entries_dropped(self):
        assert TorsionDivisor({5: 0}) == TorsionDivisor()
        assert not TorsionDivisor({2: -1}).is_effective()

    def test_payload_is_the_report_form(self):
        # classes ascending as decimal text, zero multiplicities dropped
        payload = TorsionDivisor({3: 1, 1: 0, 2: -2}).payload()
        assert list(payload.items()) == [("2", -2), ("3", 1)]
        assert TorsionDivisor().payload() == {}


class TestCurveAndElements:
    def test_singular_curve_rejected(self):
        with pytest.raises(ValidationFailed):
            WeierstrassCurve(0, 0)

    def test_ord_at_identity(self):
        assert E1.x().ord_e() == -2
        assert E1.y().ord_e() == -3
        assert (E1.x() / E1.y()).ord_e() == 1

    def test_curve_relation(self):
        x, y = E1.x(), E1.y()
        assert y * y == x ** 3 - x

    def test_inverse_roundtrip(self):
        f = (E1.x() + E1.y() * 3 - 2) / (E1.x() ** 2 - 5)
        assert f * f.inverse() == E1.one()

    def test_canonical_form_reduces(self):
        # (x*y) / (x) collapses to y with monic denominator
        f = FuncElt(E1, Poly(), Poly((0, 2)), Poly((0, 2)))
        assert f == E1.y()

    @settings(max_examples=150, deadline=None)
    @given(small_poly, small_poly, denominator_poly, st.one_of(st.just(Poly.const(1)), unit_poly))
    def test_canonical_form_matches_full_gcd_path(self, u, v, d, common):
        # a shared factor across u, v and d must cancel; a constant d
        # skips the gcd, so it is compared against the full path
        u, v, d = u * common, v * common, d * common
        f = FuncElt(E1, u, v, d)
        assert (f.u, f.v, f.d) == reference_canonical(u, v, d)
        if f.is_zero():
            assert f.text() == "([]; []; [1])"

    def test_ord_additive_on_samples(self, cache1):
        samples = [E1.x(), E1.y(), E1.x() / E1.y(), cache1.t(3),
                   E1.one() * Q(7, 3), (E1.x() + 1).inverse()]
        for f in samples:
            for g in samples:
                assert (f * g).ord_e() == f.ord_e() + g.ord_e()


class TestExpansion:
    def test_chart_leading_terms(self):
        xs = expand_at_e(E1.x(), 3)
        ys = expand_at_e(E1.y(), 3)
        assert xs.valuation == -2 and xs.coeff(-2) == 1
        assert ys.valuation == -3 and ys.coeff(-3) == 1
        te = expand_at_e(E1.x() / E1.y(), 5)
        assert te.valuation == 1 and te.coeff(1) == 1
        # t = x/y is the chart parameter itself: no higher terms at all
        assert all(te.coeff(k) == 0 for k in range(2, 6))

    def test_series_satisfy_curve(self):
        xs = expand_at_e(E1.x(), 8)
        ys = expand_at_e(E1.y(), 8)
        diff = ys * ys - (xs * xs * xs - xs)
        assert diff.is_zero_to_precision()

    @settings(max_examples=40, deadline=None)
    @given(small_poly, small_poly, denominator_poly, st.booleans())
    def test_memoised_chart_matches_fresh_expansion(self, u, v, d, rising):
        # the chart memo keeps its widest series and truncates, so the
        # order in which precisions arrive must not change any answer
        f = FuncElt(E2, u, v, d)
        if f.is_zero():
            return
        cache = CycCache(E2)
        precisions = [1, 4, 7] if rising else [7, 4, 1]
        for prec in precisions:
            assert cache.expand(f, prec) == expand_at_e(f, prec)

    def test_expand_rejects_a_foreign_curve(self, cache1):
        with pytest.raises(ValueError):
            cache1.expand(E2.x(), 3)

    def test_expansion_matches_valuation(self, cache2):
        f = cache2.t(3)
        s = expand_at_e(f, 4)
        assert s.exact_valuation() == f.ord_e() == -8


class TestDivisionPolys:
    def test_small_psi_on_e1(self, cache1):
        assert cache1.psi(1) == E1.one()
        assert cache1.psi(2) == E1.y() * 2
        p3 = cache1.psi(3)
        assert p3.v.is_zero() and p3.d.degree == 0
        assert p3.u.text() == "[-1, 0, -6, 0, 3]"

    @pytest.mark.parametrize("curve", [E1, E2])
    def test_pole_order_counts_torsion(self, curve):
        cache = CycCache(curve)
        for n in range(1, 7):
            if n == 1:
                assert cache.psi(1).is_constant()
            else:
                assert cache.psi(n).ord_e() == -(n * n - 1)

    @pytest.mark.parametrize("curve", [E1, E2])
    def test_primitive_factorisation(self, curve):
        # psi_n splits into the cyclotomic functions of the dividing
        # orders; the scalar left over is the leading coefficient n
        cache = CycCache(curve)
        for n in range(2, 7):
            prod = curve.one()
            for s in divisors_of(n):
                if s > 1:
                    prod = prod * cache.t(s)
            ratio = cache.psi(n) / prod
            assert ratio.is_constant()
            assert ratio.constant_value() == n

    def test_vanishing_at_torsion_numerically(self, cache1):
        numpy = pytest.importorskip("numpy")
        for n in (2, 3, 4):
            psi = cache1.psi(n)
            for s in divisors_of(n):
                if s < 2:
                    continue
                marker = cache1.class_poly(s)
                coeffs = [float(marker.coeff(k)) for k in range(marker.degree, -1, -1)]
                def ev(p, z):
                    acc = 0j
                    for c in reversed(p.coeffs):
                        acc = acc * z + complex(c)
                    return acc

                for x0 in numpy.roots(coeffs):
                    y0 = numpy.sqrt(complex(x0) ** 3 - complex(x0))
                    val = (ev(psi.u, x0) + ev(psi.v, x0) * y0) / ev(psi.d, x0)
                    assert abs(val) < 1e-9


class TestCyclotomicFunctions:
    def test_t2_is_y(self, cache1, cache2):
        assert cache1.t(2) == E1.y()
        assert cache2.t(2) == E2.y()

    def test_t3_on_e1(self, cache1):
        assert cache1.t(3) == cache1.psi(3) * Q(1, 3)
        assert cache1.t(3).u.text() == "[-1/3, 0, -2, 0, 1]"

    def test_shape(self, cache1):
        for s in range(2, 7):
            ts = cache1.t(s)
            assert ts.is_pure()
            assert ts.ord_e() == -exact_order_count(s)
            if s == 2:
                assert ts.u.is_zero() and ts.v.degree == 0
            else:
                assert ts.v.is_zero()

    def test_normalisation_constant(self, cache2):
        # t_e^{|A<s>|} t_s takes the value 1 at the identity
        base = cache2.coordinate.base
        for s in (2, 3, 4):
            m = exact_order_count(s)
            series = expand_at_e(base, 2) ** m * expand_at_e(cache2.t(s), 2)
            assert series.exact_valuation() == 0
            assert series.coeff(0) == 1

    @pytest.mark.parametrize("lam", [Q(2), Q(-3)])
    def test_scaling_law(self, cache1, lam):
        # rescaling the coordinate by lambda rescales t_s by
        # lambda^{-|A<s>|}: the reciprocal power is pinned by the
        # value-1 normalisation of t_e^{|A<s>|} t_s
        scaled = CycCache(E1, Coordinate(E1, scale=lam))
        for s in (2, 3):
            m = exact_order_count(s)
            assert scaled.t(s) == cache1.t(s) * lam ** -m

    def test_reparameterisation_invariance(self, cache1):
        # replacing t_e by t_e + f t_e^2 (any f regular at e) leaves the
        # normalisation constant alone, hence t_s itself: checked at
        # series level for s = 2, 3
        base = cache1.coordinate.base
        for f in (E1.one(), base, E1.x() * base ** 2):
            reparam = base + f * base ** 2
            for s in (2, 3):
                m = exact_order_count(s)
                series = expand_at_e(reparam, 2) ** m * expand_at_e(cache1.t(s), 2)
                assert series.exact_valuation() == 0
                assert series.coeff(0) == 1


divisor_strategy = st.dictionaries(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=-2, max_value=2),
    max_size=3,
)


class TestTStar:
    def test_skips_identity_class(self, cache1):
        assert cache1.t_star(TorsionDivisor({1: 5})) == E1.one()

    @settings(max_examples=25, deadline=None)
    @given(divisor_strategy, divisor_strategy)
    def test_multiplicative(self, d1, d2):
        cache = CycCache(E1)
        a, b = TorsionDivisor(d1), TorsionDivisor(d2)
        assert cache.t_star(a + b) == cache.t_star(a) * cache.t_star(b)


class TestRiemannRochWindows:
    def test_full_two_torsion_basis(self, cache1):
        x, y = E1.x(), E1.y()
        basis = cache1.rr_basis(TorsionDivisor({1: 1, 2: 1}))
        assert basis == [y.inverse(), x / y, E1.one(), x * x / y]

    def test_degree_zero_is_shifted_constant(self, cache1):
        d = TorsionDivisor({2: 1, 1: -3})
        assert d.degree == 0
        assert cache1.rr_basis(d) == [E1.y().inverse()]

    def test_negative_degree_empty(self, cache1):
        assert cache1.rr_basis(TorsionDivisor({1: -1})) == []

    def test_basis_elements_belong(self, cache1):
        d = TorsionDivisor({1: 2, 3: 1})
        for f in cache1.rr_basis(d):
            assert membership(cache1, f, d)

    def test_h_dims(self):
        assert h_dims(TorsionDivisor({1: 1, 2: 1})) == (4, 0)
        assert h_dims(TorsionDivisor()) == (1, 1)
        assert h_dims(TorsionDivisor({2: -1})) == (0, 3)


class TestMembershipAndOrd:
    def test_membership_oracles(self, cache1):
        inv_y = E1.y().inverse()
        assert membership(cache1, inv_y, single_class(2))
        assert not membership(cache1, inv_y, TorsionDivisor())
        assert membership(cache1, E1.x(), TorsionDivisor({1: 2}))
        assert not membership(cache1, E1.x(), TorsionDivisor({1: 1}))

    def test_off_torsion_pole_rejected(self, cache1):
        stray = (E1.x() - 5).inverse()
        with pytest.raises(UnsupportedPoles):
            membership(cache1, stray, TorsionDivisor({1: 4}))

    def test_ord_along_oracles(self, cache1):
        t2 = cache1.t(2)
        assert cache1.ord_along(t2, 2) == 1
        assert cache1.ord_along(t2.inverse(), 2) == -1
        assert cache1.ord_along(E1.x(), 2) == 0
        assert cache1.ord_along(E1.x(), 1) == -2

    def test_ord_along_additive_samples(self, cache1):
        t2 = cache1.t(2)
        cases = [(t2 * t2, 2), (t2 * t2.inverse(), 0), (E1.x() * t2, 1)]
        for f, expected in cases:
            assert cache1.ord_along(f, 2) == expected


class TestResidues:
    def test_trace_residues_simple_poles(self):
        # dx/x against the marker x^3 - x sees only the pole at 0
        one = Poly((1,))
        x = Poly((0, 1))
        marker = parse_poly("[0, -1, 0, 1]")
        assert trace_residues(one, x, marker) == 1

    def test_trace_residues_double_pole(self):
        # (1/(x^2 (x-1))) dx: residue -1 at 0, +1 at 1
        den = Poly((0, 0, 1)) * Poly((-1, 1))
        one = Poly((1,))
        assert trace_residues(one, den, Poly((0, 1))) == -1
        assert trace_residues(one, den, Poly((-1, 1))) == 1
        assert trace_residues(one, den, parse_poly("[0, -1, 1]")) == 0

    def test_trace_residues_irreducible_marker(self):
        # dx/(x^2+1): residues at the two imaginary poles sum to zero,
        # and the trace sees them without leaving Q
        one = Poly((1,))
        quad = parse_poly("[1, 0, 1]")
        assert trace_residues(one, quad, quad) == 0
        # x dx/(x^2+1) has residue 1/2 at each pole
        assert trace_residues(Poly((0, 1)), quad, quad) == 1

    def test_residue_at_identity_oracles(self, cache1):
        te = cache1.coordinate.base
        assert residue_at_e(cache1, te.inverse()) == 1
        assert residue_at_e(cache1, E1.one()) == 0
        assert residue_at_e(cache1, E1.x()) == 0

    def test_residue_theorem_e1(self, cache1):
        # 1/t_e has poles at e and across the 2-torsion class only
        f = cache1.coordinate.base.inverse()
        parts = [residue_at_e(cache1, f)] + [residue_along(cache1, f, s) for s in (2, 3, 4)]
        assert parts[0] == 1
        assert parts[1] == -1
        assert sum(parts) == 0

    def test_residue_theorem_e2_galois_class(self, cache2):
        # on y^2 = x^3 + 1 the function 1/t_e = y/x has its finite poles
        # at (0, +-1), the order-3 points with x = 0; the class marker
        # x^4 + 4x is not split, so this exercises the trace for real
        f = cache2.coordinate.base.inverse()
        assert residue_at_e(cache2, f) == 1
        assert residue_along(cache2, f, 2) == 0
        assert residue_along(cache2, f, 3) == -1
        assert residue_at_e(cache2, f) + sum(residue_along(cache2, f, s) for s in (2, 3, 4)) == 0

    def test_class_sum_matches_identity_residue(self, cache1):
        # Dt/t_2 is regular away from the 2-torsion class, so the class
        # residue sum is forced to equal -res_e
        f = cache1.t(2).inverse()
        assert residue_along(cache1, f, 2) == -residue_at_e(cache1, f) == 0

    def test_even_functions_contribute_nothing(self, cache1):
        f = (E1.x() ** 2 - 3) * cache1.t(2).inverse() ** 2
        assert residue_along(cache1, f, 2) == 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_elements_of_another_curve_are_refused(self, cache1, s):
        # the curve is checked once, in the reader, for every class
        with pytest.raises(ValueError, match="different curve"):
            residue_along(cache1, E2.x().inverse(), s)

    def test_diff_factor_tracks_scale(self, cache1):
        assert cache1.diff_factor() == Q(-1, 2)
        scaled = CycCache(E1, Coordinate(E1, scale=2))
        assert scaled.diff_factor() == Q(-1)


class TestQuotientWindows:
    @pytest.mark.parametrize("s,depth", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)])
    def test_rep_coords_duality(self, cache1, s, depth):
        win = QuotientWindow(cache1, s, depth)
        assert win.block_size == depth * exact_order_count(s)
        for i in range(win.block_size):
            v = win.coords(win.rep(i))
            assert v[i] == 1
            assert sum(1 for c in v if c != 0) == 1

    def test_regular_elements_vanish(self, cache1):
        win = QuotientWindow(cache1, 2, 1, TorsionDivisor({1: 3}))
        def vanishes(f):
            return all(c == 0 for c in win.coords(f))
        assert vanishes(E1.x())
        assert vanishes(E1.y())
        assert not vanishes(cache1.t(2).inverse())

    def test_overflow_rejected(self, cache1):
        win = QuotientWindow(cache1, 2, 1)
        with pytest.raises(UnsupportedPoles):
            win.coords(cache1.t(2).inverse() ** 2)
        with pytest.raises(UnsupportedPoles):
            win.coords(cache1.t(3).inverse())

    def test_ladder_frames_of_a_pure_element(self):
        x, y = E1.x(), E1.y()
        f = x * x + y * 5 - 2
        assert ladder_frames(f, 1, 4) == (1, [[-2, 0, 5, 1]])
        assert ladder_frames(f * Q(1, 6), 1, 4) == (6, [[-2, 0, 5, 1]])
        assert monomial(E1, 0).pole_order_at_e() == 0
        assert [monomial(E1, k).pole_order_at_e() for k in (1, 2, 3, 4)] == [2, 3, 4, 5]
        assert monomial(E1, 4) == x * y


def _dense_sweep(win, vec):
    """The dense reducer sweep the window's sparse one replaces: reducers
    from canonical products, divided through by their leads in full."""
    curve = win.cache.curve
    sub_shift = win.cache.t(win.s) ** win.depth if win.s >= 2 else curve.one()
    reducers = {}
    for j in range(win.residual_dim):
        red = reference_ladder_frames(monomial(curve, j) * sub_shift, 1, win.frame_dim)[0]
        top = max(k for k, c in enumerate(red) if c != 0)
        reducers[top] = [c / red[top] for c in red]
    vec = list(vec)
    for top in sorted(reducers, reverse=True):
        c = vec[top]
        vec = [a - c * r for a, r in zip(vec, reducers[top])]
    return [vec[k] for k in range(win.frame_dim) if k not in reducers]


class TestFrameFastPath:
    """`ladder_frames` and the sparse reducers against the canonical
    `FuncElt` products they replace, read by the rational reference
    ladder."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([E1, E2, E3]), small_poly, small_poly,
           st.one_of(st.just(Poly.const(1)), unit_poly),
           st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=20))
    def test_ladder_matches_the_product_path(self, curve, u, v, d, count, dim):
        h = FuncElt(curve, u, v, d)
        expected = _outcome(lambda: scaled_rows(
            [reference_ladder_frames(monomial(curve, k) * h, 1, dim)[0] for k in range(count)]))
        assert _outcome(lambda: ladder_frames(h, count, dim)) == expected

    def test_ladder_refusals_name_the_overflowing_term(self):
        h = E1.x() + E1.y()
        # y * h = x^3 - x + x y: x^3 sits at slot 5
        assert _outcome(lambda: ladder_frames(h, 3, 5)) == (
            "ValueError", "x^3 overflows a frame of dimension 5")
        # x * h = x^2 + x y: x y sits at slot 4
        assert _outcome(lambda: ladder_frames(h, 2, 4)) == (
            "ValueError", "x^1 y overflows a frame of dimension 4")
        assert _outcome(lambda: ladder_frames(E1.x().inverse(), 1, 5)) == (
            "ValueError", "frame coordinates need a pure element")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, 2]), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=1),
           st.dictionaries(st.integers(min_value=1, max_value=4),
                           st.integers(min_value=0, max_value=2), max_size=2),
           st.data())
    def test_sparse_sweep_matches_a_dense_sweep(self, cache1, cache2, cache1_scaled,
                                                which, s, depth, base, others, data):
        cache = (cache1, cache2, cache1_scaled)[which]
        residual = TorsionDivisor({**others, s: base})
        win = QuotientWindow(cache, s, depth, residual)
        vec = data.draw(st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=win.frame_dim, max_size=win.frame_dim))
        assert win.coords(frame_element(win, vec)) == _dense_sweep(win, vec)


def reference_principal_part(cache, f, s, depth):
    """Principal parts with no backend: each depth-1 slice above `depth`
    is a window built directly over others + (level - 1) A<s>, and the
    result a window over others, where others is the pole support of f
    off the class s.  No window is memoised and no spot check runs."""
    if not isinstance(f, FuncElt):
        f = cache.curve.one() * f
    others = TorsionDivisor({r: n for r, n in cache.pole_support(f).items()
                             if r != s and n > 0})
    if f.is_zero():
        return [Q(0)] * (depth * exact_order_count(s))
    g = f
    for level in range(max(0, -cache._ord_along(f, s)), depth, -1):
        top_slice = QuotientWindow(cache, s, 1, others + single_class(s, level - 1))
        for i, c in enumerate(top_slice.coords(g)):
            if c != 0:
                g = g - top_slice.rep(i) * c
    return QuotientWindow(cache, s, depth, others).coords(g)


@pytest.fixture(scope="module")
def backend1(cache1):
    return EllipticGroupData(cache1)


@pytest.fixture(scope="module")
def theories():
    """Theories on the plain, a scaled and a custom coordinate (t_e =
    (y - x - 1)/x^2 on y^2 = x^3 + 1, with zeros and poles on the classes
    2, 3 and 6)."""
    custom = FuncElt(E2, Poly((-1, -1)), Poly((1,)), Poly((0, 0, 1)))
    return [EATheory(CycCache(E1)), EATheory(CycCache(E1, Coordinate(E1, scale=Q(-3, 2)))),
            EATheory(CycCache(E2, Coordinate(E2, base=custom)))]


class TestPrincipalParts:
    def test_depth_one_truncation_drops_double_pole(self, cache1, backend1):
        # the class of 1/t_2^2 at depth 1 equals that of its depth-1
        # truncation, which here is zero
        f = cache1.t(2).inverse() ** 2
        assert backend1.principal_part(f, 2, 1) == [Q(0)] * 3

    def test_split_keeps_shallow_tail(self, cache1, backend1):
        inv = cache1.t(2).inverse()
        mixed = inv ** 2 + inv
        assert backend1.principal_part(mixed, 2, 1) == backend1.principal_part(inv, 2, 1)
        assert backend1.principal_part(inv, 2, 1) == [Q(1), Q(0), Q(0)]

    def test_depth_two_window(self, cache1, backend1):
        f = cache1.t(2).inverse() ** 2
        assert backend1.principal_part(f, 2, 2) == [Q(1)] + [Q(0)] * 5

    def test_identity_class(self, cache1, backend1):
        te = cache1.coordinate.base
        assert backend1.principal_part(te.inverse() ** 2, 1, 2) == [Q(0), Q(1)]
        assert backend1.principal_part(E1.x(), 2, 1) == [Q(0)] * 3

    def test_depth_below_one_rejected(self, cache1, backend1):
        with pytest.raises(DepthExceeded):
            backend1.principal_part(cache1.t(2), 2, 0)

    def test_off_torsion_input_rejected(self, backend1):
        with pytest.raises(UnsupportedPoles):
            backend1.principal_part((E1.x() - 5).inverse(), 2, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2),
           st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=2),
           unit_poly, small_poly, st.integers(0, 2))
    def test_backend_matches_the_direct_windows(self, theories, which, s, depth, extra,
                                                others, u, v, w):
        # poles on the class up to two deeper than the depth, and on other
        # classes; x^n puts 2n poles at e.  Each slice subtracts canonical
        # products, so the pole divisor is kept to degree 30
        theory = theories[which]
        cache = theory.cache
        others = {r: n for r, n in others.items() if r != s}
        poles = TorsionDivisor({**others, s: depth + extra})
        assume(poles.degree <= 30)
        f = (FuncElt(cache.curve, u, v, Poly.const(1)) * cache.t_star(poles.scale(-1))
             * cache.curve.x() ** poles.coefficient(1))
        expected = reference_principal_part(cache, f, s, depth)
        assert theory.backend.principal_part(f, s, depth) == expected
        assert theory.q({}, f, s, depth).vector == tuple(expected)
        twisted = reference_principal_part(cache, f * theory.backend.twist(s, w), s, depth)
        assert theory.q(EulerClassSymbol({s: w}), f, s, depth).vector == tuple(twisted)


class TestCoordinate:
    def test_describe_default(self):
        desc = Coordinate(E1).describe()
        assert desc["form"] == "x/y"
        assert desc["scale"] == "1"

    def test_base_must_vanish_simply(self):
        with pytest.raises(ValidationFailed):
            Coordinate(E1, base=E1.x())

    def test_validate_default_coordinate(self, cache1):
        report = cache1.validate_coordinate()
        assert report["classes"] == [2]
        assert report["profile"] == {2: (1, 1)}

    def test_off_torsion_coordinate_rejected(self):
        base = E1.x() / E1.y()
        crooked = base + base ** 2
        cache = CycCache(E1, Coordinate(E1, base=crooked, validated_to=6))
        with pytest.raises(ValidationFailed):
            cache.validate_coordinate()
