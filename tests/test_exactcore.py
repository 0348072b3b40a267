import fractions
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt.errors import PrecisionExhausted, ZeroSeries
from ellt.exactcore import (
    LaurentSeries,
    Matrix,
    Poly,
    Q,
    kernel_and_image,
    matrix_rank,
    parse_poly,
    poly_gcd,
    qtext,
    rational,
    series_one,
    series_reciprocal,
)
from residue_reference import power_sums, squarefree_decomposition, trace_in_quotient


def P(*coeffs):
    return Poly(coeffs)


class TestRationalText:
    def test_integral_renders_bare(self):
        assert qtext(Q(4, 2)) == "2"

    def test_fraction_renders_slash(self):
        assert qtext(Q(-3, 4)) == "-3/4"

    def test_parse_roundtrip(self):
        for text in ["0", "7", "-7", "3/4", "-22/7"]:
            assert qtext(rational(text)) == text


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (Q(1), Q(2))

    def test_degree_of_zero(self):
        assert Poly().degree == -1
        assert Poly().is_zero()

    def test_text_format(self):
        # x^2 - 1 renders ascending
        assert P(-1, 0, 1).text() == "[-1, 0, 1]"
        assert parse_poly("[-1, 0, 1]") == P(-1, 0, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("x^2-1")

    @pytest.mark.parametrize("text", ["[1e10000000]", "[2, 1e10000000]", "[0.5]", "[+1]",
                                      "[1_0]", "[1/2e3]", "[\uff11]", "[1 /2]", "[-]"])
    def test_parse_reads_only_p_q_text(self, text):
        # `Fraction` reads an exponent too and builds 10^e first, so every
        # coefficient is refused before any Fraction is built
        calls = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            with pytest.raises(ValueError, match="p/q text"):
                parse_poly(text)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert parse_poly("[ -7/2 , 0,1 ]") == P(Q(-7, 2), 0, 1)

    def test_mul_and_divmod(self):
        a = P(-1, 0, 1)  # x^2 - 1
        b = P(1, 1)      # x + 1
        q, r = divmod(a, b)
        assert r.is_zero()
        assert q == P(-1, 1)
        assert q * b == a

    def test_divmod_remainder(self):
        q, r = divmod(P(1, 0, 1), P(-1, 1))  # x^2+1 by x-1
        assert q == P(1, 1)
        assert r == P(2)

    def test_eval(self):
        assert P(1, 2, 3).eval(Q(2)) == Q(17)

    def test_pow(self):
        assert P(0, 1).pow(3) == P(0, 0, 0, 1)
        assert P(1, 1).pow(2) == P(1, 2, 1)

    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_coefficient_sources_agree(self, nums, den):
        # Q coefficients are kept as they are, everything else is coerced;
        # the result must not depend on which path a coefficient took
        from_ints, from_qs = Poly(nums), Poly([Q(n) for n in nums])
        rationals = [Q(n, den) for n in nums]
        texts = [qtext(c) for c in rationals]
        polys = [Poly(rationals), Poly(texts), parse_poly("[" + ", ".join(texts) + "]")]
        assert from_ints == from_qs and hash(from_ints) == hash(from_qs)
        assert from_ints.scale(Q(1, den)) == polys[0]
        for p in polys:
            assert p == polys[0] and hash(p) == hash(polys[0])
        for p in [from_ints, from_qs] + polys:
            assert all(type(c) is Q for c in p.coeffs)


class TestPolyGcd:
    def test_shared_factor(self):
        # gcd(x^2 - 1, x - 1) = x - 1
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        # one Euclid step by hand: x^2+1 = 1*(x^2-1) + 2, so the gcd is 1
        assert poly_gcd(P(1, 0, 1), P(-1, 0, 1)) == P(1)

    def test_gcd_zero_zero(self):
        assert poly_gcd(Poly(), Poly()).is_zero()

    def test_gcd_monic(self):
        g = poly_gcd(P(0, 0, 4), P(0, 2))
        assert g == P(0, 1)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, a, b, c):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        g = poly_gcd(pa * pc, pb * pc)
        if g.is_zero():
            assert (pa * pc).is_zero() and (pb * pc).is_zero()
            return
        assert g.leading() == 1
        assert g.divides(pa * pc) and g.divides(pb * pc)
        if not pc.is_zero():
            assert pc.monic().divides(g)  # common factor survives


class TestSquarefree:
    def test_simple(self):
        p = P(-1, 1) * P(-1, 1) * P(1, 1)  # (x-1)^2 (x+1)
        decomp = squarefree_decomposition(p)
        assert (P(1, 1), 1) in decomp
        assert (P(-1, 1), 2) in decomp

    def test_recompose(self):
        p = P(0, 1).pow(3) * P(1, 1).pow(2) * P(2, 1)
        acc = Poly.const(1)
        for f, m in squarefree_decomposition(p):
            acc = acc * f.pow(m)
        assert acc == p.monic()


class TestKernelAndImage:
    def test_rank_one_kernel(self):
        # [[1,2],[2,4]]: hand reduction gives x + 2y = 0, kernel span{(2,-1)}
        kernel, rank = kernel_and_image(Matrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert len(kernel) == 1
        v = kernel[0]
        assert v[0] * 1 + v[1] * 2 == 0
        # same line as (2, -1)
        assert v[0] * (-1) - v[1] * 2 == 0

    def test_full_rank(self):
        kernel, rank = kernel_and_image(Matrix([[1, 0], [0, 1], [1, 1]]))
        assert rank == 2 and kernel == []

    def test_zero_matrix(self):
        kernel, rank = kernel_and_image(Matrix([[0, 0, 0]]))
        assert rank == 0 and len(kernel) == 3

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_plus_kernel_is_cols(self, rows):
        m = Matrix(rows)
        kernel, rank = kernel_and_image(m)
        assert rank + len(kernel) == m.cols
        assert rank == matrix_rank(m)
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)


class TestLaurentSeries:
    def test_normalisation_advances_valuation(self):
        s = LaurentSeries(-2, [0, 0, 1, 5])
        assert s.valuation == 0 and s.coeffs == (Q(1), Q(5))
        assert s.end == 2

    def test_zero_to_precision(self):
        s = LaurentSeries(3, [0, 0])
        assert s.is_zero_to_precision()
        with pytest.raises(ZeroSeries):
            s.exact_valuation()

    def test_coeff_window(self):
        s = LaurentSeries(-1, [2, 0, 7])
        assert s.coeff(-1) == 2
        assert s.coeff(1) == 7
        assert s.coeff(-5) == 0
        with pytest.raises(PrecisionExhausted):
            s.coeff(2)

    def test_mul_tracks_min_precision(self):
        a = LaurentSeries(-2, [1, 1, 1, 1])   # prec 4
        b = LaurentSeries(1, [1, -1])         # prec 2
        prod = a * b
        assert prod.valuation == -1
        assert prod.precision == 2
        assert prod.coeffs == (Q(1), Q(0))

    def test_reciprocal_of_shifted_unit(self):
        # 1/(t^-2 (1 + t)) = t^2 (1 - t + t^2 - ...)
        s = LaurentSeries(-2, [1, 1, 0, 0, 0])
        r = series_reciprocal(s)
        assert r.valuation == 2
        assert r.coeffs == (Q(1), Q(-1), Q(1), Q(-1), Q(1))
        # multiply back: 1 + O(t^5)
        back = s * r
        assert back.valuation == 0
        assert back.coeffs[0] == 1
        assert all(c == 0 for c in back.coeffs[1:])

    def test_reciprocal_of_zero_series(self):
        with pytest.raises(ZeroSeries):
            series_reciprocal(LaurentSeries(0, [0, 0, 0]))

    def test_add_alignment(self):
        a = LaurentSeries(-1, [1, 2, 3])  # window [-1, 2)
        b = LaurentSeries(0, [5, 5, 5])   # window [0, 3)
        total = a + b
        assert total.valuation == -1
        assert total.end == 2
        assert total.coeffs == (Q(1), Q(7), Q(8))

    def test_scalar_add(self):
        s = LaurentSeries(0, [1, 4]) + 1
        assert s.coeffs == (Q(2), Q(4))

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.integers(-3, 3),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_precision_rule(self, v1, c1, v2, c2):
        a = LaurentSeries(v1, c1)
        b = LaurentSeries(v2, c2)
        prod = a * b
        assert prod.precision == min(a.precision, b.precision)

    def test_series_one(self):
        s = series_one(4)
        assert s.valuation == 0 and s.coeffs == (Q(1), Q(0), Q(0), Q(0))


class TestNewtonTraces:
    def test_power_sums_of_split_poly(self):
        # roots 1 and 2: p_k = 1 + 2^k
        g = P(2, -3, 1)
        assert power_sums(g, 5) == [Q(2), Q(3), Q(5), Q(9), Q(17)]

    def test_power_sums_need_monic(self):
        with pytest.raises(ValueError):
            power_sums(P(1, 2), 3)

    def test_trace_linear(self):
        g = P(2, -3, 1)
        assert trace_in_quotient(P(0, 1), g) == Q(3)
        assert trace_in_quotient(P(0, 0, 1), g) == Q(5)
        assert trace_in_quotient(P(7), g) == Q(14)

    def test_trace_on_irreducible(self):
        # x on Q[x]/(x^2 + 1): eigenvalues +-i, trace 0; x^2 has trace -2
        g = P(1, 0, 1)
        assert trace_in_quotient(P(0, 1), g) == Q(0)
        assert trace_in_quotient(P(0, 0, 1), g) == Q(-2)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_trace_is_additive(self, coeffs):
        g = P(*coeffs, 1)  # monic by construction
        a, b = P(1, 2), P(0, 0, 3)
        total = trace_in_quotient(a + b, g)
        assert total == trace_in_quotient(a, g) + trace_in_quotient(b, g)


class TestSeriesPow:
    def test_positive_power(self):
        s = LaurentSeries(1, [1, 2, 1])  # t (1 + t)^2
        cube = s ** 3
        assert cube.valuation == 3
        assert cube.coeffs == (Q(1), Q(6), Q(15))

    def test_zero_power_is_one(self):
        s = LaurentSeries(-2, [3, 1])
        unit = s ** 0
        assert unit.valuation == 0 and unit.coeff(0) == 1
        assert unit.precision == s.precision

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LaurentSeries(0, [1, 1]) ** -1
