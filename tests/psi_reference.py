"""The division-polynomial pipeline on `FuncElt`s, kept as the reference
for the integer one in `CycCache`.

psi_n runs the doubling recurrences on field elements over Fractions,
with one division by 2y per even index; the primitive factor of psi_s is
psi_s divided by the factors of its divisors 1 < d < s as field
elements; and t_s is that factor divided by the constant term of the
expansion of t_e^|A<s>| times it.
"""

from math import gcd

from ellt.curvefield import FuncElt, _ladder_ints, exact_order_count
from ellt.exactcore import Poly, Q, QONE, QZERO, divisors_of


def reference_psi(curve, n, memo):
    """psi_n as a field element; `memo` maps indices to those built."""
    if n in memo:
        return memo[n]
    a, b = curve.a, curve.b
    if n == 0:
        val = curve.zero()
    elif n == 1:
        val = curve.one()
    elif n == 2:
        val = curve.y() * 2
    elif n == 3:
        val = curve.elt(Poly((-a * a, 12 * b, 6 * a, QZERO, Q(3))))
    elif n == 4:
        # psi_4 = 4y (x^6 + 5a x^4 + 20b x^3 - 5a^2 x^2 - 4ab x - 8b^2 - a^3)
        inner = Poly((-8 * b * b - a**3, -4 * a * b, -5 * a * a, 20 * b, 5 * a, QZERO, QONE))
        val = FuncElt(curve, Poly(), inner.scale(4), Poly.const(1))
    elif n % 2:
        m = (n - 1) // 2
        val = (reference_psi(curve, m + 2, memo) * reference_psi(curve, m, memo) ** 3
               - reference_psi(curve, m - 1, memo) * reference_psi(curve, m + 1, memo) ** 3)
    else:
        m = n // 2
        diff = (reference_psi(curve, m + 2, memo) * reference_psi(curve, m - 1, memo) ** 2
                - reference_psi(curve, m - 2, memo) * reference_psi(curve, m + 1, memo) ** 2)
        val = reference_psi(curve, m, memo) * diff / (curve.y() * 2)
    memo[n] = val
    return val


class ReferenceCyclotomic:
    """t_s, its x part and its class polynomial the way `CycCache` built
    them on field elements, reading only the coordinate expansions of
    `cache` (`base_series` and `expand`).  The method names are those of
    `CycCache`, so a test reads both through one interface."""

    def __init__(self, cache):
        self.cache = cache
        self.psi_memo = {}
        self.raw = {}

    def psi(self, n):
        return reference_psi(self.cache.curve, n, self.psi_memo)

    def primitive_part(self, s):
        if s not in self.raw:
            val = self.psi(s)
            for d in divisors_of(s):
                if 1 < d < s:
                    val = val / self.primitive_part(d)
            self.raw[s] = val
        return self.raw[s]

    def t(self, s):
        if s == 1:
            return self.cache.coordinate.base
        raw = self.primitive_part(s)
        series = self.cache.base_series(2) ** exact_order_count(s) * self.cache.expand(raw, 2)
        assert series.exact_valuation() == 0
        return raw * (QONE / series.coeff(0))

    def _x_part(self, s):
        t = self.t(s)
        den, ints, _, _ = _ladder_ints(t * t if s == 2 else t, 1)
        g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return Q(g, den), tuple(i // g for i in ints)

    def class_poly(self, s):
        return self.cache.curve.rhs.monic() if s == 2 else self.t(s).u.monic()
