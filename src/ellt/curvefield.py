"""Function-field arithmetic on a Weierstrass curve y^2 = x^3 + a x + b.

Everything revolves around the identity point e at infinity: local
expansions there use the chart t = x/y, pole orders at e are read off
degrees, and divisors are recorded class-by-class through the exact
order of torsion points.  The cyclotomic functions t_s (one per exact
order s) carry all divisor shifting; Riemann-Roch windows are spans of
monomials over a single t-product denominator.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import zip_longest
from math import gcd, lcm

from .errors import (
    DepthExceeded,
    PrecisionExhausted,
    UnsupportedPoles,
    ValidationFailed,
)
from .exactcore import (
    LaurentSeries,
    Poly,
    Q,
    QONE,
    QZERO,
    _Frozen,
    _label,
    _primitive,
    _whole,
    divisors_of,
    poly_gcd,
    poly_inverse_mod,
    power,
    qtext,
    series_reciprocal,
)

# ---------------------------------------------------------------------------
# torsion bookkeeping


@lru_cache(maxsize=None)
def exact_order_count(s: int) -> int:
    """Number of points of exact order s: Moebius inversion of |A[n]| = n^2."""
    if s < 1:
        raise ValueError("order must be positive")
    total = 0
    for d in range(1, s + 1):
        if s % d == 0:
            total += _moebius(s // d) * d * d
    return total


@lru_cache(maxsize=None)
def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


class TorsionDivisor(_Frozen):
    """Formal sum of full torsion-order classes: map s -> n_s.

    The class of order 1 is the identity point itself, so the s = 1
    coefficient counts plain multiples of (e).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for s, n in (coeffs or {}).items():
            s, n = _label(s), _whole(n, "divisor multiplicities")
            if s < 1:
                raise ValueError("order classes start at 1")
            if n:
                clean[s] = n
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def coefficient(self, s: int) -> int:
        return self.coeffs.get(s, 0)

    @property
    def degree(self) -> int:
        return sum(n * exact_order_count(s) for s, n in self.coeffs.items())

    def __add__(self, other):
        out = dict(self.coeffs)
        for s, n in other.coeffs.items():
            out[s] = out.get(s, 0) + n
        return TorsionDivisor(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for s, n in other.coeffs.items():
            out[s] = out.get(s, 0) - n
        return TorsionDivisor(out)

    def scale(self, k: int) -> "TorsionDivisor":
        return TorsionDivisor({s: k * n for s, n in self.coeffs.items()})

    def is_effective(self) -> bool:
        return all(n >= 0 for n in self.coeffs.values())

    def payload(self) -> dict:
        """The report form {"s": n}, classes ascending, zeros dropped."""
        return {str(s): n for s, n in self.coeffs.items()}

    def __repr__(self):
        if not self.coeffs:
            return "TorsionDivisor(0)"
        body = " + ".join(f"{n}*A<{s}>" for s, n in self.coeffs.items())
        return f"TorsionDivisor({body})"


def single_class(s: int, n: int = 1) -> TorsionDivisor:
    return TorsionDivisor({s: n})


def _as_divisor(divisor) -> TorsionDivisor:
    """A divisor as given, or one built from an {s: n} map."""
    return divisor if isinstance(divisor, TorsionDivisor) else TorsionDivisor(divisor)


# ---------------------------------------------------------------------------
# the curve and its function field


class WeierstrassCurve(_Frozen):
    """Smooth curve y^2 = x^3 + a x + b over Q."""

    __slots__ = ("a", "b", "rhs")

    def __init__(self, a, b):
        a, b = Q(a), Q(b)
        disc = -16 * (4 * a**3 + 27 * b**2)
        if disc == 0:
            raise ValidationFailed(f"singular curve: a={qtext(a)}, b={qtext(b)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "rhs", Poly((b, a, QZERO, QONE)))

    def __repr__(self):
        return f"WeierstrassCurve(a={qtext(self.a)}, b={qtext(self.b)})"

    def payload(self) -> dict:
        """The report form {"a": a, "b": b}, each as p/q text."""
        return {"a": qtext(self.a), "b": qtext(self.b)}

    # convenient field elements
    def elt(self, u, v=None, d=None) -> "FuncElt":
        return FuncElt(self, u if isinstance(u, Poly) else Poly.const(u),
                       v if v is not None else Poly(),
                       d if d is not None else Poly.const(1))

    def x(self) -> "FuncElt":
        return self.elt(Poly((QZERO, QONE)))

    def y(self) -> "FuncElt":
        return FuncElt(self, Poly(), Poly.const(1), Poly.const(1))

    def zero(self) -> "FuncElt":
        return self.elt(Poly())

    def one(self) -> "FuncElt":
        return self.elt(Poly.const(1))


class FuncElt(_Frozen):
    """Element (u(x) + v(x) y) / d(x) of the function field.

    Canonical form: d monic, gcd(gcd(u, v), d) = 1, and no y^2 anywhere
    (reduced through the curve equation).  Zero is (0 + 0y)/1.
    """

    __slots__ = ("curve", "u", "v", "d")

    def __init__(self, curve, u: Poly, v: Poly, d: Poly):
        if d.is_zero():
            raise ZeroDivisionError("zero denominator")
        if d.degree > 0:  # a constant d already has gcd 1 with anything
            g = poly_gcd(poly_gcd(u, v), d)
            if g.degree > 0:
                u, v, d = u // g, v // g, d // g
        lead = d.leading()
        if lead != 1:
            inv = QONE / lead
            u, v, d = u.scale(inv), v.scale(inv), d.monic()
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "d", d)

    @classmethod
    def _canonical(cls, curve, u: Poly, v: Poly, d: Poly) -> "FuncElt":
        """(u + v y) / d from parts already in canonical form (d monic,
        no common factor), without the constructor's gcd."""
        elt = object.__new__(cls)
        for name, value in (("curve", curve), ("u", u), ("v", v), ("d", d)):
            object.__setattr__(elt, name, value)
        return elt

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def is_pure(self) -> bool:
        """True when the denominator is 1 (poles only at e)."""
        return self.d.degree == 0

    def is_constant(self) -> bool:
        return self.is_pure() and self.v.is_zero() and self.u.degree <= 0

    def constant_value(self) -> Q:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.u.coeff(0)

    def __add__(self, other):
        other = self._coerce(other)
        u = self.u * other.d + other.u * self.d
        v = self.v * other.d + other.v * self.d
        return FuncElt(self.curve, u, v, self.d * other.d)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return FuncElt(self.curve, -self.u, -self.v, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        rhs = self.curve.rhs
        u = self.u * other.u + (self.v * other.v) * rhs
        v = self.u * other.v + self.v * other.u
        return FuncElt(self.curve, u, v, self.d * other.d)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "FuncElt":
        """1/f by rationalising with the y-conjugate."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # (u + vy)(u - vy) is a poly in x alone and nonzero for f != 0
        return FuncElt(self.curve, self.d * self.u, -(self.d * self.v), self.norm_poly())

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int) -> "FuncElt":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.curve.one())

    def norm_poly(self) -> Poly:
        """(u + vy)(u - vy) as a polynomial in x (denominator ignored)."""
        return self.u * self.u - (self.v * self.v) * self.curve.rhs

    def ord_e(self) -> int:
        """Valuation at the identity: x has a double pole, y a triple one.

        Computed from degrees alone; the u and vy parts always have poles
        of opposite parity so the minimum is never ambiguous.
        """
        if self.is_zero():
            raise ZeroDivisionError("the zero element has no valuation")
        candidates = []
        if not self.u.is_zero():
            candidates.append(-2 * self.u.degree)
        if not self.v.is_zero():
            candidates.append(-3 - 2 * self.v.degree)
        return min(candidates) + 2 * self.d.degree

    def lead_e(self) -> Q:
        """Leading coefficient at e in t = x/y, read off degrees like `ord_e`:
        as x = t^-2 (1 + O(t^4)), y = t^-3 (1 + O(t^4)) and d is monic, it is
        u's top coefficient when 2 deg u > 2 deg v + 3, else v's."""
        if self.is_zero():
            raise ZeroDivisionError("the zero element has no leading coefficient")
        if self.v.is_zero() or self.u.degree > self.v.degree + 1:
            return self.u.leading()
        return self.v.leading()

    def pole_order_at_e(self) -> int:
        return max(0, -self.ord_e())

    def _coerce(self, other) -> "FuncElt":
        if isinstance(other, FuncElt):
            if other.curve != self.curve:
                raise ValueError("elements live on different curves")
            return other
        return self.curve.elt(Poly.const(Q(other)))

    def text(self) -> str:
        return f"({self.u.text()}; {self.v.text()}; {self.d.text()})"

    def __repr__(self):
        return f"FuncElt{self.text()}"


# ---------------------------------------------------------------------------
# local expansion at the identity in the chart t = x/y


def _chart_series(curve: WeierstrassCurve, prec: int) -> tuple[LaurentSeries, LaurentSeries]:
    """Series for x and y in t = x/y, `prec` terms each.

    s = 1/y solves s = t^3 + a t s^2 + b s^3.  Writing s = t^3 sigma(u)
    for u = t^2 gives sigma = 1 + a u^2 sigma^2 + b u^3 sigma^3, so
    sigma_n = [n = 0] + a (sigma^2)_{n-2} + b (sigma^3)_{n-3} reads only
    earlier coefficients: each one is exact when computed, once, on a
    running sigma^2.  Then y = 1/s and x = t y.
    """
    if prec < 1:
        raise ValueError("precision must be positive")
    a, b = curve.a, curve.b
    sig, sq = [], []  # sigma and sigma^2 in u
    for n in range((prec + 1) // 2):
        c = QONE if n == 0 else QZERO
        if n >= 2:
            c += a * sq[n - 2]
        if n >= 3:
            c += b * sum(sig[i] * sq[n - 3 - i] for i in range(n - 2))
        sig.append(c)
        sq.append(sum(sig[i] * sig[n - i] for i in range(n + 1)))
    coeffs = [QZERO] * prec
    coeffs[::2] = sig
    y = series_reciprocal(LaurentSeries(3, coeffs))
    return LaurentSeries(-2, y.coeffs), y


def expand_at_e(elt: FuncElt, prec: int, chart=None) -> LaurentSeries:
    """Laurent expansion of a field element at e in the chart t = x/y.

    The returned window has `prec` retained coefficients starting at the
    exact valuation.  The valuation always matches ord_e, which gives a
    cheap internal consistency check.  Each of u, v, d is evaluated in
    relative precision as p(x) = x^n q(1/x) (see `_eval_rel`), so the x
    and y series are needed to `prec + 2` terms whatever the degrees.
    `chart(p)` supplies them to p terms; without it they are computed
    afresh, and `CycCache.expand` passes its memoised `CycCache.chart`.
    """
    if elt.is_zero():
        raise ZeroDivisionError("cannot expand the zero element")
    ord_e = elt.ord_e()
    # evaluating u, vy, d never cancels leading terms (pole parities differ),
    # so relative precision survives every step below
    work = prec + 2
    x, y = _chart_series(elt.curve, work) if chart is None else chart(work)
    z = series_reciprocal(x)
    num = None
    if not elt.u.is_zero():
        num = _eval_rel(elt.u, x, z)
    if not elt.v.is_zero():
        vy = _eval_rel(elt.v, x, z) * y
        num = vy if num is None else num + vy
    series = num * series_reciprocal(_eval_rel(elt.d, x, z))
    if series.exact_valuation() != ord_e:
        raise PrecisionExhausted(
            f"expansion valuation {series.exact_valuation()} disagrees with ord_e {ord_e}"
        )
    return series.truncate(prec)


def _eval_rel(p: Poly, x: LaurentSeries, z: LaurentSeries) -> LaurentSeries:
    """p(x) to the relative precision of x, as x^n q(z) for z = 1/x.

    q(z) = sum c_{n-k} z^k has constant term p's leading coefficient, and
    z has valuation 2, so z^k lies past the window once 2k reaches its
    precision: Horner reads only p's top coefficients, starting from a
    window that each step by z widens by two.
    """
    n, w = p.degree, z.precision
    top = min(n, (w - 1) // 2)
    q = LaurentSeries(0, (p.coeffs[n - top],) + (QZERO,) * (w - 2 * top - 1))
    for k in range(top - 1, -1, -1):
        q = q * z + p.coeffs[n - k]
    return x ** n * q if n else q


# ---------------------------------------------------------------------------
# division polynomials


class _IntegralModel:
    """Division polynomials of y^2 = x^3 + a x + b on integer tuples.

    With u the lcm of the denominators of a and b, X = u^2 x and
    Y = u^3 y put the curve on Y^2 = F(X) = X^3 + A X + B for the
    integers A = u^4 a, B = u^6 b.  There psi_n is g_n(X) for odd n and
    Y g_n(X) for even n, with g_n in Z[X]; psi_n is weighted homogeneous
    of weight n^2 - 1, so the x^k coefficient of psi_n (or psi_n / y) is
    g_k u^(2k + eps) / u^(n^2 - 1), eps = 3 for even n and 0 for odd n.
    """

    __slots__ = ("curve", "u", "f2", "g", "p")

    def __init__(self, curve: WeierstrassCurve):
        a, b = curve.a, curve.b
        self.curve = curve
        u = self.u = lcm(a.denominator, b.denominator)
        A = a.numerator * (u**4 // a.denominator)
        B = b.numerator * (u**6 // b.denominator)
        self.f2 = _int_mul((B, A, 0, 1), (B, A, 0, 1))
        self.g = {0: (), 1: (1,), 2: (2,), 3: (-A * A, 12 * B, 6 * A, 0, 3),
                  4: tuple(4 * c for c in (-8 * B * B - A**3, -4 * A * B, -5 * A * A,
                                           20 * B, 5 * A, 0, 1))}
        self.p: dict[int, tuple[int, ...]] = {}

    def g_n(self, n: int) -> tuple[int, ...]:
        """g_n by the doubling recurrences.  Y^2 = F enters as F^2 on the
        odd-index term whose indices are even; in the even-index one it
        cancels against the 2Y divided out, leaving an exact division by 2."""
        out = self.g.get(n)
        if out is None:
            m, g = n // 2, self.g_n
            if n % 2:
                left = _int_mul(g(m + 2), _int_mul(g(m), _int_mul(g(m), g(m))))
                right = _int_mul(g(m - 1), _int_mul(g(m + 1), _int_mul(g(m + 1), g(m + 1))))
                if m % 2:
                    right = _int_mul(self.f2, right)
                else:
                    left = _int_mul(self.f2, left)
            else:
                left = _int_mul(g(m + 2), _int_mul(g(m - 1), g(m - 1)))
                right = _int_mul(g(m - 2), _int_mul(g(m + 1), g(m + 1)))
            diff = [p - q for p, q in zip_longest(left, right, fillvalue=0)]
            while diff and not diff[-1]:
                diff.pop()
            if n % 2 == 0:
                diff = _int_mul(g(m), diff) if diff else ()
                if any(c % 2 for c in diff):
                    raise ValidationFailed(f"psi_{n} is not divisible by 2y on the integral model")
                diff = [c // 2 for c in diff]
            out = self.g[n] = tuple(diff)
        return out

    def psi(self, n: int) -> FuncElt:
        """psi_n as a field element, read off g_n once: its top
        coefficient carries no power of u, each lower one u^2 more."""
        coeffs, den, u2 = [], 1, self.u * self.u
        for c in reversed(self.g_n(n)):
            coeffs.append(Q(c, den))
            den *= u2
        part = Poly(coeffs[::-1])
        return FuncElt._canonical(self.curve, Poly() if n % 2 == 0 else part,
                                  part if n % 2 == 0 else Poly(), Poly.const(1))

    def primitive_part(self, n: int) -> tuple[int, ...]:
        """P_n, n >= 3: g_n divided by P_d for each divisor 2 < d < n,
        made primitive.  Each P_d is primitive, so by Gauss's lemma every
        quotient is integral: an inexact step means g_n is wrong."""
        out = self.p.get(n)
        if out is None:
            rem = list(self.g_n(n))
            for div in (self.primitive_part(d) for d in divisors_of(n) if 2 < d < n):
                top, lead, r = len(div) - 1, div[-1], 0
                quot = [0] * max(len(rem) - top, 0)
                for i in range(len(quot) - 1, -1, -1):
                    q, r = divmod(rem.pop(), lead)
                    if r:
                        break
                    quot[i] = q
                    for j in range(top):
                        rem[i + j] -= q * div[j]
                if r or any(rem):
                    raise ValidationFailed(f"primitive part of psi_{n} is not polynomial")
                rem = quot
            out = self.p[n] = tuple(_primitive(rem))
        return out


# ---------------------------------------------------------------------------
# coordinate data


class Coordinate(_Frozen):
    """Choice of uniformiser t_e at the identity.

    The default is x/y times an optional scalar.  A custom element may be
    supplied instead; it must have a simple zero at e, and its other
    zeros and poles must sit on torsion classes (checked up to the bound
    `validated_to` when the cache validates it).
    """

    __slots__ = ("base", "scale", "form", "validated_to")

    def __init__(self, curve: WeierstrassCurve, scale=1, base: FuncElt | None = None,
                 validated_to: int = 12):
        scale = Q(scale)
        if base is None:
            if scale == 0:
                raise ValidationFailed("coordinate scale must be nonzero")
            base = FuncElt(curve, Poly(), Poly((QZERO, scale)), curve.rhs)  # c x y / y^2
            form = "x/y"
        else:
            form = "custom"
            if scale != 1:
                base = base * scale
        if base.is_zero() or base.ord_e() != 1:
            raise ValidationFailed("coordinate must vanish to first order at e")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "validated_to", _whole(validated_to, "validation bounds"))

    def describe(self) -> dict:
        return {"form": self.form, "scale": qtext(self.scale)}

    def text(self) -> str:
        return f"{self.form} {self.base.text()}"


# ---------------------------------------------------------------------------
# the memoised cache of cyclotomic data


class CycCache:
    """Per-(curve, coordinate) memo of division polynomials (as the
    integer g_n of the integral model), cyclotomic functions t_s and their
    products, class polynomials, chart series and expansions of the
    coordinate.  It holds nothing on disk: the CLI owns the psi cache file.

    Single-threaded: entries are stored in place, and a t_s is stored
    only after it has been validated, so a stored entry is always a
    checked one.
    """

    def __init__(self, curve: WeierstrassCurve, coordinate: Coordinate | None = None):
        self.curve = curve
        self.coordinate = coordinate or Coordinate(curve)
        self._model = _IntegralModel(curve)
        self._t: dict[int, FuncElt] = {}
        self._class_poly: dict[int, Poly] = {}
        self._t_star: dict[tuple, FuncElt] = {}
        self._x_parts: dict[int, tuple[Q, tuple[int, ...]]] = {}
        self._base_series: dict[int, LaurentSeries] = {}
        self._chart: tuple[int, LaurentSeries, LaurentSeries] | None = None

    # -- division polynomials -------------------------------------------

    def psi(self, n: int) -> FuncElt:
        """n-th division polynomial as a field element (poles only at e):
        psi_1 = 1, psi_2 = 2y, psi_3 and psi_4 explicit, then the doubling
        recurrences, run on the integral model.  div(psi_n) counts the
        nonzero n-torsion once each against (n^2 - 1)(e)."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        return self._model.psi(n)

    # -- cyclotomic functions --------------------------------------------

    def t(self, s: int) -> FuncElt:
        """Cyclotomic function of the class of exact order s.

        For s = 1 this is the coordinate itself.  Otherwise it is the
        primitive factor of psi_s, normalised so t_e^m t_s -> 1 at e for
        m = |A<s>|: with L the `lead_e` of t_e, it is P_s / (L^m lead P_s),
        and t_2 = y / L^3.
        """
        if s == 1:
            return self.coordinate.base
        val = self._t.get(s)
        if val is None:
            if s < 2:
                raise ValueError("cyclotomic functions start at order 2")
            scale = self.coordinate.base.lead_e() ** -exact_order_count(s)
            if s == 2:
                p = tuple(_primitive(self.curve.rhs.coeffs))
                c = scale * scale / p[-1]
                val = FuncElt._canonical(self.curve, Poly(), Poly((scale,)), Poly.const(1))
            else:  # P_s(X) at X = u^2 x, made primitive again
                u2 = self._model.u ** 2
                p = tuple(_primitive([k * u2**i for i, k in
                                      enumerate(self._model.primitive_part(s))]))
                c = scale / p[-1]
                val = FuncElt._canonical(self.curve, Poly(tuple(c * k for k in p)),
                                         Poly(), Poly.const(1))
            self._validate_t(s, val)
            self._t[s], self._x_parts[s] = val, (c, p)
        return val

    def _validate_t(self, s: int, val: FuncElt) -> None:
        m = exact_order_count(s)
        if not val.is_pure():
            raise ValidationFailed(f"t_{s} must have poles only at e")
        if val.ord_e() != -m:
            raise ValidationFailed(
                f"t_{s} has e-pole order {-val.ord_e()}, expected {m}"
            )
        series = self.base_series(1) ** m * self.expand(val, 1)
        if series.exact_valuation() != 0 or series.coeff(0) != 1:
            raise ValidationFailed(f"t_{s} normalisation failed")
        if s == 2:
            if not val.u.is_zero() or val.v.degree != 0:
                raise ValidationFailed("t_2 must be a multiple of y")
        elif not val.v.is_zero():
            raise ValidationFailed(f"t_{s} must be even (a polynomial in x)")

    def class_poly(self, s: int) -> Poly:
        """Monic squarefree polynomial in x whose roots are the x-values
        of the class of exact order s (s >= 2): P_s made monic."""
        if s not in self._class_poly:
            p = self._x_part(s)[1]
            self._class_poly[s] = Poly(tuple(Q(c, p[-1]) for c in p))
        return self._class_poly[s]

    def t_star(self, divisor: TorsionDivisor) -> FuncElt:
        """Product over s >= 2 of t_s^{n_s}, memoised by that part; the
        s = 1 coefficient is deliberately ignored (the e-part is tracked
        by degrees).

        Built by exponent arithmetic: t_2 = c y, so t_2^n is
        (t_2^2)^(n // 2) t_2^(n % 2) with t_2^2 = c^2 rhs, and every
        other t_s is a constant times a polynomial in x.  Those x parts
        are pairwise coprime (their roots are the x-values of distinct
        classes), so the numerator is the integer product of the positive
        powers and the denominator that of the negative ones, with no gcd.
        """
        key = tuple((s, n) for s, n in divisor.coeffs.items() if s >= 2)
        out = self._t_star.get(key)
        if out is None:
            scalar, num, den, odd = QONE, [], [], False
            for s, n in key:
                if s == 2:
                    n, odd = divmod(n, 2)
                    if odd:
                        scalar *= self.t(2).v.coeffs[0]
                c, p = self._x_part(s)
                scalar *= c ** n
                (num if n > 0 else den).extend([p] * abs(n))
            num, den = (reduce(_int_mul, f, (1,)) for f in (num, den))
            lead = den[-1]
            scalar /= lead
            top = Poly(tuple(scalar * c for c in num))
            out = FuncElt._canonical(self.curve, Poly() if odd else top,
                                     top if odd else Poly(),
                                     Poly(tuple(Q(c, lead) for c in den)))
            self._t_star[key] = out
        return out

    def _x_part(self, s: int) -> tuple[Q, tuple[int, ...]]:
        """(c, p) with c * p(x) equal to t_2^2 for s = 2 and to t_s
        otherwise, p a primitive integer tuple of positive leading
        coefficient; stored by `t` with the t_s it checked."""
        self.t(s)
        return self._x_parts[s]

    # -- chart series and differentials ----------------------------------

    def chart(self, prec: int) -> tuple[LaurentSeries, LaurentSeries]:
        """x and y to `prec` terms, cut from the stored chart; a wider request
        at least triples its width, so a theory reruns `_chart_series` rarely."""
        if self._chart is None or self._chart[0] < prec:
            width = prec if self._chart is None else max(prec, 3 * self._chart[0])
            self._chart = (width, *_chart_series(self.curve, width))
        _, x, y = self._chart
        return x.truncate(prec), y.truncate(prec)

    def expand(self, elt: FuncElt, prec: int) -> LaurentSeries:
        """`expand_at_e` on the memoised chart of this cache's curve."""
        if elt.curve != self.curve:
            raise ValueError("element lives on a different curve")
        return expand_at_e(elt, prec, self.chart)

    def base_series(self, prec: int) -> LaurentSeries:
        """The expansion of the coordinate to `prec` terms, memoised per
        precision: every t_s is validated against it."""
        series = self._base_series.get(prec)
        if series is None:
            series = self._base_series[prec] = self.expand(self.coordinate.base, prec)
        return series

    def diff_factor(self) -> Q:
        """Scalar kappa with Dt = kappa * dx / y, fixed by Dt/dt_e -> 1 at e:
        dx / y = (-2 + O(t^4)) dt by the chart series of `lead_e`, and
        dt_e = (L + O(t)) dt for L = t_e.lead_e(), so kappa = -L / 2."""
        return -self.coordinate.base.lead_e() / 2

    # -- structural pole analysis ----------------------------------------

    def classify_x_poly(self, poly: Poly):
        """Split a polynomial in x into per-class parts against the class
        polynomials up to the coordinate's validated order.  Returns
        (parts: {s: multiplicity-poly}, leftover)."""
        poly = poly.monic() if not poly.is_zero() else poly
        parts: dict[int, Poly] = {}
        for s in range(2, self.coordinate.validated_to + 1):
            if poly.degree < 1:
                break
            layers, poly = _layers(poly, self.class_poly(s))
            if layers:
                parts[s] = reduce(Poly.__mul__, layers)
        return parts, poly

    def pole_support(self, elt: FuncElt) -> dict[int, int]:
        """Upper bounds for the pole order of `elt` on each torsion class.

        Raises UnsupportedPoles when the denominator has a root that is
        not recognised as torsion of the coordinate's validated order.
        """
        bounds: dict[int, int] = {}
        if elt.is_zero():
            return bounds
        if elt.d.degree >= 1:
            parts, leftover = self.classify_x_poly(elt.d)
            if leftover.degree >= 1:
                raise UnsupportedPoles(
                    f"denominator factor {leftover.text()} is not supported on "
                    f"torsion classes up to {self.coordinate.validated_to}"
                )
            # a part's degree is the x-multiplicity on its class; ord_P(x - x0) <= 2
            bounds.update((s, 2 * part.degree) for s, part in parts.items())
        pole_e = elt.pole_order_at_e()
        if pole_e:
            bounds[1] = pole_e
        return bounds

    # -- divisor-window primitives ----------------------------------------

    def ord_along(self, elt: FuncElt, s: int) -> int:
        """`_ord_along`, refusing poles off the torsion classes (`pole_support`)."""
        if s != 1:
            self.pole_support(elt)
        return self._ord_along(elt, s)

    def _ord_along(self, elt: FuncElt, s: int) -> int:
        """Minimum valuation of elt across the points of exact order s, for
        an element whose poles a caller has found on the torsion classes.

        For s >= 2 write elt = (u + v y)/d canonically, cp = `class_poly(s)`
        and k the number of `_layers` of d against cp.  Where d meets the
        class (k >= 1) the value is -k, and on A[2] it is 1 - 2k when the
        last layer divides u, else -2k.  Otherwise, with m_u and m_v the
        numbers of layers of u and of v equal to cp (a zero part skipped),
        it is min(m_u, m_v), and on A[2] min(2 m_u, 2 m_v + 1).  Off A[2],
        x - x0 is a uniformiser at both points over a root x0 and y0 != 0,
        so u1(x0) +- v1(x0) y0 cannot both vanish and the smaller valuation
        is min(ord u, ord v) - ord d there; on A[2], ord(x - x0) = 2 and
        ord y = 1 differ in parity, so nothing cancels; and canonically d
        shares no root with both u and v.
        """
        if elt.is_zero():
            raise ZeroDivisionError("the zero element has no valuation")
        if s == 1:
            return elt.ord_e()
        cp = self.class_poly(s)
        e = 2 if s == 2 else 1  # ord(x - x0) at a point over a root x0; ord y is e - 1
        layers = _layers(elt.d, cp)[0]
        if layers:
            return -e * len(layers) + (e == 2 and (elt.u % layers[-1]).is_zero())
        return min(e * sum(c == cp for c in _layers(p, cp)[0]) + (e - 1) * odd
                   for odd, p in enumerate((elt.u, elt.v)) if not p.is_zero())

    def rr_basis(self, divisor: TorsionDivisor) -> list[FuncElt]:
        """Basis of H^0(O(divisor)) as monomials over t*(divisor).

        Ordering is by ascending pole order at e: 1, x, y, x^2, xy, ...
        Degree zero gives the single element 1/t* (every full-class sum
        of torsion points adds to e, so such divisors are principal).
        Dividing by t*(divisor) is multiplying by t*(-divisor).
        """
        dim = h_dims(divisor)[0]
        if not dim:
            return []
        inv = self.t_star(divisor.scale(-1))
        return [monomial(self.curve, k) * inv for k in range(dim)]

    def validate_coordinate(self) -> dict:
        """Check the coordinate's divisor is torsion-supported up to the
        declared bound; returns the classes touched and, per class, the
        pole bounds of t_e and 1/t_e there.  The zeros and poles of t_e off
        e are the roots of its norm and of d, so classifying those two once
        is the whole refusal; `_ord_along` reads each bound."""
        base = self.coordinate.base
        bound = self.coordinate.validated_to
        touched: set[int] = set()
        for poly in (base.norm_poly(), base.d):
            if poly.degree >= 1:
                parts, leftover = self.classify_x_poly(poly)
                if leftover.degree >= 1:
                    raise ValidationFailed(
                        "coordinate has zeros or poles off the torsion classes "
                        f"validated up to order {bound}: factor {leftover.text()}"
                    )
                touched.update(parts)
        pair = (base, base.inverse())
        profile = {s: tuple(max(0, -self._ord_along(f, s)) for f in pair)
                   for s in sorted(touched)}
        return {"validated_to": bound, "classes": sorted(touched), "profile": profile}


def _int_mul(p: tuple, q: tuple) -> tuple:
    """Product of two integer coefficient tuples."""
    if p == (1,):
        return q
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)


def monomial(curve: WeierstrassCurve, k: int) -> FuncElt:
    """k-th element of the pole-order ladder at e: 1, x, y, x^2, xy, ...

    Its pole order at e is 0 for k = 0 and k + 1 for k >= 1 (order 1 is
    impossible on the curve, which is exactly the genus-one gap).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return curve.one()
    pole = k + 1
    if pole % 2 == 0:
        return curve.elt(Poly.x_power(pole // 2))
    return FuncElt(curve, Poly(), Poly.x_power((pole - 3) // 2), Poly.const(1))


def h_dims(divisor: TorsionDivisor) -> tuple[int, int]:
    """(h^0, h^1) of O(divisor) for a torsion-class divisor.

    Degree zero is (1, 1): the point sum of every full-class combination
    is the identity, so the divisor is principal.
    """
    deg = divisor.degree
    if deg > 0:
        return (deg, 0)
    if deg < 0:
        return (0, -deg)
    return (1, 1)


def _layers(poly: Poly, marker: Poly) -> tuple[list[Poly], Poly]:
    """(layers, rest) with poly = c_1 ... c_k rest for a squarefree monic
    marker: c_i = gcd(what is left, marker) is the monic product of
    x - x0 over the marker's roots of multiplicity >= i in poly, so k is
    the deepest multiplicity and rest is prime to the marker."""
    layers = []
    while poly.degree >= 1 and (common := poly_gcd(poly, marker)).degree >= 1:
        layers.append(common)
        poly = poly // common
    return layers, poly


# ---------------------------------------------------------------------------
# residues


def _residue_split(den: Poly, marker: Poly) -> tuple[Poly, Poly]:
    """(w, g) for a monic squarefree marker: den = g h with g the monic
    part of den on the marker's roots, h prime to them and w = h^-1 mod g.
    There num/h agrees with num w to the order of g, so the sum of
    residues of (num/den) dx over the marker's roots is that of every
    finite residue of num w dx/g: the x^(deg g - 1) coefficient of
    num w mod g, and 0 when g is 1.  No root is ever extracted."""
    if marker.degree < 1 or marker.leading() != 1:
        raise ValueError("marker must be monic of positive degree")
    if den.is_zero():
        raise ZeroDivisionError("residues of a zero denominator")
    layers, h = _layers(den, marker)
    if not layers:
        return Poly(), Poly.const(1)
    g = reduce(Poly.__mul__, layers)
    return poly_inverse_mod(h, g), g


def trace_residues(num: Poly, den: Poly, marker: Poly) -> Q:
    """Sum of residues of (num/den) dx over the roots of `marker`, a monic
    squarefree polynomial: one coefficient of num w mod g for the
    `_residue_split` (w, g) of den."""
    w, g = _residue_split(den, marker)
    return (num * w % g).coeff(g.degree - 1)


def residue_form(cache: CycCache, den: Poly, s: int) -> tuple[Q, Poly, Poly]:
    """(c, w, g): for f = (u + v y)/den with den monic, the sum of residues
    of f * Dt over the points of exact order s is c times the
    x^(deg g - 1) coefficient of v w mod g, linear in v.

    Dt = kappa dx / y.  Its odd part u/(den y) cancels in pairs P, -P, so
    what is left is kappa v dx/den pulled back from the x-line, with two
    preimages per x-value: off e, 2 kappa times the residues over the
    class polynomial's roots (`_residue_split`); at e, minus those at
    every finite point, -2 kappa times a coefficient of v mod den.
    """
    kappa = cache.diff_factor()
    if s == 1:
        return -2 * kappa, Poly.const(1), den
    return (2 * kappa, *_residue_split(den, cache.class_poly(s)))


def residue_at_e(cache: CycCache, f: FuncElt) -> Q:
    """Residue of f * Dt at the identity, for the invariant differential
    Dt = kappa dx / y normalised to agree with dt_e there."""
    return residue_along(cache, f, 1)


def residue_along(cache: CycCache, f: FuncElt, s: int) -> Q:
    """Sum of residues of f * Dt over the points of exact order s, read
    off the `residue_form` of f's denominator."""
    if f.curve != cache.curve:
        raise ValueError("element lives on a different curve")
    c, w, g = residue_form(cache, f.d, s)
    return c * (f.v * w % g).coeff(g.degree - 1)


# ---------------------------------------------------------------------------
# quotient windows in the monomial frame


def _ladder_ints(h: FuncElt, count: int) -> tuple[int, tuple, tuple, tuple]:
    """(den, u, v, v * rhs) of a pure h = u + v y, the three coefficient
    tuples scaled to ints by their common denominator den; v * rhs is
    needed only when some rung is x^a y, that is when count > 2."""
    if not h.is_pure():
        raise ValueError("frame coordinates need a pure element")
    parts = (h.u.coeffs, h.v.coeffs, (h.v * h.curve.rhs).coeffs if count > 2 else ())
    den = lcm(*[c.denominator for part in parts for c in part])
    return den, *(tuple(c.numerator * (den // c.denominator) for c in part)
                  for part in parts)


def _rungs(u: tuple, v: tuple, vr: tuple, count: int, dim: int):
    """(top, lead, a, xs, ys) for m_k * h, k < count, h = u + v y: the
    ladder core shared by `ladder_frames` and the window reducers.

    x^a h puts u and v a rungs up the ladder (x^j at slot 2j - 1, or 0
    for j = 0, and x^j y at slot 2j + 2), and x^a y h puts v * rhs and u
    there, so xs and ys are two of the three tuples, never copies.  `top`
    is the highest slot filled and `lead` its coefficient (-1 and 0 for
    h = 0); a term at slot `dim` or above raises ValueError.
    """
    for k in range(count):
        a, xs, ys = (k // 2 - 1, vr, u) if k and not k % 2 else ((k + 1) // 2, u, v)
        top, lead = -1, 0
        if xs:  # the leading x power sits at slot 2(a + len) - 3, or 0
            top, lead = max(2 * (a + len(xs)) - 3, 0), xs[-1]
            if top >= dim:
                j = next(j for j, c in enumerate(xs, a) if c and max(2 * j - 1, 0) >= dim)
                raise ValueError(f"x^{j} overflows a frame of dimension {dim}")
        if ys:
            if 2 * (a + len(ys)) >= dim:
                j = next(j for j, c in enumerate(ys, a) if c and 2 * j + 2 >= dim)
                raise ValueError(f"x^{j} y overflows a frame of dimension {dim}")
            if 2 * (a + len(ys)) > top:
                top, lead = 2 * (a + len(ys)), ys[-1]
        yield top, lead, a, xs, ys


def _place(dim: int, a: int, xs: tuple, ys: tuple) -> list[int]:
    """The integer frame vector of one `_rungs` rung, of length dim."""
    vec = [0] * dim
    if xs:
        if a:
            vec[2 * a - 1:2 * (a + len(xs)) - 1:2] = xs
        else:
            vec[0] = xs[0]
            vec[1:2 * len(xs) - 1:2] = xs[1:]
    if ys:
        vec[2 * a + 2:2 * (a + len(ys)) + 1:2] = ys
    return vec


def ladder_frames(h: FuncElt, count: int, dim: int) -> tuple[int, list[list[int]]]:
    """(den, rows): row k is den times the frame vector of m_k * h against
    the monomial ladder 1, x, y, x^2, xy, ..., for k < count, truncated
    to `dim` entries.  Each row is slice copies of the integer tuples of
    `_ladder_ints` placed by `_rungs`, with no product in the function
    field; an impure h or a term at slot `dim` or above raises
    ValueError."""
    den, *parts = _ladder_ints(h, count)
    return den, [_place(dim, a, xs, ys) for _, _, a, xs, ys in _rungs(*parts, count, dim)]


class QuotientWindow:
    """The quotient H^0(O(G)) / H^0(O(G')) in explicit coordinates, for

        G  = (base + depth) A<s> + others,
        G' =  base          A<s> + others.

    Its dimension is depth * |A<s>| whatever the enclosure `others`
    (an effective divisor avoiding the class s) happens to be.  All of
    H^0(O(G)) is the span of monomials over t*(G), so classes reduce to
    vectors: write the shifted element in the monomial frame, sweep out
    the subspace (whose basis is triangular by pole order), and read the
    surviving complement coordinates.

    The subspace is spanned by m_k * t_s^depth, k < residual_dim.  The
    u, v and v * rhs of t_s^depth (memoised by `CycCache.t_star`) are
    scaled to integer tuples over one denominator, and each reducer is
    its `_rungs` tuple (top, lead, a, xs, ys), with xs and ys pointing at
    those shared tuples; sweeps run on Python ints (`_sweep_ints`), and
    `ladder_columns` hands a block's columns over as ints over one
    denominator.

    When base = 0 and `others` has degree zero an auxiliary class is
    added, keeping the residual divisor G' of positive degree; this pads
    the frame without changing the window dimension.
    """

    def __init__(self, cache: CycCache, s: int, depth: int,
                 others: TorsionDivisor | None = None, base: int = 0):
        if depth < 1:
            raise ValueError("window depth must be at least 1")
        if base < 0:
            raise ValueError("window base must be nonnegative")
        others = others if others is not None else TorsionDivisor()
        if others.coefficient(s) != 0:
            raise ValueError("the enclosure must avoid the quotient class")
        if not others.is_effective():
            raise ValueError("the enclosure must be effective")
        m = exact_order_count(s)
        if base * m + others.degree < 1:
            others = others + single_class(1 if s >= 2 else 2, 1)
        self.cache = cache
        self.s = s
        self.depth = depth
        self.base = base
        self.others = others
        self.block_size = depth * m
        self.residual_dim = base * m + others.degree
        self.frame_dim = self.residual_dim + self.block_size
        self.divisor = others + single_class(s, base + depth)
        # t_star ignores the class 1, so s = 1 shifts by the constant 1
        _, *parts = _ladder_ints(cache.t_star(single_class(s, depth)), self.residual_dim)
        reducers = {}
        for rung in _rungs(*parts, self.residual_dim, self.frame_dim):
            if rung[0] in reducers:
                raise ValidationFailed("sub-basis tops collide")
            reducers[rung[0]] = rung
        self._sweep = sorted(reducers.values(), reverse=True)  # distinct tops
        self.complement = sorted(set(range(self.frame_dim)) - set(reducers))
        if len(self.complement) != self.block_size:
            raise ValidationFailed("complement size differs from the block size")

    @property
    def shift(self) -> FuncElt:
        """t*(divisor), which only `coords` needs (`rep` divides by it as
        t*(-divisor)); block assembly stays in the frame and never builds it."""
        return self.cache.t_star(self.divisor)

    def coords(self, f: FuncElt) -> list:
        """Coordinate vector of the class of f, length block_size: exact
        rationals, ints where the sweep needed no scale."""
        shifted = f * self.shift
        if not shifted.is_pure():
            raise UnsupportedPoles("element carries poles beyond the window divisor")
        try:
            den, (col,) = self.ladder_columns(_ladder_ints(shifted, 1), 1)
        except ValueError as exc:
            raise UnsupportedPoles(str(exc)) from None
        return col if den == 1 else [Q(c, den) for c in col]

    def ladder_columns(self, ladder: tuple, count: int) -> tuple[int, list[list[int]]]:
        """(den, columns): column k is den times the coordinates of m_k * h
        for k < count, where ladder is `_ladder_ints(h, count)` of a pure h
        already multiplied by the window shift; a term of some m_k * h at
        slot frame_dim or above raises ValueError, as in `ladder_frames`."""
        den, *parts = ladder
        swept = [self._sweep_ints(_place(self.frame_dim, a, xs, ys), den)
                 for _, _, a, xs, ys in _rungs(*parts, count, self.frame_dim)]
        common = lcm(*(scale for _, scale in swept))
        return common, [col if scale == common else [c * (common // scale) for c in col]
                        for col, scale in swept]

    def _sweep_ints(self, vec: list[int], den: int) -> tuple[list[int], int]:
        """(integers, their denominator): the complement coordinates of
        vec / den.  A reducer with c = vec[top] != 0 is swept out as
        vec = (lead / g) vec - (c / g) reducer for g = gcd(lead, c), and
        den grows by the factor lead / g where that is not 1."""
        for top, lead, a, xs, ys in self._sweep:
            c = vec[top]
            if c:
                g = gcd(lead, c)
                if g != lead:
                    vec = [lead // g * x for x in vec]
                    den *= lead // g
                c //= g
                for j, r in enumerate(xs, a):
                    vec[2 * j - 1 if j else 0] -= c * r
                for j, r in enumerate(ys, a):
                    vec[2 * j + 2] -= c * r
        return [vec[k] for k in self.complement], den

    def rep(self, i: int) -> FuncElt:
        """Representative of the i-th basis class; coords(rep(i)) = e_i."""
        return (monomial(self.cache.curve, self.complement[i])
                * self.cache.t_star(self.divisor.scale(-1)))


def principal_part(cache: CycCache, f: FuncElt, s: int, depth: int) -> list[Q]:
    """Class of f in H^0(O(G)) / H^0(O(G - depth A<s>)) as a vector of
    length depth * |A<s>|, where G enclosing the poles of f away from
    the class s is chosen from its pole support.

    Poles on the class deeper than `depth` are split off slice by slice
    and discarded, so the result is the class of the depth-truncation.
    """
    if _whole(depth, "depths") < 1:
        raise DepthExceeded("principal parts need depth at least 1")
    if not isinstance(f, FuncElt):
        f = cache.curve.one() * f
    others = TorsionDivisor({r: n for r, n in cache.pole_support(f).items()
                             if r != s and n > 0})
    if f.is_zero():
        return [QZERO] * (depth * exact_order_count(s))
    excess = max(0, -cache._ord_along(f, s))
    g = f
    for level in range(excess, depth, -1):
        top_slice = QuotientWindow(cache, s, 1, others, base=level - 1)
        for i, c in enumerate(top_slice.coords(g)):
            if c != 0:
                g = g - top_slice.rep(i) * c
    return QuotientWindow(cache, s, depth, others).coords(g)
