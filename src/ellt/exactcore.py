"""Exact rational arithmetic: scalars, dense polynomials, matrices with
their fraction-free elimination, and truncated Laurent series.

Every object here is immutable and every operation is exact over Q.
There are deliberately no floats, no FFT multiplication and no sparse
formats; sizes stay at desk scale and predictability wins.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm

from .errors import PrecisionExhausted, ZeroSeries

QZERO = Q(0)
QONE = Q(1)


def rational(value) -> Q:
    """Coerce ints, strings like '-3/4', and rationals to the scalar type."""
    if isinstance(value, str):
        value = value.strip()
    return Q(value)


def qtext(value) -> str:
    """Canonical text for a rational: 'p/q', or just 'p' when integral."""
    value = Q(value)
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def _whole(n, what: str = "multiplicities") -> int:
    """n itself when it is an int; a float, string or fraction is a
    TypeError instead of being truncated."""
    if type(n) is not int:
        raise TypeError(f"{what} are integers, got {n!r}")
    return n


def _label(s) -> int:
    """A class label: an int, or its canonical decimal text as payload
    keys carry it ("01" or " 1" would name class 1 twice: ValueError); a
    float or fraction is a TypeError instead of being truncated."""
    if type(s) is not str:
        return _whole(s, "class labels")
    if str(int(s)) != s:
        raise ValueError(f"class label {s!r} is not canonical decimal text")
    return int(s)


def divisors_of(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class _Frozen:
    """Base of the immutable value types and the one home of their value
    semantics.

    Constructors set their slots with `object.__setattr__`, and every
    later assignment raises.  A value is its public slots: two values are
    equal when they have the same type and equal public slots, and equal
    values hash alike, a dict slot hashing by its items.  A slot whose
    name starts with `_` is a memo, not part of the value.  The repr is
    `Name(text)`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._public = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._public)

    def __hash__(self):
        return hash(tuple(frozenset(value.items()) if type(value) is dict else value
                          for value in map(self.__getattribute__, self._public)))

    def __repr__(self):
        return f"{type(self).__name__}({self.text()})"


def power(base, n: int, one):
    """base ** n for n >= 0 by binary powering, `one` when n is 0.

    The base is squared only while higher bits remain, so base ** 1 makes
    no product and base ** 5 makes three.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return one if result is None else result
        base = base * base


# ---------------------------------------------------------------------------
# polynomials


class Poly(_Frozen):
    """Dense univariate polynomial over Q, coefficients ascending.

    The coefficient tuple never has a trailing zero; the zero polynomial
    is the empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [c if type(c) is Q else Q(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @staticmethod
    def const(value) -> "Poly":
        return Poly((Q(value),))

    @staticmethod
    def x_power(n, scale=QONE) -> "Poly":
        return Poly((QZERO,) * n + (Q(scale),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Q:
        if not self.coeffs:
            return QZERO
        return self.coeffs[-1]

    def coeff(self, n) -> Q:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return QZERO

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    def scale(self, k) -> "Poly":
        k = Q(k)
        if k == 0:
            return Poly()
        return Poly(tuple(c * k for c in self.coeffs))

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        inv_lead = QONE / div[-1]
        quot = [QZERO] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * inv_lead
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * div[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(QONE / self.leading())

    def eval(self, point):
        acc = QZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def pow(self, n) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly.const(1))

    def text(self) -> str:
        return "[" + ", ".join(qtext(c) for c in self.coeffs) + "]"


# a coefficient as `qtext` writes it; `Fraction` would also read an
# exponent, and build 10^e for "1e10000000" before any check could refuse it
_QTEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_poly(text: str) -> Poly:
    """Parse the bracketed ascending-coefficient format, e.g. '[-1, 0, 1]',
    each coefficient p/q text as `qtext` writes it."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a polynomial literal: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return Poly()
    parts = inner.split(",")
    if not all(_QTEXT.fullmatch(part.strip()) for part in parts):
        raise ValueError("polynomial coefficients must be p/q text")
    return Poly(tuple(rational(part) for part in parts))


def _primitive(values) -> list[int]:
    """Rationals (or ints) scaled to a primitive integer list with the
    same signs; all zeros stay zeros."""
    den = lcm(*[e.denominator for e in values])
    if den == 1:
        ints = [e.numerator for e in values]
    else:
        ints = [e.numerator * (den // e.denominator) for e in values]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0 and gcd(0, b) is b made monic.

    Collins' primitive remainder sequence: both inputs are scaled to
    primitive integer lists, each pseudo-remainder step runs on Python
    ints and its remainder is divided by its content, and the last
    nonzero remainder is made monic once.  The monic gcd over Q is
    unique, so this equals Euclid over Fractions coefficient for
    coefficient; it is the gcd counterpart of the fraction-free
    elimination in `_echelon`.
    """
    if a.is_zero() or b.is_zero():
        return (b if a.is_zero() else a).monic()
    f, g = _primitive(a.coeffs), _primitive(b.coeffs)
    while len(g) > 1:
        r, n, lead = f, len(g) - 1, g[-1]
        while len(r) > n:  # r <- (lead r - c x^(len r - 1 - n) g) / k, top dropped
            c = r.pop()
            if c:
                k = gcd(lead, c)
                if k != lead:
                    r = [lead // k * x for x in r]
                c //= k
                off = len(r) - n
                for j in range(n):
                    r[off + j] -= c * g[j]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        f, g = g, _primitive(r)
    return Poly(tuple(Q(c, g[-1]) for c in g))


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    # invariant: s0*a + t0*b == r0 and s1*a + t1*b == r1
    r0, r1 = a, b
    s0, s1 = Poly.const(1), Poly()
    t0, t1 = Poly(), Poly.const(1)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = QONE / lead
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def poly_inverse_mod(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo `modulus`; raises if they share a factor."""
    g, s, _ = poly_xgcd(a % modulus, modulus)
    if g.degree != 0:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return s % modulus


# ---------------------------------------------------------------------------
# matrices


class Matrix(_Frozen):
    """Dense matrix over Q, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(Q(e) for e in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries))) if self.rows else Matrix(())

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = other.transpose().entries
        return Matrix(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col)), QZERO) for col in bt
                )
                for row in self.entries
            )
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _matrix_rows(matrix) -> tuple[tuple, int]:
    """(rows, column count) of a Matrix, or of a sequence of equal-length
    rational rows, which internal callers pass without building a Matrix."""
    if isinstance(matrix, Matrix):
        return matrix.entries, matrix.cols
    cols = len(matrix[0]) if matrix else 0
    if any(len(row) != cols for row in matrix):
        raise ValueError("ragged matrix")
    return matrix, cols


def _echelon(rows, cols: int, reduced: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination: (pivot rows, pivot columns).

    Each rational row is scaled by the lcm of its denominators to a
    primitive integer row (zero rows drop out), and every update
    p * row - a * pivot_row is divided by its content at once, so the
    elimination runs on small Python ints and never divides by a pivot
    (the fraction-free idea of Bareiss, Math. Comp. 22, 1968).  With
    `reduced` each pivot column is also cleared above its pivot, so pivot
    row r divided by its pivot entry is row r of the reduced echelon
    form; without it only rows below are cleared, which is enough for
    the rank and the pivot columns.
    """
    work = [ints for ints in map(_primitive, rows) if any(ints)]
    n = len(work)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        for i in range(r, n):
            if work[i][c]:
                break
        else:
            continue
        prow = work[i]
        work[i], work[r] = work[r], prow
        p = prow[c]
        for i in range(0 if reduced else r + 1, n):
            a = work[i][c]
            if a and i != r:
                g = gcd(p, a)
                f, a = p // g, a // g
                row = [f * x - a * y for x, y in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return work[: len(pivots)], pivots


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns; zero rows stay at the
    bottom, so the shape is the input's."""
    rows, cols = _matrix_rows(matrix)
    pivot_rows, pivots = _echelon(rows, cols, reduced=True)
    out = [[Q(x, row[pc]) if x else QZERO for x in row]
           for row, pc in zip(pivot_rows, pivots)]
    out += [(QZERO,) * cols] * (len(rows) - len(pivots))
    return Matrix(out), pivots


def matrix_rank(matrix) -> int:
    """Rank of a Matrix or of a sequence of rational rows, by forward
    elimination only."""
    rows, cols = _matrix_rows(matrix)
    return len(_echelon(rows, cols, reduced=False)[1])


def kernel_and_image(matrix) -> tuple[list[tuple], int]:
    """Exact kernel basis and rank of a Matrix, or of a non-empty sequence
    of rational rows, over Q.

    The kernel vectors come from the reduced row echelon form, one per
    free column, so the answer is deterministic.  rank + len(kernel)
    always equals the column count.
    """
    rows, cols = _matrix_rows(matrix)
    pivot_rows, pivots = _echelon(rows, cols, reduced=True)
    pivot_set = set(pivots)
    kernel = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [QZERO] * cols
        vec[fc] = QONE
        for row, pc in zip(pivot_rows, pivots):
            if row[fc]:
                vec[pc] = Q(-row[fc], row[pc])
        kernel.append(tuple(vec))
    return kernel, len(pivots)


# ---------------------------------------------------------------------------
# truncated Laurent series


class LaurentSeries(_Frozen):
    """Truncated Laurent series sum(c_i t**(valuation+i)) + O(t**end).

    `coeffs` has one entry per retained exponent, so precision is
    len(coeffs) and the first uncharted exponent is valuation + precision.
    A series whose retained coefficients are all zero is only *known* to
    vanish through its window; asking such a series for its valuation or
    leading coefficient raises instead of guessing.
    """

    __slots__ = ("valuation", "coeffs")

    def __init__(self, valuation, coeffs):
        coeffs = tuple(c if type(c) is Q else Q(c) for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least one retained coefficient")
        # normalise: leading retained coefficient nonzero (or all zero)
        shift = 0
        while shift < len(coeffs) and coeffs[shift] == 0:
            shift += 1
        if 0 < shift < len(coeffs):
            coeffs = coeffs[shift:]
            valuation += shift
        elif shift == len(coeffs):
            coeffs = (QZERO,) * len(coeffs)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @property
    def end(self) -> int:
        """First exponent beyond the retained window."""
        return self.valuation + len(self.coeffs)

    def is_zero_to_precision(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def exact_valuation(self) -> int:
        if self.is_zero_to_precision():
            raise ZeroSeries("series is zero to its retained precision")
        return self.valuation

    def leading(self) -> Q:
        return self.coeffs[0] if not self.is_zero_to_precision() else QZERO

    def coeff(self, exponent) -> Q:
        """Coefficient of t**exponent; exponents beyond the window raise."""
        if exponent >= self.end:
            raise PrecisionExhausted(
                f"coefficient of t^{exponent} not retained (window ends at {self.end})"
            )
        idx = exponent - self.valuation
        if idx < 0:
            return QZERO
        return self.coeffs[idx]

    def __neg__(self):
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            # exact scalar: window [min(0, val), end)
            if self.end <= 0:
                raise PrecisionExhausted("constant term lies beyond the retained window")
            other = LaurentSeries(0, (Q(other),) + (QZERO,) * (self.end - 1))
        end = min(self.end, other.end)
        val = min(self.valuation, other.valuation)
        if end <= val:
            raise PrecisionExhausted("no overlapping retained window in sum")
        out = [QZERO] * (end - val)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.valuation + i
                if e < end:
                    out[e - val] += c
        return LaurentSeries(val, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            prec = min(self.precision, other.precision)
            if prec <= 0:
                raise PrecisionExhausted("no retained precision in product")
            out = [QZERO] * prec
            for i, a in enumerate(self.coeffs):
                if a == 0 or i >= prec:
                    continue
                top = prec - i
                for j, b in enumerate(other.coeffs[:top]):
                    if b != 0:
                        out[i + j] += a * b
            return LaurentSeries(self.valuation + other.valuation, out)
        k = Q(other)
        if k == 0:
            return LaurentSeries(self.valuation, (QZERO,) * self.precision)
        return LaurentSeries(self.valuation, tuple(c * k for c in self.coeffs))

    def __pow__(self, exponent: int) -> "LaurentSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take a nonnegative integer exponent")
        return power(self, exponent, series_one(self.precision))

    def truncate(self, precision) -> "LaurentSeries":
        if precision > self.precision:
            raise PrecisionExhausted(
                f"cannot extend window from {self.precision} to {precision} terms"
            )
        return LaurentSeries(self.valuation, self.coeffs[:precision])

    def text(self) -> str:
        parts = [f"{qtext(c)}*t^{self.valuation + i}" for i, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.end})"


def series_one(precision: int) -> LaurentSeries:
    return LaurentSeries(0, (QONE,) + (QZERO,) * (precision - 1))


def series_reciprocal(series: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse, computed by the standard recurrence.

    The input must have a nonzero leading coefficient within its window.
    """
    if series.is_zero_to_precision():
        raise ZeroSeries("cannot invert a series with no visible leading term")
    prec = series.precision
    c = series.coeffs
    lead_inv = QONE / c[0]
    out = [lead_inv] + [QZERO] * (prec - 1)
    for n in range(1, prec):
        acc = QZERO
        for k in range(1, n + 1):
            if c[k] != 0:
                acc += c[k] * out[n - k]
        out[n] = -acc * lead_inv
    return LaurentSeries(-series.valuation, out)
