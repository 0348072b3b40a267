"""Affine degenerations of the model: multiplicative and additive groups.

The multiplicative group works in Q[z] with identity z = 1 and coordinate
y = 1 - z, so the Euler class of the weight-n representation is
chi(z^n) = 1 - z^n.  The additive group works in Q[x] with identity
x = 0 and chi(z^n) = n*x.  Both carry cyclotomic factors phi_s defined
by the divisor recursion

    prod over s | n of phi_s = [n](coordinate),

which for the multiplicative group recovers the classical cyclotomic
polynomials, and for the additive group makes every phi_s with s >= 2 a
constant.  `AffineGroup` is a window backend for `tmodel.QWindow`: a
vertex of rational functions with poles capped along the cyclotomic loci,
and one residue window per cyclotomic factor of positive degree.
"""

from __future__ import annotations

from math import lcm

from .errors import ValidationFailed
from .exactcore import (Poly, Q, QONE, _Frozen, _label, _whole, divisors_of, poly_gcd,
                        poly_inverse_mod, power)
from .tmodel import Representation

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"

_ONE = Poly([1])


class LaurentFn(_Frozen):
    """Rational function in one variable, kept in lowest terms.

    The denominator is monic, the fraction is gcd-reduced, and zero is
    stored as 0/1, so equal functions compare equal structurally.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly([Q(num)])
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly([Q(den)])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), _ONE
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num = num // g
                den = den // g
            lead = den.leading()
            if lead != 1:
                inv = QONE / lead
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __add__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return LaurentFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentFn(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return LaurentFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return LaurentFn(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "LaurentFn":
        if not isinstance(exponent, int):
            raise ValueError("rational function powers take integer exponents")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, LaurentFn(_ONE))

    def __eq__(self, other):
        other = _coerce_fn(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def text(self) -> str:
        return f"{self.num.text()} / {self.den.text()}"


def _coerce_fn(value):
    if isinstance(value, LaurentFn):
        return value
    if isinstance(value, (int, type(Q(0)))):
        return LaurentFn(Poly([Q(value)]))
    if isinstance(value, Poly):
        return LaurentFn(value)
    return None


class AffineGroup(_Frozen):
    """A one-dimensional affine group law with its cyclotomic factors."""

    __slots__ = ("kind", "_phi")

    def __init__(self, kind: str):
        if kind not in (MULTIPLICATIVE, ADDITIVE):
            raise ValueError(f"unknown affine group kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_phi", {})

    def __repr__(self):
        return f"AffineGroup({self.kind})"

    def n_series(self, n: int) -> Poly:
        """The multiplication-by-n series [n] in the chosen coordinate."""
        if n < 1:
            raise ValueError("the n-series needs n >= 1")
        if self.kind == MULTIPLICATIVE:
            return Poly([1] + [0] * (n - 1) + [-1])  # 1 - z^n
        return Poly([0, n])  # n * x

    def phi(self, s: int) -> Poly:
        """Cyclotomic factor of exact order s, from the divisor recursion.

        The product of phi_d over d | n equals [n], so phi_s is the new
        factor at level s: [s] divided by all proper-divisor factors.
        The division is checked to be exact.
        """
        if s < 1:
            raise ValueError("cyclotomic factors are indexed by s >= 1")
        cached = self._phi.get(s)
        if cached is not None:
            return cached
        proper = _ONE
        for d in divisors_of(s)[:-1]:
            proper = proper * self.phi(d)
        total = self.n_series(s)
        factor = total // proper
        if not (factor * proper - total).is_zero():
            raise ArithmeticError(f"cyclotomic recursion failed at level {s}")
        self._phi[s] = factor
        return factor

    def class_size(self, s: int) -> int:
        """Degree of phi_s: how many conditions the class imposes."""
        return self.phi(s).degree

    def euler_class(self, weights) -> LaurentFn:
        """Euler class of a (virtual) representation, chi = prod [n]^(a_n).

        A trivial summand has vanishing Euler class, so any fixed part
        makes the whole product zero.
        """
        fixed = 0
        if isinstance(weights, Representation):
            fixed = weights.fixed_part
            weights = weights.weights
        if fixed:
            return LaurentFn(Poly())
        num, den = _ONE, _ONE
        for n in sorted(weights):
            a = _whole(weights[n])
            if a == 0:
                continue
            p = self.n_series(_label(n))
            if a > 0:
                num = num * p.pow(a)
            else:
                den = den * p.pow(-a)
        return LaurentFn(num, den)

    # ----- backend interface for tmodel.QWindow -----

    def default_caps(self, exp: dict) -> dict:
        return {
            s: max(w, 0)
            for s, w in exp.items()
            if self.class_size(s) > 0 and w > 0
        }

    def window_floor(self, exp: dict) -> int:
        """Vertex size before caps: room for chi^(+-1) plus slack."""
        return sum(abs(w) * self.class_size(s) for s, w in exp.items()) + 4

    def setup(self, exp: dict, caps: dict) -> "_AffineAssembly":
        return _AffineAssembly(self, exp, caps)


class _AffineAssembly:
    """Assembly context: one vertex window plus CRT residue blocks."""

    def __init__(self, group: AffineGroup, exp: dict, caps: dict):
        self.group = group
        self.exp = dict(exp)
        self.caps = dict(caps)
        classes = sorted(set(self.exp) | set(self.caps))
        # unit factors (constant phi) move no poles, so they are skipped
        self.active = [s for s in classes if group.class_size(s) > 0]
        self.floor = group.window_floor(self.exp)
        denominator = _ONE
        capped = 0
        for s in self.active:
            c = self.caps.get(s, 0)
            if c:
                denominator = denominator * group.phi(s).pow(c)
                capped += c * group.class_size(s)
        self.denominator = denominator
        self.source_dim = self.floor + capped
        self.blocks = []
        self._depth = {}
        for s in self.active:
            depth = self.caps.get(s, 0) - self.exp.get(s, 0)
            if depth >= 1:
                self._depth[s] = depth
                self.blocks.append((s, depth, depth * group.class_size(s)))
        total_rows = sum(rows for _, _, rows in self.blocks)
        # CRT surjectivity holds as soon as the vertex is at least as wide
        # as the product of the block moduli; the floor keeps that true.
        self.certified = (
            self.source_dim >= max(total_rows, 1)
            and all(
                self.caps.get(s, 0) >= self.exp.get(s, 0) for s in self.active
            )
        )

    def element(self, vec) -> LaurentFn:
        return LaurentFn(Poly(vec), self.denominator)

    def block_matrix(self, s: int) -> tuple[int, tuple]:
        depth = self._depth[s]
        modulus = self.group.phi(s).pow(depth)
        other = _ONE
        for r in self.active:
            c = self.caps.get(r, 0)
            if r != s and c:
                other = other * self.group.phi(r).pow(c)
        inv_other = poly_inverse_mod(other % modulus, modulus)
        rows = depth * self.group.class_size(s)
        columns = []
        for j in range(self.source_dim):
            residue = (Poly.x_power(j) * inv_other) % modulus
            columns.append([residue.coeff(i) for i in range(rows)])
        den = lcm(*[c.denominator for column in columns for c in column])
        return den, tuple(zip(*([c.numerator * (den // c.denominator) for c in column]
                                for column in columns)))

    def torsion_rep(self, s: int, i: int) -> LaurentFn:
        # honest representative, untwisted back by phi^w: pole depth cap(s)
        cap = self._depth[s] + self.exp.get(s, 0)
        return LaurentFn(Poly.x_power(i), self.group.phi(s).pow(cap))


def multiplicative_group() -> AffineGroup:
    return AffineGroup(MULTIPLICATIVE)


def additive_group() -> AffineGroup:
    return AffineGroup(ADDITIVE)


class AffineSphereModule:
    """The homology of a sphere over an affine backend: free of rank one.

    For a representation W with no trivial summand, S^W contributes a
    free module on chi(W)^(-1) and S^(-W) one on chi(W); nothing lives
    in odd degree.
    """

    __slots__ = ("group", "rep", "sign", "generator", "rank", "odd_dim")

    def __init__(self, group, rep, sign, generator):
        self.group = group
        self.rep = rep
        self.sign = sign
        self.generator = generator
        self.rank = 1
        self.odd_dim = 0

    def text(self) -> str:
        which = "S^W" if self.sign == 1 else "S^-W"
        return f"free of rank 1 on {self.generator.text()} ({which})"

    def __repr__(self):
        return f"AffineSphereModule({self.text()})"


def affine_sphere_module(group: AffineGroup, rep, sign: int = 1) -> AffineSphereModule:
    """Model of the sphere S^(sign * W) over an affine group.

    Requires W^T = 0: a trivial summand kills the Euler class, and the
    sphere is then no longer a twist of the unit.
    """
    if not isinstance(rep, Representation):
        rep = Representation(rep)
    if sign not in (1, -1):
        raise ValueError("sign selects S^W (+1) or S^-W (-1)")
    if rep.fixed_part:
        raise ValidationFailed(
            "sphere modules need a representation with no trivial summand"
        )
    chi = group.euler_class(rep)
    generator = chi.inverse() if sign == 1 else chi
    return AffineSphereModule(group, rep, sign, generator)
