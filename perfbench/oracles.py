"""Expected answers computed without the library.

Every job the benchmark runs is checked against these.  They use only
`fractions` and textbook formulas (Riemann-Roch degree counts, the
classical division polynomial recursion, cyclotomic degrees), so a bug
in the code under test cannot hide by agreeing with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def class_size(s: int) -> int:
    """Points of exact order s on an elliptic curve: s^2 prod (1 - 1/p^2)."""
    size = s * s
    for p in _prime_factors(s):
        size = size // (p * p) * (p * p - 1)
    return size


def totient(s: int) -> int:
    out = s
    for p in _prime_factors(s):
        out = out // p * (p - 1)
    return out


def weight_exponents(weights: dict) -> dict:
    """Classwise exponent of S^W: e_s = sum of a_n over n divisible by s."""
    classes = {d for n, a in weights.items() if a for d in divisors(n)}
    out = {s: sum(a for n, a in weights.items() if n % s == 0) for s in classes}
    return {s: e for s, e in out.items() if e}


def weight_degree(weights: dict) -> int:
    """Degree of the divisor of S^W; sum over s | n of |A<s>| is n^2."""
    return sum(a * n * n for n, a in weights.items())


def divisor_degree(coeffs: dict) -> int:
    return sum(c * class_size(s) for s, c in coeffs.items())


def h_dims(degree: int) -> tuple[int, int]:
    """(h^0, h^1) of a torsion-class divisor of the given degree; degree
    zero is principal, since every full-class sum of points is e."""
    if degree > 0:
        return (degree, 0)
    if degree < 0:
        return (0, -degree)
    return (1, 1)


def fattened_degree(coeffs: dict, removed, cap: int) -> int:
    """Degree of D plus `cap` poles on every removed class."""
    return divisor_degree(coeffs) + cap * sum(class_size(s) for s in removed)


def torsion_count(pi) -> int:
    """|A[pi]|: points whose order divides some member of pi."""
    return sum(class_size(s) for s in {d for n in pi for d in divisors(n)})


def default_caps(weights: dict) -> dict:
    """The caps a sphere window uses by default: the positive exponents,
    or one pole at the identity when there are none."""
    caps = {s: e for s, e in weight_exponents(weights).items() if e > 0}
    return caps or {1: 1}


def coefficient_witnesses(d_min: int, d_max: int) -> list[str]:
    def dt(n):
        return "Dt" if n == 1 else f"Dt^{n}"

    out = []
    for d in range(d_min, d_max + 1):
        if d % 2 == 0:
            out.append("1" if d == 0 else dt(d // 2))
        else:
            n = (d + 1) // 2
            out.append("tau" if n == 0 else f"tau*{dt(n)}")
    return out


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficients ascending, no trailing zeros


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pscale(a: list, c) -> list:
    return _trim([x * c for x in a])


def psub(a: list, b: list) -> list:
    return padd(a, pscale(b, -1))


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def ppow(a: list, k: int) -> list:
    out = [Fraction(1)]
    for _ in range(k):
        out = pmul(out, a)
    return out


def pdiv_exact(a: list, b: list) -> list:
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[i + shift] -= c * y
        a.pop()
        _trim(a)
    if a:
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def parse_poly(text: str) -> list:
    """The library's '[c0, c1, ...]' wire format."""
    inner = text.strip()[1:-1].strip()
    return _trim([Fraction(part.strip()) for part in inner.split(",")]) if inner else []


# ---------------------------------------------------------------------------
# function field elements (u + v y) / d on y^2 = x^3 + a x + b


def parse_elt(text: str) -> tuple:
    u, v, d = text.strip()[1:-1].split(";")
    return parse_poly(u), parse_poly(v), parse_poly(d)


def elt_mul(p: tuple, q: tuple, rhs: list) -> tuple:
    u1, v1, d1 = p
    u2, v2, d2 = q
    u = padd(pmul(u1, u2), pmul(pmul(v1, v2), rhs))
    v = padd(pmul(u1, v2), pmul(u2, v1))
    return u, v, pmul(d1, d2)


def elt_equal(p: tuple, q: tuple) -> bool:
    return (pmul(p[0], q[2]) == pmul(q[0], p[2])
            and pmul(p[1], q[2]) == pmul(q[1], p[2]))


def division_polynomial(a, b, n: int) -> tuple:
    """psi_n as (u, v, [1]) from the classical recursion."""
    a, b = Fraction(a), Fraction(b)
    rhs = [b, a, Fraction(0), Fraction(1)]
    one = [Fraction(1)]
    psi = {
        0: ([], []),
        1: (one, []),
        2: ([], [Fraction(2)]),
        3: ([-a * a, 12 * b, 6 * a, Fraction(0), Fraction(3)], []),
        4: ([], [4 * (-a ** 3 - 8 * b * b), -16 * a * b, -20 * a * a,
                 80 * b, 20 * a, Fraction(0), Fraction(4)]),
    }

    def mul(p, q):
        u, v, _ = elt_mul((p[0], p[1], one), (q[0], q[1], one), rhs)
        return u, v

    def sub(p, q):
        return psub(p[0], q[0]), psub(p[1], q[1])

    def get(k):
        if k in psi:
            return psi[k]
        m = k // 2
        if k % 2:
            val = sub(mul(get(m + 2), mul(get(m), mul(get(m), get(m)))),
                      mul(get(m - 1), mul(get(m + 1), mul(get(m + 1), get(m + 1)))))
        else:
            inner = sub(mul(get(m + 2), mul(get(m - 1), get(m - 1))),
                        mul(get(m - 2), mul(get(m + 1), get(m + 1))))
            u, v = mul(get(m), inner)
            # psi_2m = psi_m * inner / (2y); the product is (y^2 * w, 0)
            if v:
                raise ArithmeticError("psi_2m numerator has a y part")
            val = ([], pscale(pdiv_exact(u, rhs), Fraction(1, 2)))
        psi[k] = val
        return val

    u, v = get(n)
    return u, v, one
