"""The residue path on Laurent tails and Newton traces, kept as the
reference for the residue-theorem one in `curvefield`.

A class residue splits the denominator into squarefree factors, inverts
the local Laurent tail of each factor meeting the marker in Q[x]/(g) and
sums the residues over the shared roots as a trace read from Newton power
sums.  The residue at e multiplies the expansion of f by that of
kappa dx/y in the chart and reads the t^-1 coefficient.  kappa comes
from the series of dx/y and dt_e in the chart (`reference_diff_factor`),
not from `CycCache.diff_factor`.
"""

from ellt.curvefield import CycCache, FuncElt
from ellt.errors import ValidationFailed
from ellt.exactcore import (
    LaurentSeries,
    Poly,
    Q,
    QONE,
    QZERO,
    poly_gcd,
    poly_inverse_mod,
    series_reciprocal,
)


def _derivative(p: Poly) -> Poly:
    return Poly(tuple(c * i for i, c in enumerate(p.coeffs) if i))


def series_derivative(s: LaurentSeries) -> LaurentSeries:
    """Term-by-term d/dt; O(t^end) becomes O(t^(end-1))."""
    out = [c * (s.valuation + i) for i, c in enumerate(s.coeffs)]
    return LaurentSeries(s.valuation - 1, out)


def reference_diff_factor(cache: CycCache) -> Q:
    """Scalar kappa with Dt = kappa * dx / y, fixed by Dt/dt_e -> 1 at e,
    from the series of x, y and t_e to 8 terms."""
    prec = 8
    x, y = cache.chart(prec)
    ratio = series_derivative(x) * series_reciprocal(y)
    te = cache.base_series(prec)
    ratio = ratio * series_reciprocal(series_derivative(te))
    if ratio.exact_valuation() != 0:
        raise ValidationFailed("invariant differential normalisation failed")
    return QONE / ratio.coeff(0)


def power_sums(g: Poly, count: int) -> list:
    """Newton power sums p_0..p_{count-1} of the roots of a monic g.

    p_k is the sum of k-th powers of the roots (with multiplicity), an
    exact rational read off the coefficients without root-finding.
    """
    if g.is_zero() or g.leading() != 1:
        raise ValueError("power sums need a monic polynomial")
    deg = g.degree
    sums = [Q(deg)]
    for k in range(1, count):
        if k <= deg:
            acc = -k * g.coeff(deg - k)
            for i in range(1, k):
                acc -= g.coeff(deg - i) * sums[k - i]
        else:
            acc = QZERO
            for i in range(1, deg + 1):
                acc -= g.coeff(deg - i) * sums[k - i]
        sums.append(acc)
    return sums


def trace_in_quotient(h: Poly, g: Poly) -> Q:
    """Trace of multiplication by h on Q[x]/(g) for monic g, deg g >= 1."""
    if g.degree < 1:
        raise ValueError("quotient ring needs a modulus of positive degree")
    h = h % g
    if h.is_zero():
        return QZERO
    sums = power_sums(g, h.degree + 1)
    total = QZERO
    for k in range(h.degree + 1):
        total += h.coeff(k) * sums[k]
    return total


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun-style decomposition: p = lead * prod(f_i ** m_i) with the f_i
    monic, squarefree and pairwise coprime.  Returns [(f_i, m_i), ...]."""
    if p.degree < 1:
        return []
    p = p.monic()
    out = []
    m = 1
    while p.degree >= 1:
        g = poly_gcd(p, _derivative(p))
        f = p // g  # product of factors of multiplicity >= m, each once
        # peel off factors whose multiplicity equals m
        h = poly_gcd(f, g)
        factor = f // h
        if factor.degree >= 1:
            out.append((factor.monic(), m))
        p = g
        m += 1
    return out


def _taylor_mod(p: Poly, g: Poly, count: int) -> list[Poly]:
    """First `count` Taylor coefficients p^(k)(alpha)/k! of p around a
    root alpha of g, each represented as a polynomial reduced mod g."""
    out = []
    cur = p
    fact = QONE
    for k in range(count):
        if k:
            cur = _derivative(cur)
            fact = fact * k
        out.append(cur.scale(QONE / fact) % g)
    return out


def trace_residues(num: Poly, den: Poly, marker: Poly) -> Q:
    """Sum of residues of (num/den) dx over the roots of `marker`.

    marker must be monic and squarefree.  No roots are ever extracted:
    for each squarefree factor of den meeting the marker, the local
    Laurent tail is inverted in Q[x]/(g) and the residue sum over the
    shared roots comes out as a trace, hence an exact rational.
    """
    if marker.degree < 1 or marker.leading() != 1:
        raise ValueError("marker must be monic of positive degree")
    if num.is_zero():
        return QZERO
    common = poly_gcd(num, den)
    if common.degree >= 1:
        num = num // common
        den = den // common
    total = QZERO
    for factor, mult in squarefree_decomposition(den):
        g = poly_gcd(factor, marker)
        if g.degree < 1:
            continue
        dens = _taylor_mod(den, g, 2 * mult)
        if any(not c.is_zero() for c in dens[:mult]):
            raise ArithmeticError("pole multiplicity disagrees with its factor")
        # invert the unit series h = den/(x - alpha)^mult over Q[x]/(g)
        inv = [poly_inverse_mod(dens[mult], g)]
        for k in range(1, mult):
            acc = Poly()
            for i in range(1, k + 1):
                acc = (acc + dens[mult + i] * inv[k - i]) % g
            inv.append((-(inv[0] * acc)) % g)
        nums = _taylor_mod(num, g, mult)
        combo = Poly()
        for j in range(mult):
            combo = (combo + nums[j] * inv[mult - 1 - j]) % g
        total += trace_in_quotient(combo, g)
    return total


def residue_at_e(cache: CycCache, f: FuncElt) -> Q:
    """Residue of f * Dt at the identity, for the invariant differential
    Dt = kappa dx / y normalised to agree with dt_e there (kappa =
    `reference_diff_factor(cache)`)."""
    if f.is_zero() or f.ord_e() >= 0:
        return QZERO
    work = f.pole_order_at_e() + 2
    fs = cache.expand(f, work)
    x, y = cache.chart(work + 4)
    # Dt = kappa dx/y, so res_e(f Dt) is the t^-1 coefficient of
    # f(t) * kappa * x'(t)/y(t)
    unit = series_derivative(x) * series_reciprocal(y)
    series = fs * unit * reference_diff_factor(cache)
    return series.coeff(-1)


def residue_along(cache: CycCache, f: FuncElt, s: int) -> Q:
    """Sum of residues of f * Dt over the points of exact order s.

    Writing f = (u + v y)/d, the summand f * kappa dx / y splits into
    u/(dy) (odd under y -> -y) plus v/d (even).  A class is stable under
    the flip, so odd residues cancel in pairs, and at 2-torsion, where
    the flip fixes the point, they vanish outright.  What remains is a
    differential pulled back from the x-line, where each branch of the
    double cover contributes one copy: twice a trace over the class
    polynomial.
    """
    if s == 1:
        return residue_at_e(cache, f)
    if f.is_zero() or f.v.is_zero():
        return QZERO
    return 2 * reference_diff_factor(cache) * trace_residues(f.v, f.d, cache.class_poly(s))
