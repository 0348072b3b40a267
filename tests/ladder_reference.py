"""The rational frame ladder and Fraction window sweep, kept as the
reference the integer ladder (`curvefield.ladder_frames`,
`QuotientWindow.ladder_columns` and `coords`) is tested against.

Frame vectors are placed slot by slot in Fractions, reducers are built
from t_s ** depth and kept as the (slot, c / lead) pairs below a distinct
top, and a sweep subtracts c times those pairs.
"""

from fractions import Fraction
from math import lcm

from ellt.curvefield import FuncElt
from ellt.errors import EllTError, UnsupportedPoles
from ellt.exactcore import Poly, QZERO


def reference_ladder_frames(h, count, dim):
    """The rational frame vectors of m_k * h, k < count: x^a h puts u and
    v a rungs up the ladder and x^a y h puts v * rhs and u there."""
    if not h.is_pure():
        raise ValueError("frame coordinates need a pure element")
    u, v = h.u.coeffs, h.v.coeffs
    vr = (h.v * h.curve.rhs).coeffs if count > 2 else ()
    out = []
    for k in range(count):
        a, xs, ys = (k // 2 - 1, vr, u) if k and not k % 2 else ((k + 1) // 2, u, v)
        vec = [QZERO] * dim
        if xs:
            if max(2 * (a + len(xs)) - 3, 0) >= dim:
                j = next(j for j, c in enumerate(xs, a) if c and max(2 * j - 1, 0) >= dim)
                raise ValueError(f"x^{j} overflows a frame of dimension {dim}")
            if a:
                vec[2 * a - 1:2 * (a + len(xs)) - 1:2] = xs
            else:
                vec[0] = xs[0]
                vec[1:2 * len(xs) - 1:2] = xs[1:]
        if ys:
            if 2 * (a + len(ys)) >= dim:
                j = next(j for j, c in enumerate(ys, a) if c and 2 * j + 2 >= dim)
                raise ValueError(f"x^{j} y overflows a frame of dimension {dim}")
            vec[2 * a + 2:2 * (a + len(ys)) + 1:2] = ys
        out.append(vec)
    return out


def scaled_rows(rows):
    """(den, integer rows): rational rows times the lcm den of their
    denominators, the form the integer ladder returns."""
    den = lcm(*[Fraction(c).denominator for row in rows for c in row])
    return den, [[int(c * den) for c in row] for row in rows]


def reference_reducers(win):
    """(sweep, complement): the Fraction reducers of a window, built from
    t_s ** depth, each the nonzero (slot, c / lead) pairs below its top."""
    cache = win.cache
    sub_shift = cache.t(win.s) ** win.depth if win.s >= 2 else cache.curve.one()
    reducers = {}
    for vec in reference_ladder_frames(sub_shift, win.residual_dim, win.frame_dim):
        top = max(k for k, c in enumerate(vec) if c != 0)
        assert top not in reducers
        lead = vec[top]
        reducers[top] = [(k, vec[k] / lead) for k in range(top) if vec[k]]
    complement = sorted(set(range(win.frame_dim)) - set(reducers))
    return sorted(reducers.items(), reverse=True), complement


def reference_sweep(reference, vec):
    sweep, complement = reference
    vec = [Fraction(c) for c in vec]
    for top, pairs in sweep:
        c = vec[top]
        if c:
            for k, r in pairs:
                vec[k] -= c * r
    return [vec[k] for k in complement]


def reference_coords(win, reference, f):
    shifted = f * win.shift
    if not shifted.is_pure():
        raise UnsupportedPoles("element carries poles beyond the window divisor")
    try:
        vec = reference_ladder_frames(shifted, 1, win.frame_dim)[0]
    except ValueError as exc:
        raise UnsupportedPoles(str(exc)) from None
    return reference_sweep(reference, vec)


def pure_element(curve, vec):
    """sum_k vec[k] m_k, the pure element with frame vector vec: m_k is 1
    at slot 0, x^j at slot 2j - 1 and x^j y at slot 2j + 2."""
    return FuncElt(curve, Poly([vec[0]] + list(vec[1::2])), Poly(vec[2::2]), Poly.const(1))


def frame_element(win, vec):
    """sum_k vec[k] m_k / t*(win.divisor), the element whose frame vector
    in the window's frame is vec."""
    return pure_element(win.cache.curve, vec) * win.shift.inverse()


def outcome(compute):
    """The value, or the error type and message, so refusals compare too."""
    try:
        return "value", compute()
    except (ValueError, EllTError) as exc:
        return type(exc).__name__, str(exc)
