"""The rational frame ladder and Fraction window sweep, kept as the
reference the integer ladder (`curvefield.ladder_frames`,
`QuotientWindow.ladder_columns` and `coords`) and the integer block rows
(`block_matrix`) are tested against.

Frame vectors are placed slot by slot in Fractions, reducers are built
from t_s ** depth and kept as the (slot, c / lead) pairs below a distinct
top, and a sweep subtracts c times those pairs.
"""

from fractions import Fraction
from math import lcm

from ellt.curvefield import FuncElt
from ellt.errors import EllTError, UnsupportedPoles
from ellt.exactcore import Poly, QZERO
from ellt.tmodel import dim_fn


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


def product_multiplier(ctx, s, win):
    """The block multiplier as the product of t_r ** e over the window
    divisor, the path the multiplier memo replaces."""
    cache, w = ctx.cache, ctx.exp.get(s, 0)
    out = cache.coordinate.base ** w if s == 1 and w else cache.curve.one()
    for r, c in win.divisor.coeffs.items():
        e = c - ctx.caps.get(r, 0) + (w if r == s else 0)
        if r >= 2 and e:
            out = out * cache.t(r) ** e
    return out


def reference_block(ctx, s):
    """The class-s block of an elliptic assembly as Fraction rows: the
    product multiplier's frame vectors, swept by the Fraction reducers."""
    win = ctx._block(s)[0]
    reference = reference_reducers(win)
    columns = [reference_sweep(reference, vec) for vec in reference_ladder_frames(
        product_multiplier(ctx, s, win), ctx.source_dim, win.frame_dim)]
    return tuple(zip(*columns))


def rational_rows(den, rows):
    """Integer rows over one denominator, read back as Fraction rows; a
    non-int entry or a denominator below 1 is refused."""
    if den < 1 or any(type(c) is not int for row in rows for c in row):
        raise TypeError(f"expected int rows over a positive den, got {den!r}")
    return tuple(tuple(Fraction(c, den) for c in row) for row in rows)


def weight_family(max_class, budget):
    """Every weight on classes <= max_class with total |a_n| <= budget."""
    family = [{}]
    for n in range(1, max_class + 1):
        family = [{**w, n: a} if a else w for w in family for a in range(-budget, budget + 1)
                  if sum(map(abs, w.values())) + abs(a) <= budget]
    return family


def sweep_windows(theory):
    """The windows of one sweep pass (the `rr_sweep` benchmark's): every
    weight of size <= 3 on classes <= 6 at its default caps (its negative
    is in the family too, so homology and cohomology are both covered),
    and every weight of size <= 2 on classes <= 3 at its default caps
    plus 0, 1 and 2, the stabilisation probes."""
    windows = [theory.window(w) for w in weight_family(6, 3)]
    for w in weight_family(3, 2):
        caps = theory.backend.default_caps(dim_fn(w).exponent_map())
        windows += [theory.window(w, {s: c + bump for s, c in caps.items()})
                    for bump in (0, 1, 2)]
    return windows


def outcome(compute):
    """The value, or the error type and message, so refusals compare too."""
    try:
        return "value", compute()
    except (ValueError, EllTError) as exc:
        return type(exc).__name__, str(exc)
