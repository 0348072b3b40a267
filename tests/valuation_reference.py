"""The valuation path by membership tests, kept as the reference for the
closed form of `CycCache.ord_along`.

An element lies in H^0(O(D)) when shifting it by t*(D) leaves poles only
at e, no deeper than deg D.  The valuation along a class is then found
by raising the order on the class, inside an enclosure of the other
poles, until the element leaves the space.
"""

from ellt.curvefield import FuncElt, TorsionDivisor, exact_order_count, single_class
from ellt.errors import UnsupportedPoles


def membership(cache, elt: FuncElt, divisor: TorsionDivisor,
               support: dict[int, int] | None = None) -> bool:
    """Exact test: does elt lie in H^0(O(divisor))?

    Shifting by t*(divisor) moves every allowed pole to e, where the
    answer is a degree check on the canonical form.  A caller that
    already holds `pole_support(elt)` passes it as `support`.
    """
    if elt.is_zero():
        return True
    if support is None:
        cache.pole_support(elt)  # raises UnsupportedPoles for off-class poles
    shifted = elt * cache.t_star(divisor)
    if not shifted.is_pure():
        return False
    return shifted.pole_order_at_e() <= divisor.degree


def reference_ord_along(cache, elt, s):
    """The `membership` loop: raise the order on the class until the
    element leaves the space."""
    support = cache.pole_support(elt)
    enclosing = {r: n for r, n in support.items() if r != s}
    num_deg = max(2 * elt.u.degree, 3 + 2 * elt.v.degree)
    zero_cap = (num_deg + 2 * elt.d.degree) // exact_order_count(s) + 1
    m = -(support.get(s, 0) + 1)
    if not membership(cache, elt, TorsionDivisor(enclosing) + single_class(s, -m)):
        raise UnsupportedPoles("cannot enclose poles")
    while m < zero_cap and membership(
        cache, elt, TorsionDivisor(enclosing) + single_class(s, -(m + 1))
    ):
        m += 1
    return m
