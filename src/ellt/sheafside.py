"""The sheaf side: sections over torsion-complement opens and the
comparison with model windows.

Opens here are complements of finitely many isogeny classes.  Sections
of a divisor sheaf over such an open form the colimit of Riemann-Roch
spaces as the poles on the removed classes grow; one `cap` fixes a
finite stage.  The model side cuts these stages out with the integer
rows of suspended windows; `roundtrip` certifies, in the frame of each
window's cap divisor, that those rows annihilate independent section
rows, and `glue_check` runs Mayer-Vietoris on one cover.
"""

from __future__ import annotations

from operator import mul

from .curvefield import TorsionDivisor, _as_divisor, h_dims, ladder_frames
from .eatheory import EATheory, _weights_payload, rep_to_divisor
from .errors import CapTooSmall, ValidationFailed
from .exactcore import Matrix, _Frozen, _label, _whole, matrix_rank
from .tmodel import ASObject, AlmostConstant, QWindow, _coerce_weight, suspend


class OpenSet(_Frozen):
    """Complement of the union of finitely many isogeny classes.

    `pi` records the excluded classes by their exact orders.  Note the
    reversal: the union of two opens excludes the intersection of their
    class sets, the intersection excludes the union.
    """

    __slots__ = ("pi",)

    def __init__(self, pi=()):
        classes = sorted({_label(s) for s in pi})
        if classes and classes[0] < 1:
            raise ValidationFailed("isogeny classes are labelled by orders >= 1")
        object.__setattr__(self, "pi", tuple(classes))

    def is_everything(self) -> bool:
        return not self.pi

    def union(self, other: "OpenSet") -> "OpenSet":
        return OpenSet(set(self.pi) & set(other.pi))

    def intersect(self, other: "OpenSet") -> "OpenSet":
        return OpenSet(set(self.pi) | set(other.pi))

    def indicator(self, cap: int) -> dict:
        return {s: cap for s in self.pi}

    def text(self) -> str:
        if not self.pi:
            return "the whole curve"
        return "complement of classes {}".format(list(self.pi))

    def __repr__(self):
        return f"OpenSet({list(self.pi)})"


class SectionWindow:
    """Sections of O(D) over an open, at one finite pole stage.

    The space is H^0(O(allowed)), spanned by the monomials m_k over
    t*(allowed).  It stays in that frame: `basis` builds the canonical
    elements only when read, and `frame_rows` places them in a larger
    space without any inversion.
    """

    __slots__ = ("divisor", "open_set", "cap", "allowed", "dim", "cache", "_basis")

    def __init__(self, divisor, open_set, cap, allowed, cache):
        self.divisor = divisor
        self.open_set = open_set
        self.cap = cap
        self.allowed = allowed
        self.dim = h_dims(allowed)[0]
        self.cache = cache
        self._basis = None

    @property
    def basis(self) -> list:
        if self._basis is None:
            self._basis = self.cache.rr_basis(self.allowed)
        return self._basis

    def frame_rows(self, target) -> list[tuple]:
        """Coordinate rows of the basis inside H^0(O(target)), for a target
        at least `allowed` on every class, all scaled by one positive
        integer (the `ladder_frames` denominator), which keeps every rank.

        Row k is m_k * t*(target - allowed), a pure element, so no inverse
        and no gcd is needed.  A target below `allowed` on some class does
        not contain the space, and is refused.
        """
        gap = target - self.allowed
        if not gap.is_effective():
            raise ValidationFailed(
                f"frame of {target!r} does not contain the sections of "
                f"{self.allowed!r}"
            )
        _, rows = ladder_frames(self.cache.t_star(gap), self.dim, h_dims(target)[0])
        return [tuple(vec) for vec in rows]

    def report(self) -> dict:
        return {
            "D": self.divisor.payload(),
            "pi": list(self.open_set.pi),
            "cap": self.cap,
            "dim": self.dim,
            "basis": [f.text() for f in self.basis],
        }


def sections(cache, divisor, open_set: OpenSet, cap: int = 0) -> SectionWindow:
    """Sections of O(D) over the open set, with poles on the removed
    classes capped at `cap`: the Riemann-Roch space of the fattened
    divisor."""
    if _whole(cap, "pole caps") < 0:
        raise ValidationFailed("the pole cap is nonnegative")
    divisor = _as_divisor(divisor)
    allowed = divisor + TorsionDivisor(open_set.indicator(cap))
    return SectionWindow(divisor, open_set, cap, allowed, cache)


def ma_eval(x: ASObject, open_set: OpenSet, cap: int = 0, caps=None) -> QWindow:
    """Evaluate the sheaf of a model object on an open set.

    Sections over the complement of some classes are maps out of the
    zero sphere after letting poles grow there, so this is the certified
    q-window of the object suspended by cap on every removed class.  Its
    `hom_dim` counts the sections, and its integer `rows` cut them out of
    H^0(O(E)), in the basis m_k / t*(E) for the window's cap divisor E
    (`ctx.cap_divisor`).  The naive alternative of dropping matrix rows
    is wrong as soon as a weight is negative; suspension keeps the rows
    and the certificate honest.
    """
    if cap < 0:
        raise ValidationFailed("the pole cap is nonnegative")
    delta = AlmostConstant(0, open_set.indicator(cap))
    shifted = suspend(x, delta)
    if caps is not None:
        caps = dict(caps)
        for s in open_set.pi:
            caps[s] = caps.get(s, 0) + cap
    window = shifted.q_window(caps)
    if not window.certified:
        raise CapTooSmall(
            f"evaluation over {open_set.text()} has no certificate at caps "
            f"{window.caps}",
            caps=window.caps,
        )
    return window


def sa_build(theory: EATheory, divisor) -> ASObject:
    """Model object of a divisor sheaf: the base object suspended by the
    divisor, window for window; its kernels are the section spaces."""
    divisor = _as_divisor(divisor)
    coeffs = {s: n for s, n in divisor.coeffs.items() if n}
    name = "SA({})".format(
        " + ".join(f"{n}<{s}>" for s, n in sorted(coeffs.items())) or "0"
    )
    return ASObject(theory.backend, AlmostConstant(0, coeffs), name=name)


def _span_rows(hom: QWindow, sec: SectionWindow) -> list[tuple]:
    """The section basis as integer rows in the frame of the window.

    The window's columns are coordinates in H^0(O(E)) for its cap
    divisor E, so with `hom.hom_dim == sec.dim` the two spaces agree
    exactly when the window's rows annihilate these rows and they have
    rank `sec.dim`.  E must dominate `sec.allowed`; otherwise
    `frame_rows` raises ValidationFailed.
    """
    return sec.frame_rows(hom.ctx.cap_divisor)


def glue_check(cache, divisor, left: OpenSet, right: OpenSet,
               cap: int = 0) -> dict:
    """Mayer-Vietoris on one cover at one pole stage.

    Exactness in the middle: sections over the two pieces intersect in
    exactly the sections over their union.  The cokernel of the
    difference map is then forced to the h^1 defect of the four fattened
    divisors; both are checked, and failure raises.
    """
    divisor = _as_divisor(divisor)
    va = sections(cache, divisor, left, cap)
    vb = sections(cache, divisor, right, cap)
    v_union = sections(cache, divisor, left.union(right), cap)
    v_inter = sections(cache, divisor, left.intersect(right), cap)

    rows = va.frame_rows(v_inter.allowed) + vb.frame_rows(v_inter.allowed)
    rank = matrix_rank(Matrix(tuple(rows))) if rows else 0
    if rank != va.dim + vb.dim - v_union.dim:
        raise ValidationFailed(
            "sections fail to glue: the pieces overlap in dimension "
            f"{va.dim + vb.dim - rank}, the union of opens gives {v_union.dim}"
        )
    coker = v_inter.dim - rank
    expected = (
        h_dims(v_inter.allowed)[1]
        + h_dims(v_union.allowed)[1]
        - h_dims(va.allowed)[1]
        - h_dims(vb.allowed)[1]
    )
    if coker != expected:
        raise ValidationFailed(
            f"difference map has cokernel {coker}, duality forces {expected}"
        )
    return {
        "D": divisor.payload(),
        "left": list(left.pi),
        "right": list(right.pi),
        "cap": cap,
        "dims": {
            "left": va.dim,
            "right": vb.dim,
            "union": v_union.dim,
            "intersection": v_inter.dim,
        },
        "rank": rank,
        "coker": coker,
        "ok": True,
    }


DEFAULT_OPENS = (OpenSet(), OpenSet({1}), OpenSet({2}), OpenSet({1, 2}))


def roundtrip(theory: EATheory, weights, opens=None, caps=(0, 1, 2, 3)) -> dict:
    """Sheaf to model and back.

    Builds the model object of D(W), confirms it is window-equal to the
    suspension of the base object by W, then evaluates it over every
    sampled open at every cap and compares with the honest section
    space: same dimension, same span.  Any mismatch raises.
    """
    divisor = rep_to_divisor(weights)
    obj = sa_build(theory, divisor)
    susp = suspend(theory.base_object, _coerce_weight(weights).minus_tail())
    if obj.weight != susp.weight:
        raise ValidationFailed(
            "the divisor object and the suspended base object disagree: "
            f"{obj.weight.text()} against {susp.weight.text()}"
        )
    if opens is None:
        opens = DEFAULT_OPENS
    cache = theory.cache
    rows_out = []
    for piece in opens:
        dims = []
        for cap in caps:
            sec = sections(cache, divisor, piece, cap)
            hom = ma_eval(obj, piece, cap)
            if hom.hom_dim != sec.dim:
                raise ValidationFailed(
                    f"model gives dimension {hom.hom_dim} over {piece.text()} at "
                    f"cap {cap}, sections give {sec.dim}"
                )
            if sec.dim:
                span = _span_rows(hom, sec)
                if (any(sum(map(mul, row, v)) for row in hom.rows for v in span)
                        or matrix_rank(span) != sec.dim):
                    raise ValidationFailed(
                        f"model and sheaf sections over {piece.text()} at cap "
                        f"{cap} span different spaces"
                    )
            dims.append(sec.dim)
        rows_out.append({"pi": list(piece.pi), "dims": dims})
    return {
        "W": _weights_payload(weights),
        "D": divisor.payload(),
        "caps": list(caps),
        "opens": rows_out,
        "ok": True,
    }
