"""Weight bookkeeping and torsion windows for circle-equivariant models.

An object of the algebraic model is presented here by two pieces of data:
a backend (the "group data") that knows how to produce global sections
with bounded poles and finite windows onto each isogeny class, and a
weight function recording how far the object has been twisted away from
the unit object.  This module is generic: it assembles backend windows
into explicit matrices over Q, reads Hom and Ext dimensions off one rank,
builds kernel vectors only when read, and certifies when the finite window
already shows the stable answer.  Backends live in their own modules and
are duck-typed; the contract is spelled out on `QWindow`.
"""

from __future__ import annotations

from functools import cached_property

from .errors import CapTooSmall, ValidationFailed
from .exactcore import (
    Matrix,
    Q,
    QONE,
    QZERO,
    _echelon,
    _Frozen,
    _label,
    _whole,
    divisors_of,
    kernel_and_image,
    matrix_rank,
)


class AlmostConstant(_Frozen):
    """Integer function on isogeny classes s >= 1, constant off a finite set.

    Stored as the eventual value `tail` plus the finitely many deviating
    entries; an entry equal to the tail is dropped on construction, so
    equality of functions is equality of the stored data.
    """

    __slots__ = ("tail", "dev")

    def __init__(self, tail=0, dev=None):
        tail = _whole(tail)
        clean = {}
        for s, v in (dev or {}).items():
            s, v = _label(s), _whole(v)
            if s < 1:
                raise ValueError("classes are labelled by integers >= 1")
            if v != tail:
                clean[s] = v
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "dev", clean)

    def __call__(self, s: int) -> int:
        if s < 1:
            raise ValueError("classes are labelled by integers >= 1")
        return self.dev.get(s, self.tail)

    def is_constant(self) -> bool:
        return not self.dev

    def exponent_map(self) -> dict[int, int]:
        """Deviations measured from the tail, as a plain dict.

        For the dimension function of a representation this recovers the
        multiplicity count n_s with the trivial summand stripped off.
        """
        return {s: v - self.tail for s, v in self.dev.items()}

    def minus_tail(self) -> "AlmostConstant":
        return AlmostConstant(0, self.exponent_map())

    def __add__(self, other):
        if isinstance(other, int):
            other = AlmostConstant(other)
        if not isinstance(other, AlmostConstant):
            return NotImplemented
        dev = {}
        for s in set(self.dev) | set(other.dev):
            dev[s] = self(s) + other(s)
        return AlmostConstant(self.tail + other.tail, dev)

    __radd__ = __add__

    def __neg__(self):
        return AlmostConstant(-self.tail, {s: -v for s, v in self.dev.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = AlmostConstant(other)
        if not isinstance(other, AlmostConstant):
            return NotImplemented
        return self + (-other)

    def text(self) -> str:
        body = ", ".join(f"{s}: {self.dev[s]}" for s in sorted(self.dev))
        return f"(tail {self.tail}; {body})" if body else f"(tail {self.tail})"

    def __repr__(self):
        return f"AlmostConstant{self.text()}"

    def payload(self) -> dict:
        return {
            "tail": self.tail,
            "dev": {str(s): self.dev[s] for s in sorted(self.dev)},
        }


class Representation(_Frozen):
    """Finite-dimensional representation of the circle.

    Recorded as multiplicities of the weight spaces z^n for n >= 1 plus
    the dimension of the fixed summand.  Virtual combinations are not
    representations; pass those straight to `dim_fn` as a dict instead.
    """

    __slots__ = ("weights", "fixed_part")

    def __init__(self, weights=None, fixed_part=0):
        fixed_part = _whole(fixed_part)
        if fixed_part < 0:
            raise ValueError("fixed part is a dimension, so nonnegative")
        clean = {}
        for n, a in (weights or {}).items():
            n, a = _label(n), _whole(a)
            if n < 1:
                raise ValueError("weights are labelled by integers >= 1")
            if a < 1:
                raise ValueError(
                    "representations have multiplicities >= 1; "
                    "use dim_fn for virtual combinations"
                )
            clean[n] = a
        object.__setattr__(self, "weights", clean)
        object.__setattr__(self, "fixed_part", fixed_part)

    def dim(self) -> int:
        return sum(self.weights.values()) + self.fixed_part

    def dim_fn(self) -> AlmostConstant:
        return dim_fn(self.weights, self.fixed_part)

    def euler_exponent(self) -> AlmostConstant:
        """Multiplicity count n_s = sum of a_n over n divisible by s."""
        return dim_fn(self.weights, 0)

    def text(self) -> str:
        parts = []
        for n in sorted(self.weights):
            a = self.weights[n]
            term = f"z^{n}" if n > 1 else "z"
            parts.append(term if a == 1 else f"{a}*{term}")
        if self.fixed_part:
            parts.append(f"Q^{self.fixed_part}")
        return " + ".join(parts) if parts else "0"


def dim_fn(weights=None, fixed_part=0) -> AlmostConstant:
    """Fixed-point dimension function of a (possibly virtual) representation.

    w(s) counts the summands on which the order-s subgroup acts trivially:
    w(s) = sum of a_n over n divisible by s, plus the fixed part.  The
    tail is the fixed part, since large classes miss every finite weight.
    """
    if isinstance(weights, Representation):
        if fixed_part:
            raise ValueError("fixed part is already part of the representation")
        fixed_part = weights.fixed_part
        weights = weights.weights
    table = {}
    for n, a in (weights or {}).items():
        n, a = _label(n), _whole(a)
        if n < 1:
            raise ValueError("weights are labelled by integers >= 1")
        if a:
            table[n] = table.get(n, 0) + a
    dev = {}
    for s in {d for n in table for d in divisors_of(n)}:
        dev[s] = fixed_part + sum(a for n, a in table.items() if n % s == 0)
    return AlmostConstant(fixed_part, dev)


class EulerClassSymbol(_Frozen):
    """Formal Euler class c^w, indexed by a finitely supported exponent >= 0.

    These label the honest maps between sphere objects; multiplying
    symbols adds exponents.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: AlmostConstant):
        if not isinstance(exponent, AlmostConstant):
            exponent = AlmostConstant(0, dict(exponent))
        if exponent.tail != 0:
            raise ValueError("Euler class exponents have tail zero")
        if any(v < 0 for v in exponent.dev.values()):
            raise ValueError("Euler class exponents are nonnegative")
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def from_weights(cls, weights) -> "EulerClassSymbol":
        rep = weights if isinstance(weights, Representation) else Representation(weights)
        return cls(rep.euler_exponent())

    def is_one(self) -> bool:
        return self.exponent.is_constant()

    def __mul__(self, other):
        if not isinstance(other, EulerClassSymbol):
            return NotImplemented
        return EulerClassSymbol(self.exponent + other.exponent)

    def text(self) -> str:
        if self.is_one():
            return "c^0"
        body = ", ".join(f"{s}: {v}" for s, v in sorted(self.exponent.dev.items()))
        return f"c({body})"


def _coerce_weight(weight) -> AlmostConstant:
    """Weight function of an AlmostConstant, a Representation, a {n: a_n}
    multiplicity dict or a constant int; anything else is a TypeError."""
    if isinstance(weight, AlmostConstant):
        return weight
    if isinstance(weight, Representation):
        return weight.dim_fn()
    if isinstance(weight, dict):
        return dim_fn(weight)
    if isinstance(weight, int):
        return AlmostConstant(weight)
    raise TypeError(f"cannot read {weight!r} as a weight function")


def _coerce_caps(caps) -> dict[int, int]:
    clean = {}
    for s, c in caps.items():
        s, c = _label(s), _whole(c)
        if s < 1:
            raise ValueError("classes are labelled by integers >= 1")
        if c < 0:
            raise ValueError("caps are pole bounds, so nonnegative")
        if c:
            clean[s] = c
    return clean


class QWindow:
    """One finite window of the torsion-point map of a model object.

    The window is the matrix of the structure map from a vertex of global
    sections (poles capped classwise by `caps`) to the direct sum of one
    torsion window per class where the cap exceeds the weight.  Its rank
    gives both dimensions; kernel vectors (built on first read) present the
    Hom window, uncovered rows present the Ext window.
    `certified` records whether the caps dominate the weight everywhere,
    which is exactly when these windows compute the stable answer.

    The backend `group` must provide:

      default_caps(exp)      -> caps dict for a weight exponent dict
      setup(exp, caps)       -> assembly context with
          source_dim,
          element(vec)       -> vertex element of coordinate vector vec,
          blocks: ordered (s, depth, rows) triples,
          block_matrix(s)    -> (den, block): the block is block / den, for
                                `rows` int row tuples of length source_dim
                                and one int den >= 1,
          torsion_rep(s, i),
          certified: bool

    Scaling rows changes no rank, kernel or uncovered row, so `rows` keeps
    the integer rows and only `matrix`, the public edge, divides.  Nothing
    here inspects or combines elements; the backend builds them.
    """

    def __init__(self, group, weight, caps=None):
        weight = _coerce_weight(weight)
        exp = weight.exponent_map()
        if caps is None:
            caps = group.default_caps(exp)
        caps = _coerce_caps(caps)
        self.group = group
        self.weight = weight
        self.caps = caps
        self.ctx = ctx = group.setup(exp, caps)
        self.source_dim = ctx.source_dim
        self.blocks = []  # (s, depth, rows, row offset)
        offset = 0
        for s, depth, rows in ctx.blocks:
            self.blocks.append((s, depth, rows, offset))
            offset += rows
        self.total_rows = offset
        entries, self._dens = [], []
        if self.total_rows and self.source_dim:
            for s, depth, rows, _ in self.blocks:
                den, block = ctx.block_matrix(s)
                if den < 1 or len(block) != rows or any(len(r) != self.source_dim for r in block):
                    raise ValueError(f"backend block at class {s} has wrong shape")
                entries.extend(block)
                self._dens += [den] * rows
        self.rows = tuple(entries)
        self.rank = matrix_rank(self.rows) if self.rows else 0
        self.hom_dim = self.source_dim - self.rank
        self.ext_dim = self.total_rows - self.rank
        self.certified = bool(ctx.certified)
        self._uncovered = None

    @cached_property
    def matrix(self) -> Matrix | None:
        """The stacked structure map as a public Matrix (each row divided by
        its block's den), built on first read; None when the window has no
        conditions."""
        rows = [row if den == 1 else [Q(c, den) for c in row]
                for row, den in zip(self.rows, self._dens)]
        return Matrix(rows) if rows else None

    @cached_property
    def kernel(self) -> list[tuple]:
        """Hom window basis, built on first read (unit vectors if nothing is imposed)."""
        n = self.source_dim
        kernel = (kernel_and_image(self.rows)[0] if self.rows
                  else [(QZERO,) * k + (QONE,) + (QZERO,) * (n - k - 1) for k in range(n)])
        if len(kernel) != self.hom_dim:
            raise ValidationFailed(f"kernel has {len(kernel)} vectors, rank leaves {self.hom_dim}")
        return kernel

    def block_rows(self, s: int) -> tuple[int, int]:
        for cls, _, rows, offset in self.blocks:
            if cls == s:
                return offset, rows
        raise KeyError(f"no window block at class {s}")

    def block_surjective(self, s: int) -> bool:
        """Whether the window map covers the class-s torsion window alone."""
        offset, rows = self.block_rows(s)
        return rows == 0 or matrix_rank(self.rows[offset : offset + rows]) == rows

    def uncovered_rows(self) -> list[int]:
        """Rows outside the image; their unit vectors present the cokernel.

        Computed from the pivot rows of the column space: the echelon
        form of the transpose marks which coordinates the image covers,
        and the complement splits off as a cokernel basis.
        """
        if self._uncovered is None:
            covered = set()
            if self.rank:
                covered.update(_echelon(tuple(zip(*self.rows)), self.total_rows,
                                        reduced=False)[1])
            self._uncovered = [r for r in range(self.total_rows) if r not in covered]
        return self._uncovered

    def row_class(self, row: int) -> tuple[int, int]:
        """Map a stacked row index to (class, index inside its window)."""
        for s, _, rows, offset in self.blocks:
            if offset <= row < offset + rows:
                return s, row - offset
        raise IndexError(f"row {row} outside the window")

    def ext_classes(self) -> list[tuple[int, int]]:
        """(class, index inside its window) of each Ext basis vector."""
        return [self.row_class(r) for r in self.uncovered_rows()]

    def ext_rep(self, k: int):
        """Torsion representative of the k-th Ext basis vector."""
        return self.ctx.torsion_rep(*self.row_class(self.uncovered_rows()[k]))

    def kernel_element(self, k: int):
        """Materialise the k-th kernel vector as a backend element."""
        return self.ctx.element(self.kernel[k])

    def report(self) -> dict:
        return {
            "w": self.weight.payload(),
            "caps": {str(s): self.caps[s] for s in sorted(self.caps)},
            "hom_dim": self.hom_dim,
            "ext_dim": self.ext_dim,
            "certified": self.certified,
        }


class ASObject:
    """A model object presented by a backend and a weight function."""

    __slots__ = ("group", "weight", "name")

    def __init__(self, group, weight, name=None):
        self.group = group
        self.weight = _coerce_weight(weight)
        self.name = name if name is not None else "X"

    def q_window(self, caps=None, weight=None) -> QWindow:
        w = self.weight if weight is None else _coerce_weight(weight)
        return QWindow(self.group, w, caps)

    def __repr__(self):
        return f"ASObject({self.name}, w={self.weight.text()})"


class SphereObject(ASObject):
    """The sphere of a representation, as a model object.

    `weight` may be a Representation, a weight dict (virtual combinations
    welcome), an AlmostConstant, or a plain integer tail.
    """

    __slots__ = ("rep",)

    def __init__(self, group, weight=None, name=None):
        rep = weight if isinstance(weight, Representation) else None
        w = _coerce_weight(weight if weight is not None else 0)
        if name is None:
            name = f"S^({rep.text()})" if rep is not None else f"S^{w.text()}"
        super().__init__(group, w, name=name)
        self.rep = rep


def suspend(x: ASObject, delta) -> ASObject:
    """Suspend an object by a weight function (or representation).

    Window for window this just shifts which weight the q-map is read
    at, so the result is the same kind of object with weights added.
    """
    delta = _coerce_weight(delta)
    if isinstance(x, SphereObject):
        return SphereObject(x.group, x.weight + delta)
    return ASObject(x.group, x.weight + delta, name=f"susp({x.name})")


class StabilizedResult:
    """A window value together with the caps that certified it."""

    __slots__ = ("value", "caps", "certificate")

    def __init__(self, value, caps, certificate):
        self.value = value
        self.caps = dict(caps)
        self.certificate = dict(certificate)

    def __repr__(self):
        return f"StabilizedResult({self.value!r}, caps={self.caps})"


def stabilize(evaluation, caps) -> StabilizedResult:
    """Certify a capped evaluation by re-running it at enlarged caps.

    `evaluation` maps a caps dict to a (value, certified) pair.  The
    evaluation runs at caps, caps+1 and caps+2 (pointwise).  A run
    without a certificate, or any disagreement between the three values,
    raises CapTooSmall rather than returning a number that might be
    wrong.
    """
    base = {_label(s): _whole(c) for s, c in caps.items()}
    if any(c < 0 for c in base.values()):
        raise ValueError("caps are pole bounds, so nonnegative")
    values = []
    for bump in (0, 1, 2):
        shifted = {s: c + bump for s, c in base.items()}
        value, certified = evaluation(shifted)
        if not certified:
            raise CapTooSmall(
                f"window at caps {shifted} carries no surjectivity certificate",
                caps=shifted,
            )
        values.append(value)
    if not (values[0] == values[1] == values[2]):
        raise CapTooSmall(
            f"window values kept moving past caps {base}: {values}",
            caps=base,
        )
    return StabilizedResult(
        values[0], base, {"offsets": (0, 1, 2), "certified": True}
    )

