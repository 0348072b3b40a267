"""The elliptic model: curve-backed windows and the invariants over them.

This plugs a Weierstrass curve into the generic window machinery from
`tmodel`.  The vertex of an object is a Riemann-Roch space of the cap
divisor, the torsion window at an isogeny class is a pole-depth quotient
from `curvefield`, and the structure map sends a global function to its
principal parts after twisting by the cyclotomic power the weight
prescribes at each class.

On top of the raw windows live the things the command line serves:
sphere homology and cohomology, the coefficient ring of the base object,
the residue duality pairing, completed stalks at the identity, torsion
supported cohomology, and localisation vertices.
"""

from __future__ import annotations

from .curvefield import (
    Coordinate,
    CycCache,
    FuncElt,
    QuotientWindow,
    TorsionDivisor,
    WeierstrassCurve,
    _as_divisor,
    _ladder_ints,
    exact_order_count,
    h_dims,
    residue_form,
    single_class,
)
from .errors import CapTooSmall, DepthExceeded, UnsupportedPoles, ValidationFailed
from .exactcore import (Matrix, Poly, Q, QZERO, _Frozen, _label, _whole, divisors_of, matrix_rank,
                        qtext, series_one)
from .tmodel import (
    ASObject,
    AlmostConstant,
    EulerClassSymbol,
    QWindow,
    Representation,
    _coerce_weight,
    stabilize,
)


def _weights_payload(weights) -> dict:
    """JSON-ready form of the representation the caller handed in."""
    if isinstance(weights, Representation):
        out = {str(n): a for n, a in sorted(weights.weights.items())}
        if weights.fixed_part:
            out["0"] = weights.fixed_part
        return out
    if isinstance(weights, dict):
        return {str(n): a for n, a in sorted(weights.items())}
    if isinstance(weights, AlmostConstant):
        return weights.payload()
    return {"0": weights}


class GradedFn(_Frozen):
    """A curve function carrying a differential weight: f * Dt^n.

    The weight is bookkeeping for the grading; arithmetic acts on the
    function and treats Dt as a formal invertible symbol, so products
    add weights and sums must agree on them.
    """

    __slots__ = ("fn", "weight")

    def __init__(self, fn: FuncElt, weight: int = 0):
        if not isinstance(fn, FuncElt):
            raise TypeError("graded functions wrap curve elements")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "weight", _whole(weight, "weights"))

    def is_zero(self) -> bool:
        return self.fn.is_zero()

    def __add__(self, other):
        if not isinstance(other, GradedFn):
            return NotImplemented
        if other.weight != self.weight and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add graded functions of different weights")
        weight = other.weight if self.is_zero() else self.weight
        return GradedFn(self.fn + other.fn, weight)

    def __neg__(self):
        return GradedFn(-self.fn, self.weight)

    def __sub__(self, other):
        if not isinstance(other, GradedFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GradedFn):
            return GradedFn(self.fn * other.fn, self.weight + other.weight)
        return GradedFn(self.fn * other, self.weight)

    def __rmul__(self, other):
        return GradedFn(self.fn * other, self.weight)

    def __eq__(self, other):
        if not isinstance(other, GradedFn):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.weight == other.weight and self.fn == other.fn

    def __hash__(self):
        if self.is_zero():
            return hash("graded-zero")
        return hash((self.weight, self.fn))

    def text(self) -> str:
        if self.weight == 0:
            return self.fn.text()
        dt = _dt_text(self.weight)
        if self.fn.is_constant() and self.fn.constant_value() == 1:
            return dt
        return f"{self.fn.text()} * {dt}"


def _dt_text(n: int) -> str:
    return "Dt" if n == 1 else f"Dt^{n}"


class TorsionClass(_Frozen):
    """Principal-part class along one isogeny class, tagged with a weight."""

    __slots__ = ("s", "depth", "weight", "vector")

    def __init__(self, s: int, depth: int, weight: int, vector):
        object.__setattr__(self, "s", _whole(s, "class labels"))
        object.__setattr__(self, "depth", _whole(depth, "depths"))
        object.__setattr__(self, "weight", _whole(weight, "weights"))
        object.__setattr__(self, "vector", tuple(Q(c) for c in vector))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.vector)

    def text(self) -> str:
        body = ", ".join(qtext(c) for c in self.vector)
        return f"class {self.s} depth {self.depth} weight {self.weight}: [{body}]"


# ---------------------------------------------------------------------------
# the curve backend for the generic window machinery


class EllipticGroupData:
    """Curve-flavoured window backend.

    Vertices are Riemann-Roch spaces of the cap divisor, torsion windows
    are pole-depth quotients along one class, and block rows and
    principal parts are frame sweeps in them.  One instance memoises
    quotient windows and the integer ladders of block multipliers across
    assemblies; that reuse is what keeps sweeps over many weights
    affordable.  No block rows are kept.

    `window` builds every `QuotientWindow`, and runs the class-s spot
    check (`check_class`) before its first one at a class s <= 4, so no
    such window is read on a backend whose check there failed or has
    not run.
    """

    def __init__(self, cache: CycCache):
        self.cache = cache
        report = cache.validate_coordinate()
        self.touched = tuple(report["classes"])
        self.profile = dict(report["profile"])
        self._windows: dict = {}
        self._multipliers: dict = {}
        self._unchecked = {1, 2, 3, 4}

    @staticmethod
    def default_caps(exp: dict) -> dict:
        caps = {s: w for s, w in exp.items() if w > 0}
        if not caps:
            # a degree-zero vertex would lose the constants; one pole at
            # the identity keeps the window faithful
            caps = {1: 1}
        return caps

    def window(self, s: int, depth: int, residual: TorsionDivisor) -> QuotientWindow:
        """The class-s window H^0(O(residual + depth A<s>)) / H^0(O(residual)),
        memoised per (class, depth, residual divisor)."""
        self.check_class(s)
        key = (s, depth, tuple(residual.coeffs.items()))
        win = self._windows.get(key)
        if win is None:
            win = QuotientWindow(self.cache, s, depth, residual)
            self._windows[key] = win
        return win

    def principal_part(self, f: FuncElt, s: int, depth: int) -> list[Q]:
        """Class of f in H^0(O(G)) / H^0(O(G - depth A<s>)) as a vector of
        length depth * |A<s>|, where G enclosing the poles of f away from
        the class s is chosen from its pole support.

        Poles on the class deeper than `depth` are split off slice by
        slice and discarded, so the result is the class of the
        depth-truncation.  Its window opens first: f = 0 runs the spot check.
        """
        if _whole(depth, "depths") < 1:
            raise DepthExceeded("principal parts need depth at least 1")
        others = TorsionDivisor({r: n for r, n in self.cache.pole_support(f).items()
                                 if r != s and n > 0})
        window = self.window(s, depth, others)
        if f.is_zero():
            return [QZERO] * window.block_size
        for level in range(-self.cache._ord_along(f, s), depth, -1):
            top_slice = self.window(s, 1, others + single_class(s, level - 1))
            for i, c in enumerate(top_slice.coords(f)):
                if c != 0:
                    f = f - top_slice.rep(i) * c
        return window.coords(f)

    def check_class(self, s: int) -> None:
        """The class-s spot check, once per instance for s <= 4: at depths
        1 and 2 the structure map covers the class-s window once the
        vertex carries enough poles.  Each depth assembles the one block
        it reads and compares its shape and rank with its row count.  A
        check that fails stays pending, so the next read runs it again."""
        if s not in self._unchecked:
            return
        self._unchecked.discard(s)  # its own blocks read class-s windows
        try:
            for depth in (1, 2):
                caps = {1: depth, 2: 1} if s == 1 else {1: 2, s: depth}
                ctx = self.setup({}, caps)
                rows = next(r for cls, _, r in ctx.blocks if cls == s)
                _, block = ctx.block_matrix(s)
                if (len(block) != rows
                        or any(len(row) != ctx.source_dim for row in block)
                        or matrix_rank(block) != rows):
                    raise ValidationFailed(
                        f"structure map misses the class-{s} window at depth {depth}"
                    )
        except BaseException:
            self._unchecked.add(s)
            raise

    def twist(self, s: int, w: int) -> FuncElt:
        """t_s ** w: t*(w A<s>), or for s = 1, which t_star ignores, the
        coordinate's power."""
        if s != 1:
            return self.cache.t_star(single_class(s, w))
        return self.cache.coordinate.base ** w

    def multiplier(self, s: int, w: int, exps: dict) -> tuple:
        """The integer ladder `_ladder_ints` of t*(exps), times twist(1, w)
        for s = 1: the pure block multiplier, memoised once per distinct
        value (w is in exps unless s = 1).  One with poles off e is refused
        and never stored."""
        key = (w if s == 1 else 0, tuple(sorted(exps.items())))
        out = self._multipliers.get(key)
        if out is None:
            out = self.cache.t_star(TorsionDivisor(exps))
            if s == 1 and w:
                out = self.twist(1, w) * out
            if not out.is_pure():
                raise ValidationFailed("block multiplier must have poles only at e")
            out = self._multipliers[key] = _ladder_ints(out, 3)
        return out

    def setup(self, exp: dict, caps: dict) -> "_EllipticAssembly":
        return _EllipticAssembly(self, exp, caps)


class _EllipticAssembly:
    """Window context for one (weight exponent, caps) pair.

    The vertex is H^0(O(E)) for the cap divisor E, and the block at
    class s maps f to the class of t_s^{w(s)} f at depth cap(s) - w(s).
    Enclosures are chosen so the twist times the window shift cancels
    against t*(E) up to one explicit pure multiplier; every matrix entry
    is then a frame sweep of a monomial times that multiplier, on ints.
    """

    def __init__(self, backend: EllipticGroupData, exp: dict, caps: dict):
        self.backend = backend
        self.cache = backend.cache
        self.exp = dict(exp)
        self.caps = dict(caps)
        self.cap_divisor = TorsionDivisor(self.caps)
        self.source_dim = h_dims(self.cap_divisor)[0]
        self.blocks = []
        for s in sorted(set(self.exp) | set(self.caps)):
            depth = self.caps.get(s, 0) - self.exp.get(s, 0)
            if depth >= 1:
                self.blocks.append((s, depth, depth * exact_order_count(s)))
        self.certified = self.cap_divisor.degree >= 1 and all(
            self.caps.get(s, 0) >= w for s, w in self.exp.items()
        )

    def numerator(self, vec) -> tuple[Poly, Poly]:
        """(u, v) of the pure sum_k vec[k] m_k = u + v y (m_k is 1 at
        slot 0, x^j at slot 2j - 1 and x^j y at slot 2j + 2)."""
        if len(vec) != self.source_dim:
            raise ValueError(f"vertex vectors have length {self.source_dim}, got {len(vec)}")
        return Poly((*vec[:1], *vec[1::2])), Poly(vec[2::2])

    def element(self, vec) -> FuncElt:
        """sum_k vec[k] m_k / t*(E): the pure numerator times t*(-E)."""
        pure = FuncElt(self.cache.curve, *self.numerator(vec), Poly.const(1))
        return pure * self.cache.t_star(self.cap_divisor.scale(-1))

    def _block(self, s: int) -> tuple[QuotientWindow, tuple]:
        """(window, multiplier ladder) of the class-s block, from the backend memos."""
        w = self.exp.get(s, 0)
        if s == 1:
            others = {r: c for r, c in self.caps.items() if r >= 2 and c}
            if w:
                # powers of the coordinate move poles onto the classes of
                # its divisor; pad the residual divisor to absorb them
                for r in self.backend.touched:
                    lo, hi = self.backend.profile[r]
                    pad = w * lo if w > 0 else -w * hi
                    if pad:
                        others[r] = others.get(r, 0) + pad
        else:
            others = {
                r: c for r, c in self.caps.items() if r >= 2 and r != s and c
            }
            e_part = self.caps.get(1, 0) + max(w, 0) * exact_order_count(s)
            if e_part:
                others[1] = e_part
        win = self.backend.window(s, self.caps.get(s, 0) - w, TorsionDivisor(others))
        # the pure h with (twist * f_k) * win.shift = m_k * h for the vertex
        # element f_k = m_k / t*(E), from integer exponents: the exact
        # cancellation against t*(E) stays out of the function field
        exps = {r: c - self.caps.get(r, 0) + (w if r == s else 0)
                for r, c in win.divisor.coeffs.items() if r >= 2}
        return win, self.backend.multiplier(s, w, exps)

    def block_matrix(self, s: int) -> tuple[int, tuple]:
        """(den, rows): the class-s block is rows / den, rows of ints."""
        win, ladder = self._block(s)
        den, columns = win.ladder_columns(ladder, self.source_dim)
        return den, tuple(zip(*columns))

    def torsion_rep(self, s: int, i: int) -> FuncElt:
        """Representative of the i-th window class pulled back through the
        twist, so vertex functions pair against it directly."""
        win, _ = self._block(s)
        rep = win.rep(i)
        w = self.exp.get(s, 0)
        if not w:
            return rep
        return rep * self.backend.twist(s, -w)


# ---------------------------------------------------------------------------
# the theory object


class EATheory:
    """The model of the equivariant theory attached to one curve.

    Holds the cyclotomic cache, the window backend, and the base object.
    Everything downstream is computed in finite windows whose caps carry
    an explicit stability certificate.
    """

    def __init__(self, cache: CycCache):
        self.cache = cache
        self.backend = EllipticGroupData(cache)
        self.base_object = ASObject(self.backend, 0, name="EA")
        self._construction_check()

    @property
    def curve(self) -> WeierstrassCurve:
        return self.cache.curve

    def window(self, weights, caps=None) -> QWindow:
        return QWindow(self.backend, weights, caps)

    def q(self, symbol, fn, s: int, depth: int = 1) -> TorsionClass:
        """Structure map on one tensor: the Euler symbol prescribes the
        twist at the class, and the value is the principal part of the
        twisted function (`EllipticGroupData.principal_part`), tagged with
        the shifted weight."""
        if not isinstance(symbol, EulerClassSymbol):
            symbol = EulerClassSymbol.from_weights(symbol)
        weight = 0
        if isinstance(fn, GradedFn):
            weight, fn = fn.weight, fn.fn
        if not isinstance(fn, FuncElt):
            fn = self.curve.one() * fn
        w = symbol.exponent(s)
        g = fn
        if w:
            g = fn * self.backend.twist(s, w)
        vec = self.backend.principal_part(g, s, depth)
        return TorsionClass(s, depth, weight - w, vec)

    def _construction_check(self) -> None:
        """Build-time check: the base object has one function and one
        torsion class.  Its window reads class 1, so the class-1 spot
        check runs here too; the checks at classes 2-4 wait for the first
        read of a window at their class."""
        base = QWindow(self.backend, AlmostConstant(0))
        if base.hom_dim != 1 or base.ext_dim != 1:
            raise ValidationFailed(
                f"base window has dims ({base.hom_dim}, {base.ext_dim}), "
                "expected (1, 1)"
            )


def build_ea(curve, coordinate: Coordinate | None = None) -> EATheory:
    """Assemble the theory for a curve, validating the coordinate first.

    `curve` is a WeierstrassCurve or an (a, b) pair of rationals.
    """
    if not isinstance(curve, WeierstrassCurve):
        a, b = curve
        curve = WeierstrassCurve(a, b)
    cache = CycCache(curve, coordinate)
    return EATheory(cache)


def rep_to_divisor(weights) -> TorsionDivisor:
    """Divisor attached to a representation sphere: its weight function
    classwise, with the constant tail dropped (a trivial summand twists
    the grading but moves no poles)."""
    return TorsionDivisor(_coerce_weight(weights).exponent_map())


# ---------------------------------------------------------------------------
# sphere homology and cohomology


class SphereHomology:
    """Homology window of one representation sphere.

    Construction is certificate gated: caps that fail to dominate the
    weight raise CapTooSmall instead of producing unstable numbers.
    """

    __slots__ = ("theory", "weights", "weight", "window")

    def __init__(self, theory: EATheory, weights, caps=None):
        self.theory = theory
        self.weights = weights
        self.weight = _coerce_weight(weights)
        window = QWindow(theory.backend, self.weight, caps)
        if not window.certified:
            raise CapTooSmall(
                f"caps {window.caps} do not dominate the weight, so this "
                "window carries no stability certificate",
                caps=window.caps,
            )
        self.window = window

    @property
    def h0(self) -> int:
        return self.window.hom_dim

    @property
    def h1(self) -> int:
        return self.window.ext_dim

    def h0_basis(self) -> list[GradedFn]:
        tail = self.weight.tail
        return [
            GradedFn(self.window.kernel_element(k), tail)
            for k in range(self.window.hom_dim)
        ]

    def h1_reps(self) -> list[GradedFn]:
        exp = self.weight.exponent_map()
        tail = self.weight.tail
        return [
            GradedFn(self.window.ext_rep(k), tail - exp.get(s, 0))
            for k, (s, _) in enumerate(self.window.ext_classes())
        ]

    def report(self) -> dict:
        return {
            "curve": self.theory.curve.payload(),
            "coordinate": self.theory.cache.coordinate.describe(),
            "W": _weights_payload(self.weights),
            "h0": self.h0,
            "h1": self.h1,
            "h0_basis": [g.fn.text() for g in self.h0_basis()],
            "certified_caps": TorsionDivisor(self.window.caps).payload(),
        }


def sphere_homology(theory: EATheory, weights, caps=None) -> SphereHomology:
    """Homology window of S^W for W given as {n: a_n} multiplicities."""
    return SphereHomology(theory, weights, caps)


def sphere_cohomology(theory: EATheory, weights, caps=None) -> SphereHomology:
    """Reduced cohomology of S^W, computed as the homology of S^{-W}."""
    return SphereHomology(theory, -_coerce_weight(weights), caps)


def stable_sphere_homology(theory: EATheory, weights, caps):
    """Dims of S^W under the three-point cap protocol.

    Evaluates at the given caps and two enlargements; raises CapTooSmall
    when any probe lacks a certificate or the dims keep moving.
    """
    weight = _coerce_weight(weights)

    def evaluate(c):
        window = QWindow(theory.backend, weight, c)
        return (window.hom_dim, window.ext_dim), window.certified

    return stabilize(evaluate, caps)


# ---------------------------------------------------------------------------
# the coefficient ring of the base object


def coefficient_ring(theory: EATheory, d_min: int = -4, d_max: int = 4,
                     caps=None) -> list[dict]:
    """Homotopy table of the base object over a degree range.

    Each degree carries one dimension: even degrees are powers of the
    invertible differential class on the unit, odd degrees its torsion
    partner tau.
    """
    window = theory.base_object.q_window(caps)
    if not window.certified:
        raise CapTooSmall("coefficient window is uncertified", caps=window.caps)
    if window.hom_dim != 1 or window.ext_dim != 1:
        raise ValidationFailed(
            f"base window has dims ({window.hom_dim}, {window.ext_dim}), "
            "expected (1, 1)"
        )
    unit = window.kernel_element(0)
    if not unit.is_constant():
        raise ValidationFailed("unit witness failed to be constant")
    rows = []
    for d in range(d_min, d_max + 1):
        if d % 2 == 0:
            n = d // 2
            witness = "1" if n == 0 else _dt_text(n)
        else:
            n = (d + 1) // 2
            witness = "tau" if n == 0 else f"tau*{_dt_text(n)}"
        rows.append({"degree": d, "dim": 1, "witness": witness})
    return rows


# ---------------------------------------------------------------------------
# multiplicativity of the window actions


def _matrix_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(
        tuple(
            tuple(x + y for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries)
        )
    )


def product_check(theory: EATheory, depth: int = 2) -> dict:
    """Check that multiplication matrices of regular functions compose
    and add the way the functions themselves do, classwise.

    At the identity class the module is the completed stalk; at higher
    classes it is the depth window, whose coordinates are stable under
    enlarging the identity enclosure.  Raises ValidationFailed on the
    first mismatch.
    """
    cache = theory.cache
    curve = cache.curve
    backend = theory.backend
    pairs = 0

    def verify(tag, mat_of, samples):
        nonlocal pairs
        mats = [mat_of(f) for f in samples]
        for i, f1 in enumerate(samples):
            for j, f2 in enumerate(samples):
                if mat_of(f1 * f2).entries != (mats[i] * mats[j]).entries:
                    raise ValidationFailed(f"product action fails at {tag}")
                if mat_of(f1 + f2).entries != _matrix_add(mats[i], mats[j]).entries:
                    raise ValidationFailed(f"additive action fails at {tag}")
                pairs += 1

    # identity class: the completed stalk in the coordinate
    comp = completion(theory, depth + 2)
    base = cache.coordinate.base
    verify("class 1", comp.matrix_of,
           [curve.one(), base, curve.x() * base * base])

    # higher classes: one fixed window, enclosure grown only at e, where
    # the coordinates do not move
    for s in (2, 3):
        block = backend.window(s, depth, TorsionDivisor({1: 4}))
        reps = [block.rep(i) for i in range(block.block_size)]

        def coords_in(g, s=s):
            bound = max(4, g.pole_order_at_e())
            win = backend.window(s, depth, TorsionDivisor({1: bound}))
            return win.coords(g)

        def mat_of(f, reps=reps, coords_in=coords_in):
            return Matrix(tuple(zip(*[coords_in(f * g) for g in reps])))

        verify(f"class {s}", mat_of, [curve.one(), curve.x(), curve.y()])

    return {"classes": [1, 2, 3], "depth": depth, "pairs": pairs, "ok": True}


# ---------------------------------------------------------------------------
# residue duality


class SerrePairing:
    """Residue pairing between sections of a divisor and the torsion
    classes of its inverse."""

    __slots__ = ("divisor", "matrix", "dim", "rank", "reps", "classes", "_window", "_sections")

    def __init__(self, divisor, matrix, window, reps, classes):
        self.divisor = divisor
        self.matrix = matrix
        self.dim = divisor.degree
        self.rank = matrix_rank(matrix)
        self.reps = reps
        self.classes = classes
        self._window, self._sections = window, None

    @property
    def sections(self) -> list:
        """The sections f_i of the rows, built from the window on first read."""
        if self._sections is None:
            win = self._window
            self._sections = [win.kernel_element(k) for k in range(win.hom_dim)]
        return self._sections

    @property
    def nondegenerate(self) -> bool:
        return self.rank == self.dim


def serre_pairing(theory: EATheory, divisor, caps=None) -> SerrePairing:
    """Pair H^0(O(D)) against the torsion side of the window at -D.

    The matrix entry at (i, j) is the residue along the j-th class of
    f_i h_j Dt; duality says its rank is deg D.
    """
    divisor = _as_divisor(divisor)
    if not divisor.is_effective() or divisor.degree < 1:
        raise ValidationFailed(
            "duality needs an effective divisor of positive degree"
        )
    weight = AlmostConstant(0, dict(divisor.coeffs))
    hom_window = QWindow(theory.backend, weight, caps)
    if not hom_window.certified:
        raise CapTooSmall("duality window is uncertified", caps=hom_window.caps)
    ext = QWindow(theory.backend, -weight)
    reps = [ext.ext_rep(j) for j in range(ext.ext_dim)]
    classes = tuple(s for s, _ in ext.ext_classes())
    if hom_window.hom_dim != divisor.degree or len(reps) != divisor.degree:
        raise ValidationFailed(
            f"window dims ({hom_window.hom_dim}, {len(reps)}) disagree with "
            f"the divisor degree {divisor.degree}"
        )
    # section i is (u_i + v_i y) t*(-E), so entry (i, j) is the residue of
    # the y-part (u_i G_v + v_i G_u) / G_d of its product with G = t*(-E) h_j
    cache, ctx = theory.cache, hom_window.ctx
    shift = cache.t_star(ctx.cap_divisor.scale(-1))
    numerators = [ctx.numerator(vec) for vec in hom_window.kernel]
    columns = []
    for h, s in zip(reps, classes):
        gj = shift * h
        c, w, g = residue_form(cache, gj.d, s)
        gv, gu = gj.v * w % g, gj.u * w % g
        columns.append([c * ((u * gv + v * gu) % g).coeff(g.degree - 1)
                        for u, v in numerators])
    return SerrePairing(divisor, Matrix(tuple(zip(*columns))), hom_window, reps, classes)


# ---------------------------------------------------------------------------
# the completed stalk at the identity


class CompletionModule:
    """Finite stage of the completion at the identity: functions modulo
    t_e^k in the basis 1, t_e, ..., t_e^{k-1}, with multiplication by
    t_e as the shift action."""

    __slots__ = ("cache", "k", "_expansions")

    def __init__(self, cache: CycCache, k: int):
        if _whole(k, "completion stages") < 1:
            raise ValueError("completion stages start at k = 1")
        self.cache = cache
        self.k = k
        # triangular by valuation: t_e^j starts at t^j with a unit lead
        te = cache.base_series(k)
        self._expansions = [series_one(k)]
        for _ in range(1, k):
            self._expansions.append(self._expansions[-1] * te)

    @property
    def basis(self) -> list[FuncElt]:
        """1, t_e, ..., t_e^{k-1} as functions, built on each read."""
        base = self.cache.coordinate.base
        return [base ** j for j in range(self.k)]

    @property
    def dim(self) -> int:
        return self.k

    def coords(self, f) -> list[Q]:
        """Coefficients of f against the basis; f must be regular at e."""
        if not isinstance(f, FuncElt):
            f = self.cache.curve.one() * f
        if f.is_zero():
            return [QZERO] * self.k
        if f.ord_e() < 0:
            raise UnsupportedPoles(
                "completion coordinates need an element regular at the identity"
            )
        series = self.cache.expand(f, self.k)
        vec = [series.coeff(j) for j in range(self.k)]
        out = [QZERO] * self.k
        for j in range(self.k):
            lead = self._expansions[j].coeff(j)
            c = vec[j] / lead
            out[j] = c
            if c != 0:
                for i in range(j, self.k):
                    vec[i] -= c * self._expansions[j].coeff(i)
        return out

    def matrix_of(self, f) -> Matrix:
        """Matrix of multiplication by f (regular at e) on the stage:
        lower-triangular Toeplitz, since modulo t_e^k the product
        f t_e^j has the coordinates of f moved down j places."""
        c = self.coords(f)
        return Matrix(tuple(tuple(c[i - j] if j <= i else QZERO for j in range(self.k))
                            for i in range(self.k)))

    def action_matrix(self) -> Matrix:
        """The shift: multiplication by the coordinate itself."""
        return self.matrix_of(self.cache.coordinate.base)

    def element(self, coords) -> FuncElt:
        total = self.cache.curve.zero()
        for c, b in zip(coords, self.basis):
            if c != 0:
                total = total + b * c
        return total


def completion(theory: EATheory, k: int) -> CompletionModule:
    """The k-th stage of the completed stalk at the identity."""
    return CompletionModule(theory.cache, k)


# ---------------------------------------------------------------------------
# torsion-supported cohomology


class LocalCohomology:
    """Cohomology window supported on the points whose order divides a
    member of the family pi, at the a-th infinitesimal stage.  All of it
    sits in odd degree."""

    __slots__ = ("pi", "a", "classes", "window", "dim")

    def __init__(self, pi, a, classes, window):
        self.pi = tuple(pi)
        self.a = _whole(a, "thickening levels")
        self.classes = tuple(classes)
        self.window = window
        self.dim = window.ext_dim

    def reps(self) -> list[FuncElt]:
        return [self.window.ext_rep(k) for k in range(self.dim)]

    def report(self) -> dict:
        return {
            "pi": list(self.pi),
            "a": self.a,
            "classes": list(self.classes),
            "dim": self.dim,
            "degree": "odd",
        }


def local_cohomology(theory: EATheory, pi, a: int = 1) -> LocalCohomology:
    """Sections supported on the order-pi points, thickened a times.

    The window at the weight -a on those classes computes it: no kernel
    (the rank shows it, none is built), one odd class per point per level.
    """
    pi = sorted({_label(n) for n in pi})
    if not pi or pi[0] < 1:
        raise ValidationFailed("pi must be a nonempty family of positive orders")
    if _whole(a, "thickening levels") < 1:
        raise ValidationFailed("the thickening level a must be at least 1")
    classes = sorted({s for n in pi for s in divisors_of(n)})
    weight = AlmostConstant(0, {s: -a for s in classes})
    window = QWindow(theory.backend, weight)
    expected = a * sum(exact_order_count(s) for s in classes)
    if window.hom_dim != 0 or window.ext_dim != expected:
        raise ValidationFailed(
            f"supported-cohomology window has dims ({window.hom_dim}, "
            f"{window.ext_dim}), expected (0, {expected})"
        )
    return LocalCohomology(pi, a, classes, window)


# ---------------------------------------------------------------------------
# localisation vertices


def localization_vertex(theory: EATheory, n: int, caps=None,
                        weight: int = 0) -> list[GradedFn]:
    """Vertex basis after inverting the Euler classes away from the
    order-n subgroup: sections with poles capped on the classes inside
    the subgroup, twisted into the given differential weight."""
    if _whole(n, "subgroup orders") < 1:
        raise ValidationFailed("the subgroup order must be positive")
    caps = dict(caps or {})
    allowed = set(divisors_of(n))
    for s, c in caps.items():
        if s not in allowed:
            raise ValidationFailed(
                f"cap at class {s} lies outside the order-{n} subgroup"
            )
        if c < 0:
            raise ValidationFailed("caps are nonnegative")
    divisor = TorsionDivisor({s: c for s, c in caps.items() if c})
    return [GradedFn(f, weight) for f in theory.cache.rr_basis(divisor)]
