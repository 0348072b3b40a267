"""The integer window sweep against the Fraction sweep it replaced.

The references below copy the rational assembly path: frame vectors
placed slot by slot, reducers built from t_s ** depth and kept as the
(slot, c / lead) Fraction pairs below a distinct top, and a sweep that
subtracts c times those pairs.  The library scales t_s^depth and each
block multiplier to integers over one denominator and sweeps them
fraction-free; every coordinate, block row, kernel, rank and uncovered
row must agree with the references, and so must every refusal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt.curvefield import (
    Coordinate,
    CycCache,
    FuncElt,
    QuotientWindow,
    TorsionDivisor,
    WeierstrassCurve,
    exact_order_count,
)
from ellt.eatheory import EATheory
from ellt.errors import EllTError, UnsupportedPoles, ValidationFailed
from ellt.exactcore import Matrix, Poly, QZERO, kernel_and_image, rref
from ellt.tmodel import QWindow

# the six curves of the cli_jobs pools, then (-1, 0) with a scaled coordinate
CURVES = [(-1, 0), (0, 1), (1, 0), (-4, 0), (0, -2), (0, Fraction(1, 4))]
SCALED = len(CURVES)
# the largest frame a drawn window may have, which keeps the module fast
MAX_FRAME = 80


def _make_cache(i: int) -> CycCache:
    curve = WeierstrassCurve(*CURVES[0 if i == SCALED else i])
    return CycCache(curve, Coordinate(curve, scale=Fraction(-3, 2)) if i == SCALED else None)


@pytest.fixture(scope="module")
def caches():
    return [_make_cache(i) for i in range(SCALED + 1)]


@pytest.fixture(scope="module")
def theories(caches):
    return [EATheory(cache, check=False) for cache in caches]


@pytest.fixture(scope="module")
def window_of(caches):
    """(window, its reference reducers) on caches[i], memoised across
    examples."""
    memo = {}

    def window_of(i, s, depth, others, base=0):
        key = (i, s, depth, others, base)
        if key not in memo:
            win = QuotientWindow(caches[i], s, depth, others, base)
            memo[key] = win, reference_reducers(win)
        return memo[key]

    return window_of


def reference_ladder_frames(h, count, dim):
    """The rational frame vectors of m_k * h, k < count, as placed before
    the integer core: x^a h puts u and v a rungs up the ladder and x^a y h
    puts v * rhs and u there."""
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


def _outcome(compute):
    """The value, or the error type and message, so refusals compare too."""
    try:
        return "value", compute()
    except (ValueError, EllTError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def windows(draw):
    """(cache index, s, depth, base, enclosure) with a frame of at most
    MAX_FRAME slots: s = 1-6, depth 1-4, base 0-2, mixed enclosures."""
    i = draw(st.integers(0, SCALED))
    s = draw(st.integers(1, 6))
    m = exact_order_count(s)
    depth = draw(st.integers(1, max(1, min(4, 48 // m))))
    base = draw(st.integers(0, max(0, min(2, (MAX_FRAME - 16 - depth * m) // m))))
    budget = MAX_FRAME - (base + depth) * m
    others = {}
    for r in draw(st.lists(st.integers(1, 6), max_size=3, unique=True)):
        n = draw(st.integers(0, 2))
        if r != s and n * exact_order_count(r) <= budget:
            others[r] = n
            budget -= n * exact_order_count(r)
    return i, s, depth, base, TorsionDivisor(others)


def _enclosure(s):
    return TorsionDivisor({1: 3} if s >= 2 else {2: 1})


_coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class TestWindowSweep:
    @settings(max_examples=40, deadline=None)
    @given(windows(), st.data())
    def test_coords_of_frame_matches_the_fraction_sweep(self, window_of, window, data):
        i, s, depth, base, others = window
        win, reference = window_of(i, s, depth, others, base)
        assert win.complement == reference[1]
        vec = data.draw(st.lists(_coefficient, min_size=win.frame_dim, max_size=win.frame_dim))
        assert win.coords_of_frame(vec) == reference_sweep(reference, vec)
        # one scaled unit vector at a swept slot, which always needs a reducer
        top = data.draw(st.sampled_from([top for top, _ in reference[0]]))
        unit = [QZERO] * win.frame_dim
        unit[top] = Fraction(7, 3)
        assert win.coords_of_frame(unit) == reference_sweep(reference, unit)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, SCALED), st.integers(1, 4), st.integers(1, 2),
           st.integers(0, 1), st.integers(0, 3), st.lists(_coefficient, max_size=3),
           st.lists(_coefficient, max_size=3))
    def test_coords_match_the_fraction_sweep(self, caches, window_of, i, s, depth, base, j,
                                             u, v):
        cache = caches[i]
        win, reference = window_of(i, s, depth, _enclosure(s), base)
        g = FuncElt(cache.curve, Poly(u), Poly(v), Poly.const(1))
        twist = cache.t(s) if s >= 2 else cache.coordinate.base
        f = g * twist.inverse() ** j
        expected = _outcome(lambda: reference_coords(win, reference, f))
        assert _outcome(lambda: win.coords(f)) == expected

    def test_leads_other_than_one_are_swept(self, window_of):
        # on y^2 = x^3 + 1/4 the denominators of t_2 y and t_4 give leads 4
        # and 2; t_3 and t_5 are monic with denominators 3 and 5
        for i, s, lead in ((5, 2, 4), (0, 3, 3), (1, 5, 5), (5, 4, 2)):
            win, reference = window_of(i, s, 1, _enclosure(s), 1)
            assert {rung[1] for rung in win._sweep} == {lead}
            vec = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(win.frame_dim)]
            assert win.coords_of_frame(vec) == reference_sweep(reference, vec)


class TestBlockColumns:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, SCALED), st.integers(1, 5), st.integers(1, 2),
           st.lists(_coefficient, max_size=5), st.lists(_coefficient, max_size=4),
           st.lists(_coefficient, min_size=1, max_size=2), st.integers(0, 9))
    def test_ladder_columns_match_the_fraction_ladder(self, caches, window_of, i, s, depth, u,
                                                      v, d, count):
        win, reference = window_of(i, s, depth, _enclosure(s))
        d = Poly(d)
        h = FuncElt(caches[i].curve, Poly(u), Poly(v), d if not d.is_zero() else Poly.const(1))
        expected = _outcome(lambda: [
            reference_sweep(reference, vec)
            for vec in reference_ladder_frames(h, count, win.frame_dim)])
        assert _outcome(lambda: win.ladder_columns(h, count)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, SCALED),
           st.dictionaries(st.integers(1, 5), st.integers(-2, 2), max_size=3),
           st.dictionaries(st.integers(1, 5), st.integers(1, 2), min_size=1, max_size=3)
           .filter(lambda caps: TorsionDivisor(caps).degree <= 48))
    def test_block_rows_and_windows_match_the_fraction_sweep(self, theories, i, exp, caps):
        theory = theories[i]
        window = QWindow(theory.backend, exp, caps)
        ctx = window.ctx
        rows = []
        for s, _, _ in ctx.blocks:
            win, mult = ctx._block(s)
            reference = reference_reducers(win)
            columns = [reference_sweep(reference, vec)
                       for vec in reference_ladder_frames(mult, ctx.source_dim, win.frame_dim)]
            block = tuple(zip(*columns))
            assert ctx.block_matrix(s) == block
            rows.extend(block)
        assert window.rows == tuple(rows)
        if rows and ctx.source_dim:
            kernel, rank = kernel_and_image(Matrix(tuple(rows)))
            assert (window.kernel, window.rank) == (kernel, rank)
            covered = rref(Matrix(tuple(rows)).transpose())[1]
            assert window.uncovered_rows() == [r for r in range(len(rows)) if r not in covered]


class TestRefusals:
    def test_a_vanishing_sub_shift_trips_the_window_checks(self, monkeypatch):
        cache = _make_cache(0)
        monkeypatch.setattr(CycCache, "t_star", lambda self, divisor: self.curve.zero())
        # two reducers share the top of the zero vector
        with pytest.raises(ValidationFailed, match="sub-basis tops collide"):
            QuotientWindow(cache, 2, 1, TorsionDivisor({1: 2}))
        # one reducer at no slot leaves the whole frame as complement
        with pytest.raises(ValidationFailed, match="complement size differs"):
            QuotientWindow(cache, 2, 1)

    def test_an_overflowing_sub_shift_names_the_term(self, monkeypatch):
        cache = _make_cache(0)
        too_deep = cache.t(2) ** 2
        monkeypatch.setattr(CycCache, "t_star", lambda self, divisor: too_deep)
        win_dims = (2, 5)  # residual_dim and frame_dim of the depth-1 window at {1: 2}
        expected = _outcome(lambda: reference_ladder_frames(too_deep, *win_dims))
        assert expected[0] == "ValueError" and "overflows a frame of dimension 5" in expected[1]
        assert _outcome(lambda: QuotientWindow(cache, 2, 1, TorsionDivisor({1: 2}))) == expected

    def test_block_columns_refuse_like_the_ladder(self, caches, window_of):
        cache = caches[0]
        win, _ = window_of(0, 2, 1, TorsionDivisor({1: 2}))
        x, y = cache.curve.x(), cache.curve.y()
        for h, count in ((x + y, 3), (x ** 3, 1), (x.inverse(), 1)):
            expected = _outcome(lambda: reference_ladder_frames(h, count, win.frame_dim))
            assert expected[0] == "ValueError"
            assert _outcome(lambda: win.ladder_columns(h, count)) == expected
