"""The integer window sweep against the Fraction sweep it replaced.

The references in `ladder_reference` copy the rational path: frame
vectors placed slot by slot, reducers built from t_s ** depth and kept as
the (slot, c / lead) Fraction pairs below a distinct top, and a sweep
that subtracts c times those pairs.  The library scales t_s^depth, each
block multiplier and each shifted element to integers over one
denominator, sweeps them fraction-free and hands each block over as
integer rows over one denominator; every coordinate, block row, kernel,
rank and uncovered row must agree with the references, and so must every
refusal.
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
    _ladder_ints,
    exact_order_count,
    single_class,
)
from ellt.eatheory import EATheory
from ellt.errors import ValidationFailed
from ellt.exactcore import Matrix, Poly, QZERO, kernel_and_image, rref
from ellt.tmodel import QWindow
from ladder_reference import (
    frame_element,
    outcome as _outcome,
    pure_element,
    rational_rows,
    reference_block,
    reference_coords,
    reference_ladder_frames,
    reference_reducers,
    reference_sweep,
)

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
    return [EATheory(cache) for cache in caches]


@pytest.fixture(scope="module")
def window_of(caches):
    """(window, its reference reducers) on caches[i] over the residual
    divisor others + base A<s>, memoised across examples."""
    memo = {}

    def window_of(i, s, depth, others, base=0):
        key = (i, s, depth, others, base)
        if key not in memo:
            win = QuotientWindow(caches[i], s, depth, others + single_class(s, base))
            memo[key] = win, reference_reducers(win)
        return memo[key]

    return window_of


@st.composite
def windows(draw, max_frame=MAX_FRAME):
    """(cache index, s, depth, base, enclosure) with a frame of at most
    max_frame slots: s = 1-6, depth 1-4, base 0-2, mixed enclosures."""
    i = draw(st.integers(0, SCALED))
    s = draw(st.integers(1, 6))
    m = exact_order_count(s)
    depth = draw(st.integers(1, max(1, min(4, (max_frame - 32) // m))))
    base = draw(st.integers(0, max(0, min(2, (max_frame - 16 - depth * m) // m))))
    budget = max_frame - (base + depth) * m
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


def _columns(win, h, count):
    """`ladder_columns` of the ladder of h, read back as Fractions."""
    den, columns = win.ladder_columns(_ladder_ints(h, count), count)
    return list(map(list, rational_rows(den, columns)))


class TestWindowSweep:
    @settings(max_examples=40, deadline=None)
    @given(windows(), st.data())
    def test_frame_vectors_sweep_like_the_fraction_sweep(self, caches, window_of, window,
                                                         data):
        i, s, depth, base, others = window
        win, reference = window_of(i, s, depth, others, base)
        assert win.complement == reference[1]
        vec = data.draw(st.lists(_coefficient, min_size=win.frame_dim, max_size=win.frame_dim))
        g = pure_element(caches[i].curve, vec)
        assert _columns(win, g, 1) == [reference_sweep(reference, vec)]

    @settings(max_examples=40, deadline=None)
    @given(windows(40), st.data())
    def test_coords_of_frame_elements_match_the_fraction_sweep(self, window_of, window, data):
        # frames up to 40 slots: building t*(divisor) and the elements
        # over it costs seconds for the largest windows() frames
        i, s, depth, base, others = window
        win, reference = window_of(i, s, depth, others, base)
        vec = data.draw(st.lists(_coefficient, min_size=win.frame_dim, max_size=win.frame_dim))
        f = frame_element(win, vec)
        assert win.coords(f) == reference_sweep(reference, vec) == reference_coords(
            win, reference, f)
        # one scaled unit vector at a swept slot, which always needs a reducer
        top = data.draw(st.sampled_from([top for top, _ in reference[0]]))
        unit = [QZERO] * win.frame_dim
        unit[top] = Fraction(7, 3)
        assert win.coords(frame_element(win, unit)) == reference_sweep(reference, unit)

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
            assert win.coords(frame_element(win, vec)) == reference_sweep(reference, vec)


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
        assert _outcome(lambda: _columns(win, h, count)) == expected

    @settings(max_examples=60, deadline=None)
    @given(windows(48), st.data())
    def test_columns_of_drawn_windows_match_the_fraction_ladder(self, caches, window_of,
                                                                 window, data):
        # any class, base and enclosure, with counts past the frame: the
        # first rung that leaves the frame is refused as the ladder refuses it
        i, s, depth, base, others = window
        win, reference = window_of(i, s, depth, others, base)
        top = data.draw(st.integers(0, min(win.frame_dim - 1, 12)))
        vec = data.draw(st.lists(_coefficient, min_size=top + 1, max_size=top + 1))
        h = pure_element(caches[i].curve, vec)
        count = data.draw(st.integers(0, win.frame_dim - top + 2))
        expected = _outcome(lambda: [
            reference_sweep(reference, frame)
            for frame in reference_ladder_frames(h, count, win.frame_dim)])
        assert _outcome(lambda: _columns(win, h, count)) == expected

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
            block = reference_block(ctx, s)
            assert rational_rows(*ctx.block_matrix(s)) == block
            rows.extend(block)
        assert all(type(c) is int for row in window.rows for c in row)
        if rows and ctx.source_dim:
            assert window.matrix.entries == Matrix(tuple(rows)).entries
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
            assert _outcome(lambda: _columns(win, h, count)) == expected
