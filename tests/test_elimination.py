"""The fraction-free elimination core against textbook Gauss-Jordan on
Fractions, directly and through the window kernels, ranks and cokernels
built on it."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellt.curvefield import Coordinate, WeierstrassCurve
from ellt import tmodel
from ellt.eatheory import build_ea
from ellt.errors import ValidationFailed
from ellt.exactcore import Matrix, Q, _echelon, kernel_and_image, matrix_rank, rref
from ellt.tmodel import QWindow
from ladder_reference import reference_block, sweep_windows, weight_family


def reference_rref(rows, cols):
    """Gauss-Jordan on Fractions: (reduced rows, pivot columns)."""
    rows = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        lead = rows[r][c]
        rows[r] = [e / lead for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(rows, cols):
    """One kernel vector per free column, read off the reduced form."""
    reduced, pivots = reference_rref(rows, cols)
    kernel = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        kernel.append(tuple(vec))
    return kernel, len(pivots)


_entry = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
)


@st.composite
def rational_rows(draw):
    """Rows of one length with zero rows, zero columns, duplicate rows,
    negative entries and huge numerators and denominators.  A matrix with
    no rows has no columns in either input form, so 0 x n is 0 x 0."""
    nrows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[Q(draw(_entry)) for _ in range(cols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[draw(st.integers(0, len(rows) - 1))]))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Q(0)] * cols)
    if cols and draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in rows:
            row[zero] = Q(0)
    return [tuple(row) for row in rows], cols if rows else 0


class TestIntegerCore:
    @settings(max_examples=300, deadline=None)
    @given(rational_rows())
    def test_public_functions_match_the_fraction_reference(self, data):
        rows, cols = data
        kernel, rank = reference_kernel(rows, cols)
        reduced, pivots = reference_rref(rows, cols)
        matrix = Matrix(rows)
        for form in (matrix, tuple(rows)):
            assert kernel_and_image(form) == (kernel, rank)
            assert matrix_rank(form) == rank
        assert rref(matrix) == (Matrix(reduced), pivots)
        assert all(type(e) is Q for vec in kernel_and_image(matrix)[0] for e in vec)

    @settings(max_examples=300, deadline=None)
    @given(rational_rows(), st.booleans())
    def test_pivot_rows_stay_primitive_integer_rows(self, data, reduced):
        rows, cols = data
        pivot_rows, pivots = _echelon(rows, cols, reduced)
        assert pivots == reference_rref(rows, cols)[1]
        for row in pivot_rows:
            assert all(type(x) is int for x in row) and gcd(*row) == 1

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError):
            matrix_rank(((Q(1), Q(2)), (Q(3),)))


@pytest.fixture(scope="module")
def theories():
    scaled = WeierstrassCurve(-1, 0)
    return {
        "e1": build_ea((-1, 0)),
        "e2": build_ea((0, 1)),
        "scaled": build_ea(scaled, Coordinate(scaled, scale=Q(2))),
    }


class TestWindowElimination:
    """Window kernels, ranks and cokernels against the reference applied
    to the public matrix of the same window."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["e1", "e2", "scaled"]),
        st.dictionaries(st.integers(min_value=1, max_value=4),
                        st.integers(min_value=-2, max_value=2), max_size=3),
        st.dictionaries(st.integers(min_value=1, max_value=4),
                        st.integers(min_value=0, max_value=3), max_size=3),
    )
    def test_windows_match_the_fraction_reference(self, theories, which, weights, caps):
        win = theories[which].window(weights, caps or None)
        rank, hom_dim, ext_dim = win.rank, win.hom_dim, win.ext_dim  # before the kernel
        if win.matrix is None:
            assert rank == 0 and win.rows == ()
            assert (hom_dim, ext_dim) == (win.source_dim, win.total_rows)
            assert win.kernel == _unit_vectors(win.source_dim)
            return
        rows, cols = win.matrix.entries, win.matrix.cols
        kernel, ref_rank = reference_kernel(rows, cols)
        assert (rank, hom_dim, ext_dim) == (ref_rank, cols - ref_rank, len(rows) - ref_rank)
        assert win.kernel == kernel and hom_dim == len(win.kernel)
        covered = reference_rref(list(zip(*rows)), len(rows))[1]
        assert win.uncovered_rows() == [r for r in range(len(rows)) if r not in covered]
        for s, _, count, offset in win.blocks:
            block = rows[offset : offset + count]
            assert win.block_surjective(s) == (reference_kernel(block, cols)[1] == count)

    @pytest.mark.parametrize("source_dim, rows", [(0, 3), (2, 0), (0, 0)])
    def test_windows_without_conditions(self, source_dim, rows):
        # rows with an empty vertex, or a vertex with no blocks: the map is
        # zero, so every row is uncovered and every unit vector a cycle
        win = QWindow(_NoConditions(source_dim, rows), 0)
        assert win.rows == () and win.matrix is None
        assert (win.rank, win.hom_dim, win.ext_dim) == (0, source_dim, rows)
        assert win.uncovered_rows() == list(range(rows))
        assert win.kernel == _unit_vectors(source_dim)

    def test_a_short_kernel_basis_is_refused(self, theories, monkeypatch):
        win = theories["e1"].window({})
        assert win.rows and win.hom_dim == 1
        real = tmodel.kernel_and_image
        monkeypatch.setattr(tmodel, "kernel_and_image",
                            lambda rows: (real(rows)[0][:-1], real(rows)[1]))
        with pytest.raises(ValidationFailed, match="kernel has 0 vectors"):
            win.kernel


def _unit_vectors(n):
    return [tuple(Q(1 if i == k else 0) for i in range(n)) for k in range(n)]


class _NoConditions:
    """A backend whose windows impose nothing: `rows` torsion rows at one
    class over a vertex of `source_dim` sections, and no block to assemble."""

    def __init__(self, source_dim, rows):
        self.source_dim = source_dim
        self.blocks = [(1, 1, rows)] if rows else []
        self.certified = True

    def default_caps(self, exp):
        return {}

    def setup(self, exp, caps):
        return self

    def block_matrix(self, s):
        raise AssertionError("a window without conditions assembles no block")


class TestSweepFamily:
    """Every window of a sweep pass on two curves and of the construction
    check, against the Fraction reference: the public matrix from the
    product multiplier and the Fraction sweep, then rank, kernel and
    uncovered rows by Gauss-Jordan on that matrix."""

    @staticmethod
    def _check(win):
        rows = [row for s, *_ in win.blocks for row in reference_block(win.ctx, s)]
        if not (win.total_rows and win.source_dim):
            assert win.rows == () and win.matrix is None and win.rank == 0
            return
        assert all(type(c) is int for row in win.rows for c in row)
        assert win.matrix.entries == tuple(rows)
        kernel, rank = reference_kernel(rows, win.source_dim)
        assert win.rank == rank and win.kernel == kernel
        covered = reference_rref(list(zip(*rows)), len(rows))[1]
        assert win.uncovered_rows() == [r for r in range(len(rows)) if r not in covered]

    @pytest.mark.parametrize("curve", [(-1, 0), (0, 1)])
    def test_sweep_windows_match_the_fraction_reference(self, curve):
        windows = sweep_windows(build_ea(curve))
        assert len(windows) == len(weight_family(6, 3)) + 3 * len(weight_family(3, 2)) == 452
        for win in windows:
            self._check(win)

    def test_construction_check_windows_match_the_fraction_reference(self, theories):
        for theory in theories.values():
            self._check(theory.window(0))
            for s in (1, 2, 3, 4):
                for depth in (1, 2):
                    self._check(theory.window(0, {1: depth, 2: 1} if s == 1 else {1: 2, s: depth}))
