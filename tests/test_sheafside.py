"""Sections over torsion-complement opens, gluing, and the model comparison."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellt.curvefield
from ellt.curvefield import CycCache, TorsionDivisor
from ellt.eatheory import build_ea, rep_to_divisor
from ellt.errors import CapTooSmall, ValidationFailed
from ellt.exactcore import Matrix, matrix_rank
from ellt.sheafside import (
    DEFAULT_OPENS,
    OpenSet,
    _span_rows,
    glue_check,
    ma_eval,
    roundtrip,
    sa_build,
    sections,
)
from ellt.tmodel import QWindow, dim_fn, suspend
from ladder_reference import reference_ladder_frames, scaled_rows

EA = build_ea((-1, 0))
CACHE = EA.cache
EA2 = build_ea((0, 1))


def _frame_of(allowed, elements, cache=CACHE):
    """Reference rows of canonical elements inside H^0(O(allowed)), in
    rationals."""
    dim, shift = max(allowed.degree, 1), cache.t_star(allowed)
    return [tuple(reference_ladder_frames(g * shift, 1, dim)[0]) for g in elements]

U_ALL = OpenSet()
U_E = OpenSet({1})


class TestOpenSet:
    def test_classes_sorted_and_deduped(self):
        assert OpenSet([3, 1, 3, 2]).pi == (1, 2, 3)

    def test_everything(self):
        assert U_ALL.is_everything()
        assert not U_E.is_everything()

    def test_union_intersect_reverse_the_class_sets(self):
        a, b = OpenSet({1, 2}), OpenSet({2, 3})
        assert a.union(b) == OpenSet({2})
        assert a.intersect(b) == OpenSet({1, 2, 3})
        assert a.union(U_ALL) == U_ALL
        assert a.intersect(U_ALL) == a

    def test_indicator(self):
        assert OpenSet({2, 4}).indicator(3) == {2: 3, 4: 3}
        assert U_ALL.indicator(5) == {}

    def test_rejects_bad_class(self):
        with pytest.raises(ValidationFailed):
            OpenSet({0})

    def test_immutable(self):
        with pytest.raises(AttributeError):
            U_E.pi = (2,)

    def test_text(self):
        assert U_ALL.text() == "the whole curve"
        assert OpenSet({1, 3}).text() == "complement of classes [1, 3]"

    def test_hash_by_classes(self):
        assert {OpenSet({2, 1}), OpenSet({1, 2})} == {OpenSet({1, 2})}


class TestSections:
    def test_global_sections_are_constants(self):
        w = sections(CACHE, {}, U_ALL, 0)
        assert [f.text() for f in w.basis] == ["([1]; []; [1])"]

    def test_degree_one_divisor_still_constants(self):
        w = sections(CACHE, {1: 1}, U_ALL, 0)
        assert w.dim == 1
        assert w.basis[0].text() == "([1]; []; [1])"

    def test_pole_ladder_at_the_identity(self):
        dims = [sections(CACHE, {}, U_E, cap).dim for cap in range(4)]
        assert dims == [1, 1, 2, 3]

    def test_cap_three_basis_is_one_x_y(self):
        w = sections(CACHE, {}, U_E, 3)
        assert [f.text() for f in w.basis] == [
            "([1]; []; [1])",
            "([0, 1]; []; [1])",
            "([]; [1]; [1])",
        ]

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationFailed):
            sections(CACHE, {}, U_E, -1)

    def test_report_shape(self):
        rep = sections(CACHE, {2: 1}, OpenSet({1, 3}), 2).report()
        assert list(rep) == ["D", "pi", "cap", "dim", "basis"]
        assert rep["D"] == {"2": 1}
        assert rep["pi"] == [1, 3]
        assert rep["cap"] == 2
        assert rep["dim"] == len(rep["basis"])

    def test_nested_under_cap_increase(self):
        small = sections(CACHE, {2: 1}, U_E, 1)
        big = sections(CACHE, {2: 1}, U_E, 3)
        rows = _frame_of(big.allowed, small.basis + big.basis)
        assert matrix_rank(Matrix(tuple(rows))) == big.dim

    def test_nested_under_restriction(self):
        outer = sections(CACHE, {1: 1}, OpenSet({2}), 2)
        inner = sections(CACHE, {1: 1}, OpenSet({2, 3}), 2)
        rows = _frame_of(inner.allowed, outer.basis + inner.basis)
        assert matrix_rank(Matrix(tuple(rows))) == inner.dim

    def test_divisor_object_accepted(self):
        d = TorsionDivisor({1: 2})
        assert sections(CACHE, d, U_ALL, 0).dim == 2

    def test_frame_rows_refuse_a_target_that_does_not_dominate(self):
        w = sections(CACHE, {1: 2, 2: 1}, U_ALL, 0)
        for target in ({1: 6}, {1: 1, 2: 2}):  # below on class 2, then class 1
            with pytest.raises(ValidationFailed):
                w.frame_rows(TorsionDivisor(target))


CLASSES = st.integers(min_value=1, max_value=4)


class TestSymbolicSections:
    """The symbolic section space against the canonical Riemann-Roch path
    it replaces: `CycCache.rr_basis` read through `_frame_of`."""

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.dictionaries(CLASSES, st.integers(min_value=-2, max_value=2), max_size=2),
        pi=st.sets(CLASSES, max_size=2),
        cap=st.integers(min_value=0, max_value=2),
        extra=st.dictionaries(CLASSES, st.integers(min_value=0, max_value=2), max_size=2),
    )
    @example(coeffs={}, pi=set(), cap=0, extra={})
    @example(coeffs={1: -1}, pi=set(), cap=0, extra={1: 1})
    def test_window_matches_the_canonical_path(self, coeffs, pi, cap, extra):
        window = sections(CACHE, coeffs, OpenSet(pi), cap)
        reference = CACHE.rr_basis(window.allowed)
        assert window.dim == len(reference)
        assert window.basis == reference
        target = window.allowed + TorsionDivisor(extra)
        # the same rows, scaled by the lcm of their denominators
        rows = scaled_rows(_frame_of(target, reference))[1]
        assert window.frame_rows(target) == [tuple(row) for row in rows]

    @settings(max_examples=30, deadline=None)
    @given(coeffs=st.dictionaries(CLASSES, st.integers(min_value=-2, max_value=3), max_size=3))
    @example(coeffs={})
    @example(coeffs={1: 3})
    @example(coeffs={1: -2})
    def test_t_star_memo_matches_a_fresh_product(self, coeffs):
        fresh = CACHE.curve.one()
        for s, n in coeffs.items():
            if s >= 2:
                fresh = fresh * CACHE.t(s) ** n
        divisor = TorsionDivisor(coeffs)
        assert CACHE.t_star(divisor) == fresh
        assert CACHE.t_star(divisor) == fresh  # the second read is the memo

    def test_gluing_reads_no_canonical_basis(self, monkeypatch):
        # the acceptance sheaf suite on one curve: once t_2..t_4 exist,
        # gluing stays in the monomial frame, with no gcd and no basis
        cache = CycCache(CACHE.curve)
        for s in (2, 3, 4):
            cache.t(s)
        calls = {"poly_gcd": 0, "rr_basis": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ellt.curvefield, "poly_gcd",
                            counted("poly_gcd", ellt.curvefield.poly_gcd))
        monkeypatch.setattr(CycCache, "rr_basis", counted("rr_basis", CycCache.rr_basis))
        covers = [((), (1,)), ((1,), (2,)), ((2,), (3,)), ((1, 2), (2, 4)),
                  ((4,), (1, 3)), ((3,), (3,))]
        for coeffs in ({}, {1: 1}, {2: 1}, {1: -1}):
            for left, right in covers:
                for cap in range(4):
                    assert glue_check(cache, coeffs, OpenSet(left), OpenSet(right), cap)["ok"]
        assert calls == {"poly_gcd": 0, "rr_basis": 0}


class TestMaEval:
    def test_base_object_gives_global_constants(self):
        h = ma_eval(EA.base_object, U_ALL, 0)
        assert h.hom_dim == 1
        assert h.kernel_element(0).text() == "([1]; []; [1])"

    def test_suspension_by_two_torsion_line(self):
        obj = suspend(EA.base_object, dim_fn({2: 1}))
        h = ma_eval(obj, U_ALL, 0)
        assert h.hom_dim == 4
        # the kernel spans the Riemann-Roch space of (e) + A<2>
        target = sections(CACHE, {1: 1, 2: 1}, U_ALL, 0)
        rows = _frame_of(
            target.allowed,
            [h.kernel_element(k) for k in range(h.hom_dim)] + target.basis,
        )
        assert matrix_rank(Matrix(tuple(rows))) == 4

    def test_matches_sections_over_punctured_curve(self):
        h = ma_eval(EA.base_object, U_E, 2)
        s = sections(CACHE, {}, U_E, 2)
        assert h.hom_dim == s.dim == 2
        rows = _frame_of(
            s.allowed, [h.kernel_element(k) for k in range(h.hom_dim)] + s.basis
        )
        assert matrix_rank(Matrix(tuple(rows))) == 2

    def test_negative_weight_needs_the_suspension(self):
        # sections of O(-e) with growing poles at e: the source must grow
        # with the cap, which row dropping would miss entirely.
        obj = suspend(EA.base_object, dim_fn({1: -1}))
        dims = [ma_eval(obj, U_E, cap).hom_dim for cap in range(4)]
        assert dims == [0, 1, 1, 2]

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationFailed):
            ma_eval(EA.base_object, U_E, -1)

    def test_undersized_caps_refuse_loudly(self):
        obj = suspend(EA.base_object, dim_fn({3: 2}))
        with pytest.raises(CapTooSmall) as exc:
            ma_eval(obj, U_ALL, 0, caps={1: 2})
        assert exc.value.caps == {1: 2}

    def test_explicit_caps_shift_with_the_open(self):
        obj = suspend(EA.base_object, dim_fn({2: 1}))
        h = ma_eval(obj, OpenSet({2}), 1, caps={1: 1, 2: 1})
        assert h.hom_dim == sections(CACHE, {1: 1, 2: 1}, OpenSet({2}), 1).dim == 7


SPHERES = ({}, {1: 1}, {2: 1}, {1: -1}, {1: 1, 3: 1})


def _kernel_span_rank(hom, rows):
    """The span check `roundtrip` made before it read the window's rows:
    the rank of the kernel basis stacked on the section rows, over Q."""
    return matrix_rank(Matrix(tuple(list(hom.kernel) + list(rows))))


def _certified(theory, weights, piece, cap, monkeypatch):
    """Run `roundtrip` on one (open, cap) and return the (window, sections,
    rows) that its certificate accepted."""
    seen = []

    def spy(hom, sec):
        rows = _span_rows(hom, sec)
        seen.append((hom, sec, rows))
        return rows

    monkeypatch.setattr(ellt.sheafside, "_span_rows", spy)
    assert roundtrip(theory, weights, opens=(piece,), caps=(cap,))["ok"]
    return seen


def _refused(theory, weights, piece, cap, monkeypatch, forge, caps=None):
    """`roundtrip` on one (open, cap), with the certified rows replaced by
    forge(hom, rows), and the window at explicit `caps` if given; the
    forged rows and the window are returned after the refusal."""
    seen = []

    def forged(hom, sec):
        rows = forge(hom, _span_rows(hom, sec))
        seen.append((hom, rows))
        return rows

    monkeypatch.setattr(ellt.sheafside, "_span_rows", forged)
    if caps is not None:
        monkeypatch.setattr(ellt.sheafside, "ma_eval",
                            lambda obj, open_set, cap: ma_eval(obj, open_set, cap, caps))
    with pytest.raises(ValidationFailed, match="span different spaces"):
        roundtrip(theory, weights, opens=(piece,), caps=(cap,))
    return seen[0]


def _annihilated(hom, rows):
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in hom.rows for v in rows)


class TestSpanRows:
    """The certificate of `roundtrip` (the window's integer rows annihilate
    the section rows, which have rank `sec.dim`) against the checks it
    replaces: the rank of the kernel basis stacked on the section rows,
    and kernel elements times t*(allowed), read by the rational reference
    ladder, beside the section basis in its own frame."""

    @settings(max_examples=30, deadline=None)
    @given(
        theory=st.sampled_from((EA, EA2)),
        weights=st.dictionaries(CLASSES, st.integers(min_value=-2, max_value=2), max_size=2),
        pi=st.sets(CLASSES, max_size=2),
        cap=st.integers(min_value=0, max_value=3),
    )
    @example(theory=EA, weights={1: -1}, pi={1}, cap=3)
    @example(theory=EA2, weights={2: 1, 3: -1}, pi={2}, cap=1)
    @example(theory=EA, weights={1: -1}, pi={2}, cap=2)
    def test_rank_matches_the_canonical_path(self, theory, weights, pi, cap):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = _certified(theory, weights, OpenSet(pi), cap, monkeypatch)
        for hom, sec, rows in seen:
            assert hom.hom_dim == sec.dim and _annihilated(hom, rows)
            elements = [hom.kernel_element(k) for k in range(hom.hom_dim)]
            reference = (_frame_of(sec.allowed, elements, theory.cache)
                         + sec.frame_rows(sec.allowed))
            assert (_kernel_span_rank(hom, rows) == matrix_rank(rows)
                    == matrix_rank(Matrix(tuple(reference))) == sec.dim)

    def test_the_certificate_agrees_with_the_kernel_span_on_the_sheaf_suite(
            self, monkeypatch):
        # both curves, every sphere, every default open and cap: 146 span
        # checks, 22 of them on a window with rows
        checks = with_rows = 0
        for theory in (EA, EA2):
            for weights in SPHERES:
                for piece in DEFAULT_OPENS:
                    for cap in range(4):
                        for hom, sec, rows in _certified(theory, weights, piece, cap,
                                                         monkeypatch):
                            assert _kernel_span_rank(hom, rows) == sec.dim
                            checks, with_rows = checks + 1, with_rows + bool(hom.rows)
        assert (checks, with_rows) == (146, 22)

    def test_a_section_row_outside_the_kernel_is_refused(self, monkeypatch):
        def outside(hom, rows):
            (row,) = hom.rows  # one condition on the six-dimensional frame
            k = next(k for k, c in enumerate(row) if c)
            return rows[:-1] + [tuple(int(i == k) for i in range(hom.source_dim))]

        hom, rows = _refused(EA, {1: -1}, OpenSet({2}), 2, monkeypatch, outside)
        assert not _annihilated(hom, rows)
        assert _kernel_span_rank(hom, rows) == 6  # refused before as well

    def test_dependent_section_rows_are_refused(self, monkeypatch):
        # five rows inside the kernel but spanning only four dimensions: the
        # kernel span alone still had rank 5 and accepted them
        hom, rows = _refused(EA, {1: -1}, OpenSet({2}), 2, monkeypatch,
                             lambda hom, rows: rows[:-1] + rows[:1])
        assert _annihilated(hom, rows) and matrix_rank(rows) == 4
        assert _kernel_span_rank(hom, rows) == hom.hom_dim == 5

    def test_equal_dimensions_in_different_places_are_told_apart(self, monkeypatch):
        # O(e + A<2>) and O(4e) both have four sections, but only the
        # constants are shared: E = 4e + A<2> holds 7 of the 8 rows, and
        # the window's rows do not annihilate the sections of O(4e)
        four_e = sections(CACHE, {1: 4}, U_ALL, 0)
        hom, rows = _refused(EA, {2: 1}, U_ALL, 0, monkeypatch,
                             lambda hom, rows: four_e.frame_rows(hom.ctx.cap_divisor),
                             caps={1: 4, 2: 1})
        assert hom.hom_dim == four_e.dim == matrix_rank(rows) == 4
        assert not _annihilated(hom, rows)
        assert _kernel_span_rank(hom, rows) == 7

    @pytest.mark.parametrize("coeffs", [{2: 1}, {1: 3}])
    def test_cap_divisor_must_dominate_the_sections(self, coeffs):
        hom = ma_eval(EA.base_object, U_ALL, 0)  # cap divisor (e)
        with pytest.raises(ValidationFailed):
            _span_rows(hom, sections(CACHE, coeffs, U_ALL, 0))

    def test_warm_roundtrip_builds_no_kernel_element(self, monkeypatch):
        roundtrip(EA, {1: 1, 2: 1})
        calls = []
        original = QWindow.kernel_element

        def counted(self, k):
            calls.append(k)
            return original(self, k)

        monkeypatch.setattr(QWindow, "kernel_element", counted)
        assert roundtrip(EA, {1: 1, 2: 1})["ok"]
        assert calls == []

    @pytest.mark.parametrize("fresh", [False, True], ids=["warm", "fresh-theory"])
    def test_roundtrip_builds_no_matrix_and_reads_no_kernel(self, monkeypatch, fresh):
        theory = build_ea((-1, 0)) if fresh else EA
        built = []
        init = Matrix.__init__

        def counted(self, entries):
            built.append(self)
            init(self, entries)

        def unread(self):
            raise AssertionError("roundtrip read a kernel basis")

        monkeypatch.setattr(Matrix, "__init__", counted)
        monkeypatch.setattr(QWindow, "kernel", property(unread))
        for weights in SPHERES:
            assert roundtrip(theory, weights)["ok"]
        assert built == []


class TestSaBuild:
    def test_zero_divisor_is_the_base_object(self):
        obj = sa_build(EA, {})
        assert obj.name == "SA(0)"
        assert obj.weight == EA.base_object.weight
        win = obj.q_window()
        assert (win.hom_dim, win.ext_dim) == (1, 1)

    def test_antidiagonal_line(self):
        obj = sa_build(EA, {1: -1})
        win = obj.q_window()
        assert (win.hom_dim, win.ext_dim) == (0, 1)
        assert win.certified

    def test_window_equal_to_suspension(self):
        d = TorsionDivisor({1: 1, 2: 1})
        obj = sa_build(EA, d)
        susp = suspend(EA.base_object, dim_fn({2: 1}))
        assert obj.weight == susp.weight
        a, b = obj.q_window(), susp.q_window()
        assert (a.hom_dim, a.ext_dim) == (b.hom_dim, b.ext_dim) == (4, 0)

    def test_name_lists_the_coefficients(self):
        assert sa_build(EA, {3: 2, 1: -1}).name == "SA(-1<1> + 2<3>)"


class TestGlueCheck:
    def test_identical_pieces(self):
        rep = glue_check(CACHE, {}, U_E, U_E, 2)
        assert rep["ok"] and rep["coker"] == 0
        d = rep["dims"]
        assert d["left"] == d["right"] == d["union"] == d["intersection"] == 2

    def test_structure_sheaf_on_a_two_piece_cover(self):
        # both pieces see the constants twice over, and the one-dimensional
        # cokernel is the h^1 of the structure sheaf on the glued curve
        rep = glue_check(CACHE, {}, U_E, OpenSet({2}), 2)
        assert rep["ok"]
        assert rep["dims"] == {"left": 2, "right": 6, "union": 1, "intersection": 8}
        assert rep["rank"] == 7 and rep["coker"] == 1

    def test_two_torsion_divisor_cover(self):
        rep = glue_check(CACHE, {1: 1, 2: 1}, OpenSet({2}), OpenSet({3}), 2)
        assert rep["ok"]
        assert rep["dims"]["union"] == 4
        assert rep["coker"] == 0

    def test_cohomology_defect_is_detected_exactly(self):
        # D = -(e) over a cover whose union is everything: the difference
        # map misses one dimension, the h^1 of O(-e).
        rep = glue_check(CACHE, {1: -1}, OpenSet({2}), OpenSet({3}), 1)
        assert rep["ok"]
        assert rep["dims"] == {"left": 2, "right": 7, "union": 0, "intersection": 10}
        assert rep["rank"] == 9 and rep["coker"] == 1

    def test_report_key_order(self):
        rep = glue_check(CACHE, {}, U_ALL, U_E, 1)
        assert list(rep) == ["D", "left", "right", "cap", "dims", "rank", "coker", "ok"]

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=st.dictionaries(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=-2, max_value=2),
            max_size=2,
        ),
        left=st.sets(st.integers(min_value=1, max_value=4), max_size=2),
        right=st.sets(st.integers(min_value=1, max_value=4), max_size=2),
        cap=st.integers(min_value=0, max_value=2),
    )
    def test_sampled_covers_always_glue(self, coeffs, left, right, cap):
        rep = glue_check(CACHE, coeffs, OpenSet(left), OpenSet(right), cap)
        assert rep["ok"]


class TestRoundtrip:
    def test_zero_representation(self):
        rep = roundtrip(EA, {})
        assert rep["ok"] and rep["D"] == {}
        assert rep["opens"][0] == {"pi": [], "dims": [1, 1, 1, 1]}

    def test_single_weight(self):
        assert roundtrip(EA, {1: 1})["ok"]

    def test_weight_two_line(self):
        rep = roundtrip(EA, {2: 1}, opens=(U_ALL, U_E, OpenSet({2})))
        assert rep["D"] == {"1": 1, "2": 1}
        assert [r["dims"] for r in rep["opens"]] == [
            [4, 4, 4, 4],
            [4, 5, 6, 7],
            [4, 7, 10, 13],
        ]

    def test_virtual_weight(self):
        rep = roundtrip(EA, {1: -1})
        assert rep["ok"] and rep["opens"][0]["dims"] == [0, 0, 0, 0]

    def test_mixed_representation(self):
        rep = roundtrip(EA, {1: 1, 3: 1})
        assert rep["ok"] and rep["D"] == {"1": 2, "3": 1}

    def test_default_opens(self):
        assert DEFAULT_OPENS[0] == U_ALL
        assert DEFAULT_OPENS[-1] == OpenSet({1, 2})

    def test_second_curve(self):
        assert roundtrip(build_ea((0, 1)), {2: 1}, caps=(0, 2))["ok"]
