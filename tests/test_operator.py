"""Sparse averaging operator: rasterization, action, norm and modular checks."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse.errors import EmptyRegionError
from gnsparse.grid import Grid1D, Grid2D
from gnsparse.norms import modular, space_norm
from gnsparse.operator import (
    CellFamily,
    apply_sparse_operator,
    modular_contraction_check,
    operator_norm_check,
)
from gnsparse.rearrangement import CellField
from gnsparse.sparse1d import EscapeInterval, build_family_1d, default_k_min
from gnsparse.spaces import SpaceDescriptor, YoungFunction
from gnsparse.testfunctions import TestFunctionSpec, grid_for_spec, make_test_function

from oracles import loop_counts, loop_interval_sets, loop_sparse_operator, sets_of


def iv(z, y, k=0, sign=1):
    return EscapeInterval(z=z, y=y, k=k, sign=sign, seed=0.5 * (z + y))


def pair_family():
    # P1 = (0,1), P2 = (0,2) on [0,2]: K = 2, and for f = chi_(0,1):
    # Tf = 1.5 on (0,1), 0.5 on (1,2)
    grid = Grid1D(0.0, 2.0, 512)
    fam = CellFamily.from_intervals([iv(0.0, 1.0), iv(0.0, 2.0)], grid)
    f = CellField((grid.centers() < 1.0).astype(float), grid.h)
    return grid, fam, f


class TestRasterize:
    def test_center_in_open_interval_rule(self):
        grid = Grid1D(0.0, 1.0, 8)  # centers at (2i+1)/16
        fam = CellFamily.from_intervals([iv(0.25, 0.75)], grid)
        assert len(fam) == 1
        np.testing.assert_array_equal(sets_of(fam)[0], [2, 3, 4, 5])

    def test_degenerate_interval_dropped(self):
        grid = Grid1D(0.0, 1.0, 8)
        # (0.23, 0.29) contains no cell center (nearest are 0.1875, 0.3125)
        fam = CellFamily.from_intervals([iv(0.23, 0.29), iv(0.25, 0.75)], grid)
        assert len(fam) == 1
        assert fam.dropped == 1

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyRegionError):
            CellFamily(np.array([], dtype=int), [0], 8)

    def test_overlap_counting(self):
        grid, fam, _ = pair_family()
        counts = fam.counts
        assert fam.max_overlap == 2
        assert int(np.max(counts)) == 2
        assert int(np.min(counts[: len(counts) // 2])) == 2
        assert int(np.max(counts[len(counts) // 2 :])) == 1

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CellFamily([3, 8], [2], 8)


@st.composite
def interval_families(draw):
    """A grid on [0, 1] and intervals on it, some with an end on a cell
    center and some trapping no center at all."""
    n = draw(st.integers(8, 64))
    grid = Grid1D(0.0, 1.0, n)
    centers = grid.centers()
    end = st.one_of(st.floats(-0.2, 1.2), st.integers(0, n - 1).map(lambda i: float(centers[i])))
    intervals = []
    for z, y in draw(st.lists(st.tuples(end, end), max_size=12)):
        z, y = min(z, y), max(z, y)
        intervals.append(iv(z, y) if z < y else iv(z, z + 0.3 / n))
    return grid, intervals


@st.composite
def mask_families(draw):
    """A 2D grid and random boolean masks over its cells, some of them
    empty (or none at all)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid2D(Grid1D(0.0, 1.0, draw(st.integers(8, 24))), Grid1D(0.0, 2.0, draw(st.integers(8, 24))))
    densities = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0]), max_size=10))
    return grid, [rng.random((grid.gx.n, grid.gy.n)) < p for p in densities]


def cell_values(seed, n):
    """Non-negative cell values over six decades, as T|f| receives them."""
    rng = np.random.default_rng(seed)
    return rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)


def assert_matches_loop(fam, sets, seed):
    assert np.array_equal(fam.counts, loop_counts(sets, fam.n_cells))
    assert fam.max_overlap == int(loop_counts(sets, fam.n_cells).max(initial=0))
    # scattering one per set counts the sets at each cell
    assert np.array_equal(fam.scatter(np.ones(len(fam))), fam.counts)
    f = cell_values(seed, fam.n_cells)
    np.testing.assert_allclose(fam.means(f), [np.mean(f[s]) for s in sets], rtol=4 * np.finfo(float).eps, atol=0.0)
    # segment sums run in order, np.mean sums pairwise: a few ulp apart
    np.testing.assert_allclose(
        apply_sparse_operator(fam, CellField(f, 0.25)).values,
        loop_sparse_operator(sets, f),
        rtol=4 * np.finfo(float).eps,
        atol=0.0,
    )


class TestFlatFamilyAgainstLoops:
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(interval_families(), st.integers(0, 2**32 - 1))
    def test_interval_family(self, family, seed):
        grid, intervals = family
        fam = CellFamily.from_intervals(intervals, grid)
        sets, dropped = loop_interval_sets(intervals, grid.centers())
        assert fam.dropped == dropped
        assert len(fam) == len(sets)
        assert all(np.array_equal(a, b) for a, b in zip(sets_of(fam), sets))
        assert_matches_loop(fam, sets, seed)

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(mask_families(), st.integers(0, 2**32 - 1))
    def test_mask_family(self, family, seed):
        grid, masks = family
        fam = CellFamily.from_masks(masks, grid)
        sets = [np.flatnonzero(m) for m in masks if m.any()]
        assert fam.dropped == sum(1 for m in masks if not m.any())
        assert fam.n_cells == grid.gx.n * grid.gy.n
        assert len(fam) == len(sets)
        assert all(np.array_equal(a, b) for a, b in zip(sets_of(fam), sets))
        assert_matches_loop(fam, sets, seed)

    def test_no_masks_cover_the_grid(self):
        # a slab family with no slab still averages over all the grid's cells
        grid = Grid2D(Grid1D(0.0, 1.0, 8), Grid1D(0.0, 1.0, 16))
        fam = CellFamily.from_masks([], grid)
        assert len(fam) == 0 and fam.n_cells == 128 and fam.max_overlap == 0
        out = apply_sparse_operator(fam, CellField(np.ones((8, 16)), 1.0 / 128)).values
        assert np.array_equal(out, np.zeros(128))

    def test_mask_of_another_shape_is_rejected(self):
        grid = Grid2D(Grid1D(0.0, 1.0, 8), Grid1D(0.0, 1.0, 16))
        with pytest.raises(ValueError, match="shape"):
            CellFamily.from_masks([np.ones((16, 8), dtype=bool)], grid)

    def test_empty_family(self):
        fam = CellFamily.from_intervals([], Grid1D(0.0, 1.0, 8))
        assert len(fam) == 0 and fam.max_overlap == 0
        out = apply_sparse_operator(fam, CellField(np.ones(8), 0.125)).values
        assert out.dtype == float and np.array_equal(out, np.zeros(8))
        assert fam.means(np.ones(8)).shape == (0,)
        assert fam.scatter([]).dtype == float and np.array_equal(fam.scatter([]), np.zeros(8))


class TestApply:
    def test_pair_family_action(self):
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f).values
        half = fam.n_cells // 2
        np.testing.assert_allclose(tf[:half], 1.5, rtol=1e-12)
        np.testing.assert_allclose(tf[half:], 0.5, rtol=1e-12)

    def test_indicator_of_set_is_fixed_by_its_average(self):
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 1.0)], grid)
        chi = np.zeros(fam.n_cells)
        chi[sets_of(fam)[0]] = 1.0
        np.testing.assert_allclose(apply_sparse_operator(fam, CellField(chi, grid.h)).values, chi, atol=1e-15)

    def test_linearity(self):
        # T acts on fields, which are non-negative: additive and positively
        # homogeneous on that cone
        grid, fam, f = pair_family()
        rng = np.random.default_rng(0)
        g = CellField(rng.normal(size=fam.n_cells), grid.h)
        lhs = apply_sparse_operator(fam, CellField(2.0 * f.values + 3.0 * g.values, grid.h)).values
        rhs = 2.0 * apply_sparse_operator(fam, f).values + 3.0 * apply_sparse_operator(fam, g).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_positivity(self):
        grid, fam, f = pair_family()
        assert np.all(apply_sparse_operator(fam, CellField(f.values + 0.25, grid.h)).values > 0.0)

    def test_builds_one_field_sized_array(self):
        # T f is stored as np.bincount returns it, with no copy through
        # np.abs: a family of a few short sets on many cells leaves the
        # result as the only array of the field's size
        n_cells = 1 << 20
        fam = CellFamily(np.arange(0, n_cells, 4096), np.full(16, 16), n_cells)
        f = CellField(np.linspace(0.0, 1.0, n_cells), 1.0 / n_cells)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tf = apply_sparse_operator(fam, f)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert tf.values.size == n_cells and np.all(tf.values >= 0.0)
        assert after - before >= f.values.nbytes
        assert peak - before < 1.5 * f.values.nbytes

    def test_nonnegative_field_checks_its_measure(self):
        with pytest.raises(ValueError, match="positive"):
            CellField.of_nonnegative(np.ones(4), 0.0)

    def test_wrong_cell_count_rejected(self):
        grid, fam, _ = pair_family()
        with pytest.raises(ValueError):
            apply_sparse_operator(fam, CellField(np.ones(fam.n_cells + 1), grid.h))


class TestOperatorNorm:
    def test_l1_equality_at_overlap_constant(self):
        # ||Tf||_1 = sum over P of int_P |f| reaches K||f||_1 exactly when
        # every cell of supp f is covered K times
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:1"), fam, f, tf)
        assert ok and K == 2
        assert lhs == pytest.approx(2.0, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    def test_sup_norm_bound(self):
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:inf"), fam, f, tf)
        assert ok
        assert lhs == pytest.approx(1.5, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("text", ["L:1", "L:2", "L:inf", "Lor:2,2", "Lor:3/2,1", "Orl:pow:2", "Orl:exp"])
    def test_bound_across_spaces_random_input(self, text):
        grid, fam, _ = pair_family()
        rng = np.random.default_rng(11)
        f = CellField(rng.normal(size=fam.n_cells), grid.h)
        tf = apply_sparse_operator(fam, f)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse(text), fam, f, tf)
        assert ok, f"{text}: {lhs} > {K} * {rhs / max(K, 1)}"

    def test_bound_on_built_sine_family(self):
        spec = TestFunctionSpec(
            family="sine-window",
            center=0.0,
            width=1.0,
            amplitude=1.0,
            frequency=1.0,
            window=(-1.5 * math.pi, 1.5 * math.pi),
        )
        u = make_test_function(spec, grid_for_spec(spec, 1024))
        fam1d = build_family_1d(u, default_k_min(u))
        fam = CellFamily.from_intervals(fam1d.intervals, u.grid)
        assert fam.max_overlap <= 3
        f = CellField(u.center_values(2), u.grid.h)
        tf = apply_sparse_operator(fam, f)
        for text in ("L:1", "L:2", "Lor:2,2", "Orl:exp"):
            lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse(text), fam, f, tf)
            assert ok, text

    def test_zero_input_vacuous(self):
        grid, fam, _ = pair_family()
        zero = CellField(np.zeros(fam.n_cells), grid.h)
        tzero = apply_sparse_operator(fam, zero)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:2"), fam, zero, tzero)
        assert ok and lhs == 0.0 and rhs == 0.0


class TestModularContraction:
    def test_single_set_is_jensen(self):
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 2.0)], grid)
        rng = np.random.default_rng(2)
        f = CellField(rng.normal(size=fam.n_cells), grid.h)
        young = YoungFunction("pow", (Fraction(2),))
        lhs, rhs, ok = modular_contraction_check(young, fam, f, apply_sparse_operator(fam, f))
        assert ok and lhs <= rhs

    def test_pair_family_exp_young(self):
        grid, fam, f = pair_family()
        f2 = CellField(2.0 * f.values, grid.h)
        lhs, rhs, ok = modular_contraction_check(YoungFunction("exp"), fam, f2, apply_sparse_operator(fam, f2))
        assert ok

    def test_scale_by_overlap_is_required(self):
        # without dividing by K the modular genuinely grows: the check
        # compares rho(Tf/K), not rho(Tf)
        grid, fam, f = pair_family()
        young = YoungFunction("pow", (Fraction(2),))
        K = fam.max_overlap
        tf = apply_sparse_operator(fam, f)
        assert modular(young, tf) > modular(young, f)
        lhs, rhs, ok = modular_contraction_check(young, fam, f, tf)
        assert ok and lhs <= rhs

    def test_indicator_equality(self):
        # Tf = f for the indicator of a single set: contraction is equality
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 1.0)], grid)
        chi = np.zeros(fam.n_cells)
        chi[sets_of(fam)[0]] = 1.0
        chi = CellField(chi, grid.h)
        lhs, rhs, ok = modular_contraction_check(YoungFunction("exp"), fam, chi, apply_sparse_operator(fam, chi))
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-12)
