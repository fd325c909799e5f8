"""Sparse averaging operator: rasterization, action, and the majorization
certificate with the norm and modular bounds it implies."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse.errors import EmptyRegionError
from gnsparse.grid import Grid1D, Grid2D
from gnsparse.norms import modular
from gnsparse.operator import (
    MAJORIZATION_SLACK,
    CellFamily,
    apply_sparse_operator,
    majorization_ratio,
    modular_contraction_check,
    operator_norm_check,
)
from gnsparse.rearrangement import CellField
from gnsparse.sparse1d import build_family_1d, default_k_min
from gnsparse.spaces import SpaceDescriptor, YoungFunction
from gnsparse.testfunctions import TestFunctionSpec, make_test_function

from oracles import (
    BOUND_SPACES,
    dyadic_maximal_operator,
    loop_counts,
    loop_interval_sets,
    loop_sparse_operator,
    modular_bound,
    sets_of,
    space_bound,
)


def pair_family():
    # P1 = (0,1), P2 = (0,2) on [0,2]: K = 2, and for f = chi_(0,1):
    # Tf = 1.5 on (0,1), 0.5 on (1,2)
    grid = Grid1D(0.0, 2.0, 512)
    fam = CellFamily.from_intervals([0.0, 0.0], [1.0, 2.0], grid)
    f = CellField((grid.centers() < 1.0).astype(float), grid.h)
    return grid, fam, f


class TestRasterize:
    def test_center_in_open_interval_rule(self):
        grid = Grid1D(0.0, 1.0, 8)  # centers at (2i+1)/16
        fam = CellFamily.from_intervals([0.25], [0.75], grid)
        assert len(fam) == 1
        np.testing.assert_array_equal(sets_of(fam)[0], [2, 3, 4, 5])

    def test_degenerate_interval_dropped(self):
        grid = Grid1D(0.0, 1.0, 8)
        # (0.23, 0.29) contains no cell center (nearest are 0.1875, 0.3125)
        fam = CellFamily.from_intervals([0.23, 0.25], [0.29, 0.75], grid)
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
    """A grid on [0, 1] and the end arrays z, y of intervals on it, some with
    an end on a cell center and some trapping no center at all."""
    n = draw(st.integers(8, 64))
    grid = Grid1D(0.0, 1.0, n)
    centers = grid.centers()
    end = st.one_of(st.floats(-0.2, 1.2), st.integers(0, n - 1).map(lambda i: float(centers[i])))
    z, y = [], []
    for a, b in draw(st.lists(st.tuples(end, end), max_size=12)):
        a, b = min(a, b), max(a, b)
        z.append(a)
        y.append(b if a < b else a + 0.3 / n)
    return grid, np.array(z, dtype=float), np.array(y, dtype=float)


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
    @settings(max_examples=80)
    @given(interval_families(), st.integers(0, 2**32 - 1))
    def test_interval_family(self, family, seed):
        grid, z, y = family
        fam = CellFamily.from_intervals(z, y, grid)
        sets, dropped = loop_interval_sets(z, y, grid.centers())
        assert fam.dropped == dropped
        assert len(fam) == len(sets)
        assert all(np.array_equal(a, b) for a, b in zip(sets_of(fam), sets))
        assert_matches_loop(fam, sets, seed)

    @settings(max_examples=80)
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
        fam = CellFamily.from_intervals([], [], Grid1D(0.0, 1.0, 8))
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
        fam = CellFamily.from_intervals([0.0], [1.0], grid)
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


def single_set_indicator():
    # T chi_P = chi_P for the one set P = (0, 1) on [0, 2], with K = 1
    grid = Grid1D(0.0, 2.0, 512)
    fam = CellFamily.from_intervals([0.0], [1.0], grid)
    chi = np.zeros(fam.n_cells)
    chi[sets_of(fam)[0]] = 1.0
    return grid, fam, CellField(chi, grid.h)


class TestMajorizationCertificate:
    def test_equality_witnesses_read_exactly_one(self):
        # int_0^t (Tf)* = K int_0^t f* at the end of the support: the
        # nested pair on its inner indicator, one set on its own indicator,
        # and one set over every cell on a constant field
        grid, pair, inner = pair_family()
        _, single, chi = single_set_indicator()
        whole = CellFamily.from_intervals([0.0], [2.0], grid)
        constant = CellField(np.full(whole.n_cells, 0.7), grid.h)
        for fam, f in ((pair, inner), (single, chi), (whole, constant)):
            tf = apply_sparse_operator(fam, f)
            assert majorization_ratio(f, tf, fam.max_overlap) == 1.0
            assert operator_norm_check(fam, f, tf) == (1.0, True)
            assert modular_contraction_check(fam, f, tf) == (1.0, True)

    def test_empty_family_reads_zero(self):
        grid = Grid1D(0.0, 1.0, 8)
        fam = CellFamily.from_intervals([], [], grid)
        f = CellField(np.ones(8), grid.h)
        assert majorization_ratio(f, apply_sparse_operator(fam, f), fam.max_overlap) == 0.0

    def test_understated_constant_fails(self):
        # K - 1 in place of K: the nested pair's indicator reads 2 / 1
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        assert majorization_ratio(f, tf, fam.max_overlap - 1) == 2.0
        fam.max_overlap -= 1
        assert operator_norm_check(fam, f, tf) == (2.0, False)
        assert modular_contraction_check(fam, f, tf) == (2.0, False)

    def test_slack_is_the_only_cushion(self):
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        over = CellField.of_nonnegative(tf.values * (1.0 + 4 * MAJORIZATION_SLACK), grid.h)
        ratio, ok = operator_norm_check(fam, f, over)
        assert not ok and ratio == pytest.approx(1.0 + 4 * MAJORIZATION_SLACK, rel=1e-15)

    def test_ratio_is_the_cumulative_integral_ratio_at_every_break(self):
        # the cell-boundary maximum equals the maximum over every break of
        # both rearrangements, read from the CellField plateaus
        grid, fam, _ = pair_family()
        rng = np.random.default_rng(5)
        f = CellField(np.round(rng.random(fam.n_cells), 1), grid.h)
        tf = apply_sparse_operator(fam, f)
        t = np.union1d(f.breaks, tf.breaks)[1:]
        lhs = np.interp(t, tf.breaks, tf.cum_integral)
        rhs = fam.max_overlap * np.interp(t, f.breaks, f.cum_integral)
        assert majorization_ratio(f, tf, fam.max_overlap) == pytest.approx(float(np.max(lhs / rhs)), rel=1e-12)


class TestOperatorNorm:
    """A passing certificate, then each norm bound it implies, checked directly."""

    def test_l1_equality_at_overlap_constant(self):
        # ||Tf||_1 = sum over P of int_P |f| reaches K||f||_1 exactly when
        # every cell of supp f is covered K times
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        assert operator_norm_check(fam, f, tf)[1] and fam.max_overlap == 2
        lhs, rhs, ok = space_bound(SpaceDescriptor.parse("L:1"), fam, f, tf)
        assert ok
        assert lhs == pytest.approx(2.0, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    def test_sup_norm_bound(self):
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        lhs, rhs, ok = space_bound(SpaceDescriptor.parse("L:inf"), fam, f, tf)
        assert ok
        assert lhs == pytest.approx(1.5, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("space", BOUND_SPACES, ids=lambda space: space.format())
    def test_bound_across_spaces_random_input(self, space):
        grid, fam, _ = pair_family()
        rng = np.random.default_rng(11)
        f = CellField(rng.normal(size=fam.n_cells), grid.h)
        tf = apply_sparse_operator(fam, f)
        ratio, ok = operator_norm_check(fam, f, tf)
        assert ok and ratio <= 1.0
        lhs, rhs, ok = space_bound(space, fam, f, tf)
        assert ok, f"{space.format()}: {lhs} > {rhs}"

    def test_bound_on_built_sine_family(self):
        spec = TestFunctionSpec(
            family="sine-window",
            center=0.0,
            width=1.0,
            amplitude=1.0,
            frequency=1.0,
            window=(-1.5 * math.pi, 1.5 * math.pi),
        )
        u = make_test_function(spec, 1024)
        fam1d = build_family_1d(u, default_k_min(u))
        fam = CellFamily.from_intervals(fam1d.z, fam1d.y, u.grid)
        assert fam.max_overlap <= 3
        f = CellField(u.center_values(2), u.grid.h)
        tf = apply_sparse_operator(fam, f)
        assert operator_norm_check(fam, f, tf)[1]
        for text in ("L:1", "L:2", "Lor:2,2", "Orl:exp"):
            assert space_bound(SpaceDescriptor.parse(text), fam, f, tf)[2], text

    def test_zero_input_vacuous(self):
        grid, fam, _ = pair_family()
        zero = CellField(np.zeros(fam.n_cells), grid.h)
        tzero = apply_sparse_operator(fam, zero)
        # a zero field reads 0 and passes both checks
        assert majorization_ratio(zero, tzero, fam.max_overlap) == 0.0
        assert operator_norm_check(fam, zero, tzero) == (0.0, True)
        assert modular_contraction_check(fam, zero, tzero) == (0.0, True)
        assert space_bound(SpaceDescriptor.parse("L:2"), fam, zero, tzero) == (0.0, 0.0, True)


class TestModularContraction:
    """A passing certificate, then rho(T f / K) <= rho(f), checked directly."""

    def test_single_set_is_jensen(self):
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([0.0], [2.0], grid)
        rng = np.random.default_rng(2)
        f = CellField(rng.normal(size=fam.n_cells), grid.h)
        tf = apply_sparse_operator(fam, f)
        assert modular_contraction_check(fam, f, tf)[1]
        lhs, rhs, ok = modular_bound(YoungFunction("pow", (Fraction(2),)), fam, f, tf)
        assert ok and lhs <= rhs

    def test_pair_family_exp_young(self):
        grid, fam, f = pair_family()
        f2 = CellField(2.0 * f.values, grid.h)
        tf = apply_sparse_operator(fam, f2)
        assert modular_contraction_check(fam, f2, tf)[1]
        assert modular_bound(YoungFunction("exp"), fam, f2, tf)[2]

    def test_scale_by_overlap_is_required(self):
        # without dividing by K the modular genuinely grows: the bound
        # compares rho(Tf/K), not rho(Tf)
        grid, fam, f = pair_family()
        young = YoungFunction("pow", (Fraction(2),))
        tf = apply_sparse_operator(fam, f)
        assert modular(young, tf) > modular(young, f)
        assert modular_contraction_check(fam, f, tf)[1]
        lhs, rhs, ok = modular_bound(young, fam, f, tf)
        assert ok and lhs <= rhs

    def test_indicator_equality(self):
        # Tf = f for the indicator of a single set: contraction is equality
        _, fam, chi = single_set_indicator()
        tf = apply_sparse_operator(fam, chi)
        assert modular_contraction_check(fam, chi, tf) == (1.0, True)
        lhs, rhs, ok = modular_bound(YoungFunction("exp"), fam, chi, tf)
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dyadic_maximal_operator_of_a_spike():
    # the dyadic blocks holding cell 0 have sizes 1, 2, 4 and 8
    assert dyadic_maximal_operator([-8.0, 0, 0, 0, 0, 0, 0, 0]).tolist() == [8, 4, 2, 2, 1, 1, 1, 1]
    with pytest.raises(ValueError, match="power of 2"):
        dyadic_maximal_operator(np.ones(6))


def test_maximal_operator_grows_where_the_averaging_operator_stays_bounded():
    # T is bounded by K on every r.i. space, L1 included; the dyadic maximal
    # operator M is not bounded on L1.  On |u''| of a bump of width w, T's
    # certificate stays at most 1 while M's ratio (K = 1) grows like log(1/w)
    t_ratios, m_ratios = [], []
    for w in (0.4, 0.1, 0.025, 0.00625):
        spec = TestFunctionSpec("smooth-bump", 0.0, w, 1.0, 0.0, (-1.5, 1.5))
        u = make_test_function(spec, round(1024 * 0.4 / w))
        cells = build_family_1d(u, default_k_min(u)).cells
        f = CellField(u.center_values(2), u.grid.h)
        t_ratios.append(operator_norm_check(cells, f, apply_sparse_operator(cells, f))[0])
        m_ratios.append(majorization_ratio(f, CellField.of_nonnegative(dyadic_maximal_operator(f.values), u.grid.h), 1))
    assert max(t_ratios) <= 1.0
    assert all(b - a >= 0.9 for a, b in zip(m_ratios, m_ratios[1:])), m_ratios
