"""Sparse averaging operator: rasterization, action, norm and modular checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gnsparse.errors import EmptyRegionError
from gnsparse.grid import Grid1D
from gnsparse.norms import modular, space_norm
from gnsparse.operator import (
    CellFamily,
    apply_sparse_operator,
    modular_contraction_check,
    operator_norm_check,
)
from gnsparse.sparse1d import EscapeInterval, build_family_1d, default_k_min
from gnsparse.spaces import SpaceDescriptor, YoungFunction
from gnsparse.testfunctions import TestFunctionSpec, grid_for_spec, make_test_function


def iv(z, y, k=0, sign=1):
    return EscapeInterval(z=z, y=y, k=k, sign=sign, seed=0.5 * (z + y))


def t_abs(fam, f):
    # the T|f| the checks take from their caller
    return apply_sparse_operator(fam, np.abs(f))


def pair_family():
    # P1 = (0,1), P2 = (0,2) on [0,2]: K = 2, and for f = chi_(0,1):
    # Tf = 1.5 on (0,1), 0.5 on (1,2)
    grid = Grid1D(0.0, 2.0, 512)
    fam = CellFamily.from_intervals([iv(0.0, 1.0), iv(0.0, 2.0)], grid)
    f = (grid.centers() < 1.0).astype(float)
    return grid, fam, f


class TestRasterize:
    def test_center_in_open_interval_rule(self):
        grid = Grid1D(0.0, 1.0, 8)  # centers at (2i+1)/16
        fam = CellFamily.from_intervals([iv(0.25, 0.75)], grid)
        assert len(fam) == 1
        np.testing.assert_array_equal(fam.sets[0], [2, 3, 4, 5])

    def test_degenerate_interval_dropped(self):
        grid = Grid1D(0.0, 1.0, 8)
        # (0.23, 0.29) contains no cell center (nearest are 0.1875, 0.3125)
        fam = CellFamily.from_intervals([iv(0.23, 0.29), iv(0.25, 0.75)], grid)
        assert len(fam) == 1
        assert fam.dropped == 1

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyRegionError):
            CellFamily([np.array([], dtype=int)], [(0, 1)], 8, 0.125)

    def test_overlap_counting(self):
        grid, fam, _ = pair_family()
        counts = fam.counts
        assert fam.max_overlap == 2
        assert int(np.max(counts)) == 2
        assert int(np.min(counts[: len(counts) // 2])) == 2
        assert int(np.max(counts[len(counts) // 2 :])) == 1


class TestApply:
    def test_pair_family_action(self):
        grid, fam, f = pair_family()
        tf = apply_sparse_operator(fam, f)
        half = fam.n_cells // 2
        np.testing.assert_allclose(tf[:half], 1.5, rtol=1e-12)
        np.testing.assert_allclose(tf[half:], 0.5, rtol=1e-12)

    def test_indicator_of_set_is_fixed_by_its_average(self):
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 1.0)], grid)
        chi = np.zeros(fam.n_cells)
        chi[fam.sets[0]] = 1.0
        np.testing.assert_allclose(apply_sparse_operator(fam, chi), chi, atol=1e-15)

    def test_linearity(self):
        grid, fam, f = pair_family()
        rng = np.random.default_rng(0)
        g = rng.normal(size=fam.n_cells)
        lhs = apply_sparse_operator(fam, 2.0 * f + 3.0 * g)
        rhs = 2.0 * apply_sparse_operator(fam, f) + 3.0 * apply_sparse_operator(fam, g)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_positivity(self):
        grid, fam, f = pair_family()
        assert np.all(apply_sparse_operator(fam, np.abs(f) + 0.25) > 0.0)

    def test_wrong_cell_count_rejected(self):
        grid, fam, _ = pair_family()
        with pytest.raises(ValueError):
            apply_sparse_operator(fam, np.ones(fam.n_cells + 1))


class TestOperatorNorm:
    def test_l1_equality_at_overlap_constant(self):
        # ||Tf||_1 = sum over P of int_P |f| reaches K||f||_1 exactly when
        # every cell of supp f is covered K times
        grid, fam, f = pair_family()
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:1"), fam, f, t_abs(fam, f))
        assert ok and K == 2
        assert lhs == pytest.approx(2.0, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    def test_sup_norm_bound(self):
        grid, fam, f = pair_family()
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:inf"), fam, f, t_abs(fam, f))
        assert ok
        assert lhs == pytest.approx(1.5, rel=1e-12)
        assert rhs == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("text", ["L:1", "L:2", "L:inf", "Lor:2,2", "Lor:3/2,1", "Orl:pow:2", "Orl:exp"])
    def test_bound_across_spaces_random_input(self, text):
        grid, fam, _ = pair_family()
        rng = np.random.default_rng(11)
        f = rng.normal(size=fam.n_cells)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse(text), fam, f, t_abs(fam, f))
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
        f = np.abs(u.center_values(2))
        for text in ("L:1", "L:2", "Lor:2,2", "Orl:exp"):
            lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse(text), fam, f, t_abs(fam, f))
            assert ok, text

    def test_zero_input_vacuous(self):
        grid, fam, _ = pair_family()
        zero = np.zeros(fam.n_cells)
        lhs, rhs, K, ok = operator_norm_check(SpaceDescriptor.parse("L:2"), fam, zero, t_abs(fam, zero))
        assert ok and lhs == 0.0 and rhs == 0.0


class TestModularContraction:
    def test_single_set_is_jensen(self):
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 2.0)], grid)
        rng = np.random.default_rng(2)
        f = np.abs(rng.normal(size=fam.n_cells))
        young = YoungFunction("pow", (Fraction(2),))
        lhs, rhs, ok = modular_contraction_check(young, fam, f, t_abs(fam, f))
        assert ok and lhs <= rhs

    def test_pair_family_exp_young(self):
        grid, fam, f = pair_family()
        lhs, rhs, ok = modular_contraction_check(YoungFunction("exp"), fam, 2.0 * f, t_abs(fam, 2.0 * f))
        assert ok

    def test_scale_by_overlap_is_required(self):
        # without dividing by K the modular genuinely grows: the check
        # compares rho(Tf/K), not rho(Tf)
        grid, fam, f = pair_family()
        young = YoungFunction("pow", (Fraction(2),))
        K = fam.max_overlap
        tf = apply_sparse_operator(fam, f)
        mu = fam.cell_measure
        assert modular(young, tf, mu) > modular(young, f, mu)
        lhs, rhs, ok = modular_contraction_check(young, fam, f, t_abs(fam, f))
        assert ok and lhs <= rhs

    def test_indicator_equality(self):
        # Tf = f for the indicator of a single set: contraction is equality
        grid = Grid1D(0.0, 2.0, 512)
        fam = CellFamily.from_intervals([iv(0.0, 1.0)], grid)
        chi = np.zeros(fam.n_cells)
        chi[fam.sets[0]] = 1.0
        lhs, rhs, ok = modular_contraction_check(YoungFunction("exp"), fam, chi, t_abs(fam, chi))
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-12)
