"""Escape intervals, family construction, overlap, and pointwise bounds in 1D."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse import sparse1d
from gnsparse.errors import ConstructionError, CorpusConfigError, EmptyRegionError
from gnsparse.grid import Grid1D, GridFunction1D, interval_integrals
from gnsparse.operator import (
    apply_sparse_operator,
    modular_contraction_check,
    operator_norm_check,
)
from gnsparse.rearrangement import CellField
from gnsparse.spaces import SpaceDescriptor
from gnsparse.sparse1d import (
    BISECT_TOL_FACTOR,
    NO_LEVEL,
    SparseFamily1D,
    build_family_1d,
    coverage_report,
    default_k_min,
    level_floor,
    level_index,
    levels_of,
    seeded_runs,
    verify_pointwise_1d,
)
from gnsparse.testfunctions import TestFunctionSpec, make_test_function

from corpus import member, members
from oracles import (
    BOUND_YOUNGS,
    factorized_bounds_report,
    float_band,
    interval_table,
    loop_pointwise_1d,
    modular_bound,
    nonzero_seeded_runs,
    observation_bounds_report,
    resolved_k_min,
    space_bound,
)


def build_allowing_exits(u):
    """The family of u at the default k_min with the window-exit budget
    lifted, for tests that look at the exits themselves."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse1d, "EXIT_FRACTION_LIMIT", 1.0)
        return build_family_1d(u, default_k_min(u))


def sine_function(n=1024):
    # sin(x) on a window ending at zeros of cos, so every band closes inside
    spec = TestFunctionSpec(
        family="sine-window",
        center=0.0,
        width=1.0,
        amplitude=1.0,
        frequency=1.0,
        window=(-1.5 * math.pi, 1.5 * math.pi),
        name="sin",
    )
    return make_test_function(spec, n)


def gaussian_function(n=1200, window=(-6.0, 6.0)):
    spec = TestFunctionSpec(
        family="gaussian",
        center=0.0,
        width=1.0,
        amplitude=1.0,
        window=window,
        name="gauss",
    )
    return make_test_function(spec, n)


def seed_interval(u, x, sign):
    """The default family's interval of node x's own (k, sign) that holds
    x, as its row of the interval table."""
    k = level_index(sign * float(u.evaluate(x, (1,))[0]))
    iv = build_family_1d(u, default_k_min(u)).intervals
    (row,) = np.flatnonzero((iv.k == k) & (iv.sign == sign) & (iv.z < x) & (x < iv.y))
    return iv[row]


def interval_mean(u, iv, order):
    """Mean of |u^(order)| over an interval, by the family's quadrature."""
    return interval_integrals(lambda t: [np.abs(u.evaluate(t, (order,))[0])], iv.z, iv.y, u.grid.h)[0, 0] / (iv.y - iv.z)


class TestLevelIndex:
    def test_known_values(self):
        assert level_index(1.0) == 1
        assert level_index(0.5) == 0
        assert level_index(3.0) == 2
        assert level_index(0.25) == -1
        assert level_index(2.0) == 2
        assert level_index(1.999999) == 1

    def test_half_open_convention(self):
        # 2^(k-1) belongs to level k, 2^k does not
        for k in (-8, -1, 0, 1, 5):
            lo = math.ldexp(1.0, k - 1)
            assert level_index(lo) == k
            assert level_index(math.nextafter(lo, 0.0)) == k - 1

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                level_index(bad)

    def test_levels_of(self):
        # a level map is the binary exponent of each positive sample: level
        # k holds [2^(k-1), 2^k), so a power of two starts its level and its
        # lower neighbour ends the one below, subnormals included
        ks = list(range(-1072, 1025, 7))
        floors = [level_floor(k) for k in ks]
        assert levels_of(floors).tolist() == ks
        assert levels_of([math.nextafter(v, 0.0) for v in floors]).tolist() == [k - 1 for k in ks]
        assert levels_of([math.nextafter(v, math.inf) for v in floors]).tolist() == ks
        assert levels_of([5e-324, 1e-310, 1.0, 3.0, 0.75]).tolist() == [-1073, -1029, 1, 2, 0]
        assert levels_of([0.0, -0.0, -1.0, -5e-324, math.nan]).tolist() == [NO_LEVEL] * 5
        assert levels_of(np.ones((2, 3))).shape == (2, 3)

    def test_levels_of_matches_the_float_bands(self):
        # on random values the level is k exactly where the value lies in
        # level_floor's band [2^(k-1), 2^k), and within one of k exactly
        # where it lies in the widened band [2^(k-2), 2^(k+1))
        rng = np.random.default_rng(0)
        g = rng.choice([1.0, -1.0], 4000) * 2.0 ** rng.uniform(-40.0, 40.0, 4000)
        levels = levels_of(g)
        for k in range(-42, 43):
            own = (g >= level_floor(k)) & (g < level_floor(k + 1))
            wide = (g >= level_floor(k - 1)) & (g < level_floor(k + 2))
            assert np.array_equal(levels == k, own) and np.array_equal(np.abs(levels - k) <= 1, wide)


class TestEscapeInterval:
    def test_sine_at_origin(self):
        # u' = cos, level 1 at x = 0, widened band [1/2, 4); cos >= 1/2
        # exactly on [-pi/3, pi/3]
        u = sine_function()
        x0 = float(u.grid.nodes()[512])
        assert x0 == pytest.approx(0.0, abs=1e-12)
        iv = seed_interval(u, x0, 1)
        assert iv.k == 1
        assert iv.sign == 1
        assert iv.z == pytest.approx(-math.pi / 3, abs=1e-3)
        assert iv.y == pytest.approx(math.pi / 3, abs=1e-3)
        assert iv.z < x0 < iv.y

    def test_gaussian_against_bisection_oracle(self):
        # u' = -2x exp(-x^2); at x = -0.5 the level-0 band is [1/4, 2) and
        # both exits solve 2|t| exp(-t^2) = 1/4
        u = gaussian_function()
        nodes = u.grid.nodes()
        x0 = float(nodes[550])
        assert x0 == pytest.approx(-0.5, abs=1e-12)

        def f(t):
            return 2.0 * abs(t) * math.exp(-t * t) - 0.25

        def bisect(a, b):
            for _ in range(60):
                m = 0.5 * (a + b)
                if (f(a) > 0) == (f(m) > 0):
                    a = m
                else:
                    b = m
            return 0.5 * (a + b)

        z_exp = bisect(-2.0, -1.0)
        y_exp = bisect(-0.3, -0.01)
        iv = seed_interval(u, x0, 1)
        assert iv.k == 0
        assert iv.z == pytest.approx(z_exp, abs=1e-4)
        assert iv.y == pytest.approx(y_exp, abs=1e-4)
        # frozen oracle values for the record
        assert z_exp == pytest.approx(-1.59589, abs=2e-5)
        assert y_exp == pytest.approx(-0.12703, abs=2e-5)

    def test_negative_slope_uses_opposite_sign(self):
        u = gaussian_function()
        x0 = float(u.grid.nodes()[650])
        assert x0 == pytest.approx(0.5, abs=1e-12)
        iv = seed_interval(u, x0, -1)
        assert iv.k == 0
        assert iv.z == pytest.approx(0.12703, abs=1e-3)
        assert iv.y == pytest.approx(1.59589, abs=1e-3)

    def test_window_exit_raises(self):
        # on (-1.2, 1.2) the level-0 band [1/4, 2) never closes to the right
        # of x = 1: |u'(1.2)| = 2.4 exp(-1.44) > 1/4, so the node nearest 1
        # is a window exit, and exits past 1% of the eligible nodes raise
        u = gaussian_function(n=1024, window=(-1.2, 1.2))
        i = int(np.argmin(np.abs(u.grid.nodes() - 1.0)))
        assert i == 939
        with pytest.raises(CorpusConfigError):
            build_family_1d(u, default_k_min(u))
        fam = build_allowing_exits(u)
        assert i in fam.window_exit_nodes
        x, iv = u.grid.nodes()[i], fam.intervals
        assert not np.any((iv.sign == -1) & (iv.k == 0) & (iv.z < x) & (x < iv.y))


class TestFamilyConstruction:
    def test_sine_family_coverage_and_overlap(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=-6)
        assert len(fam) > 0
        assert fam.window_exit_nodes == []
        uncovered, _ = coverage_report(fam)
        assert uncovered.size == 0
        assert fam.cells.max_overlap == 3  # attained: levels k-1, k, k+1 all cover x ~ 0.9

    def test_overlap_three_attained_near_stated_point(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=-6)
        iv = fam.intervals
        covering = iv[(iv.z < 0.9) & (0.9 < iv.y)]
        assert sorted(covering.k.tolist()) == [-1, 0, 1]
        assert np.all(covering.sign == 1)

    def test_same_level_intervals_are_disjoint(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=-6)
        tol = u.grid.h * 1e-2
        groups = {}
        for iv in fam.intervals:
            groups.setdefault((iv.k, iv.sign), []).append(iv)
        for ivs in groups.values():
            ivs.sort(key=lambda iv: iv.z)
            for a, b in zip(ivs, ivs[1:]):
                assert b.z >= a.y - tol

    def test_node_budget_accounting(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=0)
        d1 = np.abs(u.d1)
        zeros = int(np.sum(d1 == 0.0))
        assert fam.eligible_count + fam.unanalyzed_count + zeros == len(u.d1)
        assert fam.eligible_count == int(np.sum(d1 >= 0.5))

    def test_default_k_min_tracks_slope_sup(self):
        u = sine_function()
        k = default_k_min(u)  # sup|u'| = 1, floor 1e-6: 2^(k-1) >= 1e-6
        assert k == -18
        assert math.ldexp(1.0, k - 1) >= 1e-6
        assert math.ldexp(1.0, k - 2) < 1e-6

    def test_default_k_min_is_resolution_independent(self):
        a = default_k_min(sine_function(512))
        b = default_k_min(sine_function(2048))
        assert a == b

    def test_truncated_window_rejected(self):
        # a gaussian cut at [-1.2, 1.2] strands far more than 1% of its
        # eligible nodes in bands that cannot close inside the window
        u = gaussian_function(n=1024, window=(-1.2, 1.2))
        with pytest.raises(CorpusConfigError):
            build_family_1d(u, default_k_min(u))


class TestResolvedFloor:
    # compactly supported bump whose slope sup puts the default floor at
    # -18; the deepest populated levels live in slivers near the support
    # edge that span only a cell or two at n = 1024
    def bump(self, n=1024):
        spec = TestFunctionSpec(
            family="smooth-bump",
            center=-0.8,
            width=0.9,
            amplitude=0.8,
            window=(-2.2, 1.0),
            name="bump",
        )
        return make_test_function(spec, n)

    def test_raises_floor_past_edge_slivers(self):
        u = self.bump()
        assert default_k_min(u) == -18
        narrow = build_family_1d(u, -18)
        assert min(iv.y - iv.z for iv in narrow.intervals) < 2 * u.grid.h
        assert resolved_k_min(u) == -3

    def test_resolved_family_has_no_narrow_intervals(self):
        u = self.bump()
        fam = build_family_1d(u, resolved_k_min(u))
        assert min(iv.y - iv.z for iv in fam.intervals) >= 4 * u.grid.h
        assert sorted({iv.k for iv in fam.intervals}) == [-3, -2, -1, 0, 1]

    def test_min_cells_controls_the_threshold(self):
        # the narrowest default-floor interval spans 1.28 cells, so a
        # one-cell threshold is already satisfied there
        u = self.bump()
        assert resolved_k_min(u, min_cells=1) == default_k_min(u)
        assert resolved_k_min(u, min_cells=2) == -4
        assert resolved_k_min(u, min_cells=8) == -2

    def test_never_below_default_floor(self):
        u = sine_function()
        assert resolved_k_min(u) >= default_k_min(u)
        assert resolved_k_min(u) == -5

    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_corpus_resolved_families_stay_clean(self, spec):
        u = make_test_function(spec, 1024)
        fam = build_family_1d(u, resolved_k_min(u))
        assert min(iv.y - iv.z for iv in fam.intervals) >= 4 * u.grid.h
        uncovered, _ = coverage_report(fam)
        assert uncovered.size == 0
        assert fam.cells.max_overlap <= 3
        _, max_ratio = verify_pointwise_1d(u, fam)
        assert 0.0 < max_ratio <= 128.0


@pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
def test_corpus_family_invariants(spec):
    u = make_test_function(spec, 1024)
    fam = build_family_1d(u, default_k_min(u))
    assert len(fam.window_exit_nodes) <= 0.01 * max(fam.eligible_count, 1)
    uncovered, _ = coverage_report(fam)
    assert uncovered.size == 0
    centers = u.grid.centers()
    inside = [(centers > iv.z) & (centers < iv.y) for iv in fam.intervals]
    assert np.array_equal(fam.cells.counts, np.sum(inside, axis=0))
    assert fam.cells.max_overlap <= 3
    _, max_ratio = verify_pointwise_1d(u, fam)
    assert 0.0 < max_ratio <= 128.0


class TestPointwiseBound:
    def test_sine_spot_ratio(self):
        # single level-1 interval (-pi/3, pi/3): both averages equal
        # 3/(2 pi), so the own-interval ratio is (2 pi / 3)^2
        u = sine_function()
        x0 = float(u.grid.nodes()[512])
        iv = seed_interval(u, x0, 1)
        a2, a0 = interval_mean(u, iv, 2), interval_mean(u, iv, 0)
        assert a2 == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-4)
        assert a0 == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-4)
        ratio = 1.0 / (a2 * a0)
        assert ratio == pytest.approx(4.3865, abs=1e-3)
        assert ratio <= 128.0

    def test_family_max_ratio_below_constant(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=-6)
        ratios, max_ratio = verify_pointwise_1d(u, fam)
        assert max_ratio <= 128.0
        _, covered = coverage_report(fam)
        assert np.all(ratios[~covered] == 0.0)
        assert np.all(ratios[covered] > 0.0)

    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_corpus_ratios_equal_the_interval_loop(self, spec):
        u = make_test_function(spec, 1024)
        fam = build_family_1d(u, default_k_min(u))
        ratios, max_ratio = verify_pointwise_1d(u, fam)
        assert np.array_equal(ratios, loop_pointwise_1d(u, fam))
        assert max_ratio == float(np.max(ratios))

    def test_vanishing_average_names_the_first_offending_interval(self):
        # u'' vanishes on x > 0, so the second and third intervals fail
        def evaluate(x, orders):
            x = np.asarray(x, dtype=float)
            return [np.where(x < 0.0, 1.0, 0.0) if j == 2 else np.ones_like(x) for j in orders]

        u = GridFunction1D(Grid1D(-1.0, 1.0, 64), evaluate, label="kink")
        ends = ((-0.5, -0.25), (0.25, 0.5), (0.6, 0.7))
        z, y = np.array(ends).T
        fam = SparseFamily1D(np.zeros(3, dtype=int), np.ones(3, dtype=int), z, y, u.grid, u.d1, 0, [], 0, 0)
        with pytest.raises(ConstructionError, match=r"interval 1 \(0\.25, 0\.5\) has vanishing"):
            verify_pointwise_1d(u, fam)


class TestObservationBounds:
    def test_sine_bound_values(self):
        # int |u''| over (-pi/3, pi/3) is 2(1 - cos(pi/3)) = 1, giving
        # bound (a) = 4; bound (b) = 32/(2 pi/3)^2 * int |u| = 72/pi^2
        u = sine_function()
        x0 = float(u.grid.nodes()[512])
        iv = seed_interval(u, x0, 1)
        bound_a = 4.0 * (iv.y - iv.z) * interval_mean(u, iv, 2)
        bound_b = 32.0 / (iv.y - iv.z) * interval_mean(u, iv, 0)
        assert bound_a == pytest.approx(4.0, abs=1e-3)
        assert bound_b == pytest.approx(72.0 / math.pi**2, abs=1e-3)
        assert abs(u.evaluate(x0, (1,))[0]) <= min(bound_a, bound_b)
        worst_a, worst_b, ok = observation_bounds_report(u, build_family_1d(u, default_k_min(u)))
        assert ok and worst_a <= 1.0 and worst_b <= 1.0

    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_corpus_observation_report(self, spec):
        u = make_test_function(spec, 1024)
        fam = build_family_1d(u, default_k_min(u))
        worst_a, worst_b, ok = observation_bounds_report(u, fam)
        assert ok, f"worst a = {worst_a}, worst b = {worst_b}"
        assert worst_a <= 1.0  # the 2% slack is never actually needed
        assert worst_b <= 1.0

    def test_factorized_form_on_sine(self):
        u = sine_function()
        fam = build_family_1d(u, k_min=-6)
        ok_a, ok_b = factorized_bounds_report(u, fam)
        assert ok_a and ok_b


def scalar_family_1d(u, k_min):
    """Reference build, one seed at a time: walk out from each seed node to
    the ends of its in-band run and bisect each end with scalar evaluator
    calls.  Returns ((k, sign, z, y) in (k, sign, z) order, window exit
    nodes in (sign 1 then -1, k, node) order)."""
    nodes = u.grid.nodes()
    tol = float(nodes[1] - nodes[0]) * BISECT_TOL_FACTOR
    end = len(nodes) - 1

    def bisect(inside, t_in, t_out):
        while abs(t_out - t_in) > tol:
            mid = 0.5 * (t_in + t_out)
            if inside(mid):
                t_in = mid
            else:
                t_out = mid
        return 0.5 * (t_in + t_out)

    found = {}
    exits = []
    for sign in (1, -1):
        g = sign * u.d1
        last_run = {}
        for i in range(len(nodes)):
            if not g[i] >= level_floor(k_min):
                continue
            k = level_index(float(g[i]))
            lo, hi = level_floor(k - 1), level_floor(k + 2)
            left, right = last_run.get(k, (-1, -1))
            if not left <= i <= right:
                left = right = i
                while left > 0 and lo <= g[left - 1] < hi:
                    left -= 1
                while right < end and lo <= g[right + 1] < hi:
                    right += 1
                last_run[k] = (left, right)
            if left == 0 or right == end:
                exits.append((-sign, k, i))
            elif (k, sign, left) not in found:

                def inside(t, sign=sign, lo=lo, hi=hi):
                    return lo <= sign * float(u.evaluate(t, (1,))[0]) < hi

                z = bisect(inside, float(nodes[left]), float(nodes[left - 1]))
                y = bisect(inside, float(nodes[right]), float(nodes[right + 1]))
                found[k, sign, left] = (z, y)
    intervals = [(k, sign, z, y) for (k, sign, _), (z, y) in sorted(found.items())]
    return intervals, [i for _, _, i in sorted(exits)]


def assert_matches_scalar_family(u, fam):
    intervals, exits = scalar_family_1d(u, fam.k_min)
    assert [(iv.k, iv.sign) for iv in fam.intervals] == [(k, sign) for k, sign, _, _ in intervals]
    tol = BISECT_TOL_FACTOR * u.grid.h
    for iv, (_, _, z, y) in zip(fam.intervals, intervals):
        assert abs(iv.z - z) <= tol and abs(iv.y - y) <= tol
    assert fam.window_exit_nodes == exits


class TestScalarOracle:
    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_corpus(self, spec):
        u = make_test_function(spec, 1024)
        assert_matches_scalar_family(u, build_family_1d(u, default_k_min(u)))

    def test_fine_grid(self):
        spec = member("m5")
        u = make_test_function(spec, 16384)
        assert_matches_scalar_family(u, build_family_1d(u, default_k_min(u)))

    def test_window_exits(self):
        u = gaussian_function(n=1024, window=(-1.2, 1.2))
        fam = build_allowing_exits(u)
        assert fam.window_exit_nodes
        assert_matches_scalar_family(u, fam)


def scalar_interval_integral(fn, z, y, h_ref, with_bound=False):
    """Reference quadrature, one interval and one call of ``fn`` at a time:
    the trapezoid rule on ``np.linspace`` nodes with the batched panel rule.

    With ``with_bound``, also the distance by which a sum of the same nodes
    in another order may differ: 2 (panels + 1) eps step sum |v|.
    """
    if not y > z:
        raise EmptyRegionError(f"degenerate interval ({z}, {y})")
    panels = max(64, 8 * int(math.ceil((y - z) / h_ref)))
    t = np.linspace(z, y, panels + 1)
    v = np.asarray(fn(t), dtype=float)
    step = (y - z) / panels
    value = float(step * (np.sum(v) - 0.5 * (v[0] + v[-1])))
    if not with_bound:
        return value
    return value, 2.0 * (panels + 1) * np.finfo(float).eps * step * float(np.sum(np.abs(v)))


def assert_matches_scalar_rule(got, fn, z, y, h_ref, what=""):
    want, bound = scalar_interval_integral(fn, z, y, h_ref, with_bound=True)
    assert abs(got - want) <= bound, f"{what} ({z}, {y}): {got!r} vs {want!r}, bound {bound!r}"


class TestBatchedQuadrature:
    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_default_cases_equal_the_scalar_oracle(self, spec):
        # equal up to summation order, within the bound fixed by the oracle
        u = make_test_function(spec, 1024)
        table = list(interval_table(u, build_family_1d(u, default_k_min(u))))
        assert table
        for iv, _, _, int_d2, int_u in table:
            for m, got in ((2, int_d2), (0, int_u)):

                def fn(t, m=m):
                    return np.abs(u.evaluate(t, (m,))[0])

                assert_matches_scalar_rule(got, fn, iv.z, iv.y, u.grid.h, f"{spec.name} order {m}")

    def test_one_call_for_all_intervals(self):
        calls = []

        def fn(t):
            calls.append(t.size)
            return [np.cos(t), np.exp(t)]

        z, y = [0.0, 1.0, -3.0], [0.5, 4.0, -2.999]
        got = interval_integrals(fn, z, y, 0.01)
        assert len(calls) == 1
        assert got.shape == (2, 3)
        for row, f in zip(got.tolist(), (np.cos, np.exp)):
            for value, a, b in zip(row, z, y):
                assert_matches_scalar_rule(value, f, a, b, 0.01)

    def test_an_interval_does_not_depend_on_its_batch(self):
        # each interval is summed on its own: alone it gives the same bits
        rng = np.random.default_rng(5)
        z = rng.uniform(-3.0, 3.0, 40)
        y = z + rng.uniform(1e-3, 2.0, 40)

        def fn(t):
            return [np.cos(3.0 * t) * np.exp(t), np.abs(np.sin(7.0 * t))]

        got = interval_integrals(fn, z, y, 0.01)
        for i in range(z.size):
            assert np.array_equal(interval_integrals(fn, z[i : i + 1], y[i : i + 1], 0.01)[:, 0], got[:, i])

    def test_no_per_interval_sum(self, monkeypatch):
        # one reduction for the whole batch, no np.sum call per interval
        calls = []
        real_sum = np.sum

        def counted_sum(*args, **kwargs):
            calls.append(args)
            return real_sum(*args, **kwargs)

        monkeypatch.setattr(np, "sum", counted_sum)
        interval_integrals(lambda t: [np.cos(t)], np.arange(50.0), np.arange(50.0) + 0.5, 0.01)
        assert calls == []

    def test_no_intervals_give_empty_rows(self):
        got = interval_integrals(lambda t: [np.cos(t), np.sin(t)], [], [], 0.01)
        assert got.shape == (2, 0)

    def test_interval_table_makes_one_evaluator_call(self):
        u = sine_function()
        family = build_family_1d(u, default_k_min(u))
        evaluate, calls = u.evaluate, []

        def counted(x, orders):
            calls.append(tuple(orders))
            return evaluate(x, orders)

        u.evaluate = counted
        table = list(interval_table(u, family))
        assert len(table) == len(family.intervals) and calls == [(2, 0)]

    @pytest.mark.parametrize("y_bad", [0.05, 0.1], ids=["reversed", "empty"])
    def test_degenerate_interval_in_a_batch_raises(self, y_bad):
        with pytest.raises(EmptyRegionError):
            interval_integrals(np.cos, [0.0, 0.1, 0.3], [0.05, y_bad, 0.4], 0.01)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_runs_per_row_levels_equal_per_level_calls(seed):
    # a random sign*u' line: a rough walk crossing many dyadic bands both ways
    rng = np.random.default_rng(seed)
    d1 = np.cumsum(rng.normal(size=600)) * 0.05 + 0.1 * np.sin(np.linspace(0.0, 20.0, 600))
    d1[0], d1[-1] = 0.3, -0.3  # one window exit per sign
    for sign in (1, -1):
        g = sign * d1
        levels = np.arange(-6, level_index(float(np.max(np.abs(d1)))) + 1)
        seeds = np.array([(g >= level_floor(k)) & (g < level_floor(k + 1)) for k in levels.tolist()])
        batched = seeded_runs(levels_of(g)[None], seeds, levels[:, None])
        single = [seeded_runs(levels_of(g)[None], seeds[row][None], k) for row, k in enumerate(levels.tolist())]
        assert batched.first.size and batched.exit_index.size
        for field in ("first", "last", "exit_index"):
            want = np.concatenate([getattr(r, field) for r in single])
            assert np.array_equal(getattr(batched, field), want), field
        for field, sizes in (("line", "first"), ("exit_line", "exit_index")):
            want = np.concatenate([np.full(getattr(r, sizes).size, row) for row, r in enumerate(single)])
            assert np.array_equal(getattr(batched, field), want), field


@st.composite
def run_inputs(draw):
    # lines of sign*u' crossing dyadic bands, with one g row for all lines
    # or one each, one level for all lines or one each, and lines whose
    # first or last entry lies in the band, so that runs reach either end
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 60))
    k = rng.integers(-3, 4, (rows, 1)) if draw(st.booleans()) else int(rng.integers(-3, 4))
    g_rows = 1 if draw(st.booleans()) else rows
    g = rng.choice([1.0, -1.0], (g_rows, width)) * 2.0 ** rng.uniform(-6.0, 6.0, (g_rows, width))
    for end in (0, -1):
        if draw(st.booleans()):
            g[:, end] = 2.0 ** (np.min(k) - 0.5)
    lo, hi = float_band(k, 0, 0)
    seeds = (g >= lo) & (g < hi) & (rng.random((rows, width)) < draw(st.sampled_from([0.3, 1.0])))
    return g, seeds, k


@settings(max_examples=300)
@given(run_inputs())
def test_seeded_runs_match_the_nonzero_oracle(inputs):
    g, seeds, k = inputs
    got, want = seeded_runs(levels_of(g), seeds, k), nonzero_seeded_runs(g, seeds, k)
    for field in got._fields:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


@st.composite
def localized_functions(draw):
    family = draw(st.sampled_from(["gaussian", "smooth-bump"]))
    center = draw(st.floats(-2.0, 2.0))
    width = draw(st.floats(0.3, 3.0))
    amplitude = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    # bumps need their support strictly inside the window; gaussians are
    # cut where some low-level bands reach the window edge
    reach = st.floats(1.05, 2.0) if family == "smooth-bump" else st.floats(2.5, 6.0)
    window = (center - draw(reach) * width, center + draw(reach) * width)
    spec = TestFunctionSpec(family, center, width, amplitude, 0.0, window, name="random")
    return make_test_function(spec, draw(st.integers(64, 2048)))


@settings(max_examples=30)
@given(localized_functions())
def test_random_families_match_oracle_and_cover(u):
    fam = build_allowing_exits(u)
    assert_matches_scalar_family(u, fam)
    assert fam.cells.max_overlap <= 3
    uncovered, _ = coverage_report(fam)
    assert uncovered.size == 0


@settings(max_examples=30)
@given(localized_functions())
def test_random_families_bound_the_operator(u):
    # int_0^t (T f)* <= K int_0^t f* for |u''| and |u|, and the bounds it
    # implies: ||T f||_X <= K ||f||_X, and rho(T|u|/K) <= rho(|u|)
    cells = build_allowing_exits(u).cells
    f0, f2 = (CellField(u.center_values(m), u.grid.h) for m in (0, 2))
    t0, t2 = apply_sparse_operator(cells, f0), apply_sparse_operator(cells, f2)
    for f, tf in ((f2, t2), (f0, t0)):
        ratio, ok = operator_norm_check(cells, f, tf)
        assert ok, f"majorization ratio {ratio!r}"
    assert modular_contraction_check(cells, f0, t0)[1]
    for text in ("L:1", "L:inf", "Lor:3/2,2", "Orl:pow:2"):
        space = SpaceDescriptor.parse(text)
        for f, tf in ((f2, t2), (f0, t0)):
            lhs, rhs, ok = space_bound(space, cells, f, tf)
            assert ok, f"{text}: {lhs!r} > {rhs!r}"
    for young in BOUND_YOUNGS:
        lhs, rhs, ok = modular_bound(young, cells, f0, t0)
        assert ok, f"{young.describe()}: {lhs!r} > {rhs!r}"
