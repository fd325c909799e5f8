"""Admissible slab thickness, 2D family construction, and its verification."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gnsparse import sparse2d
from gnsparse.errors import ConstructionError, CorpusConfigError
from gnsparse.grid import Grid1D, Grid2D, GridFunction2D
from gnsparse.operator import CellFamily
from gnsparse.rearrangement import CellField
from gnsparse.sparse1d import band_edges, level_band, level_floor
from gnsparse.sparse2d import (
    DeltaResult,
    _field_lattices,
    _shift_variation,
    build_family_2d,
    compute_delta,
    oscillation_bound,
    verify_family_2d,
)
from gnsparse.testfunctions import TestFunctionSpec, grid_for_spec, make_test_function

from corpus import member, members


def verify(u, fam):
    """verify_family_2d on the fields |u| and |d1^2 u| a case reads."""
    return verify_family_2d(fam, *(CellField(u.center_values(order), u.grid.cell_area) for order in (0, 2)))


def square_grid(n=16, a=0.0, b=1.0):
    return Grid2D(Grid1D(a, b, n), Grid1D(a, b, n))


def ramp_function(slope=1.0, n=16):
    # u = slope * x: constant d1, zero d2; every offset of m steps moves
    # u by at most slope * m * h
    def ev(X, Y, partials):
        X, _ = np.broadcast_arrays(np.asarray(X, dtype=float), Y)
        fields = {(0, 0): lambda: slope * X, (1, 0): lambda: np.full_like(X, slope)}
        return [fields.get(p, lambda: np.zeros_like(X))() for p in partials]

    return GridFunction2D(square_grid(n), ev, axis=1)


def constant_function(c=0.7, n=16):
    def ev(X, Y, partials):
        X, _ = np.broadcast_arrays(np.asarray(X, dtype=float), Y)
        return [np.full_like(X, c) if p == (0, 0) else np.zeros_like(X) for p in partials]

    return GridFunction2D(square_grid(n), ev, axis=1)


class TestComputeDelta:
    def test_ramp_floor_of_bound_over_slope(self):
        u = ramp_function(slope=1.0, n=16)  # h = 1/16
        (res,) = compute_delta(u, [0.30])
        assert res.steps == 4  # floor(0.30 * 16)
        assert res.delta == pytest.approx(4.0 / 16.0)
        assert res.admissible

    def test_monotone_in_bound(self):
        u = ramp_function(slope=1.0, n=16)
        steps = [res.steps for res in compute_delta(u, [0.5, 0.3, 0.125, 0.07])]
        assert steps == sorted(steps, reverse=True)
        assert steps[0] >= steps[-1] >= 1

    def test_no_admissible_multiple(self):
        u = ramp_function(slope=1.0, n=16)
        (res,) = compute_delta(u, [0.01])  # one step already moves 1/16
        assert res.steps == 0
        assert res.delta == 0.0
        assert not res.admissible
        assert res.variation_at_one == pytest.approx(1.0 / 16.0)

    def test_constant_unconstrained_by_window(self):
        u = constant_function()
        (res,) = compute_delta(u, [1e-6])
        assert res.delta == pytest.approx(math.sqrt(2.0))
        assert res.steps == 16

    def test_gaussian_reference_case(self):
        # the top level of this function admits a thickness at 128 cells
        spec = TestFunctionSpec(
            family="gaussian", center=(0.0, 0.0), width=(2.2, 2.2),
            amplitude=0.65, window=((-3.3, 3.3), (-3.3, 3.3)),
        )
        u = make_test_function(spec, grid_for_spec(spec, 128))
        k_top = 0 if u.sup_norm((1,))[0] >= 0.5 else -1
        bound = oscillation_bound(k_top, max(u.sup_norm((0, 1, 2))))
        (res,) = compute_delta(u, [bound])
        assert res.admissible
        assert res.delta == pytest.approx(res.steps * u.grid.gx.h)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            compute_delta(ramp_function(), [0.0])


def scalar_compute_delta(u, bound):
    """Reference thickness scan for one bound: rings of offsets out from
    m = 1 until the cumulative worst oscillation exceeds the bound."""
    fields = _field_lattices(u)
    var_one = max(_shift_variation(f, a, b) for f in fields for a, b in ((1, 0), (0, 1)))
    global_range = max(float(np.max(f) - np.min(f)) for f in fields)
    m_cap = min(u.grid.gx.n, u.grid.gy.n)
    if global_range <= bound:
        diameter = math.hypot(u.grid.gx.b - u.grid.gx.a, u.grid.gy.b - u.grid.gy.a)
        return DeltaResult(steps=m_cap, delta=diameter, bound=bound, variation_at_one=var_one)
    if var_one > bound:
        return DeltaResult(steps=0, delta=0.0, bound=bound, variation_at_one=var_one)
    worst, m = var_one, 1
    while m + 1 <= m_cap:
        nxt = m + 1
        ring = [
            (a, b)
            for a in range(0, nxt + 1)
            for b in range(-nxt, nxt + 1)
            if (a > 0 or b > 0) and m * m < a * a + b * b <= nxt * nxt
        ]
        worst = max([worst] + [_shift_variation(f, a, b) for f in fields for a, b in ring])
        if worst > bound:
            break
        m = nxt
    return DeltaResult(steps=m, delta=m * u.grid.gx.h, bound=bound, variation_at_one=var_one)


RING_SCAN_CASES = [(spec, axis, n) for spec in members(2) for axis in (1, 2) for n in (128, 256)]
RING_SCAN_CASES.append((member("p1"), 1, 512))  # levels -1 and 0, with skipped shifts on both


@pytest.mark.parametrize(
    "spec, axis, n", RING_SCAN_CASES, ids=lambda v: v.name if isinstance(v, TestFunctionSpec) else str(v)
)
def test_one_ring_scan_equals_per_bound_scans(spec, axis, n, monkeypatch):
    u = make_test_function(spec, grid_for_spec(spec, n), axis=axis)
    fam = build_family_2d(u)
    assert fam.deltas
    for k, res in fam.deltas.items():
        assert res == scalar_compute_delta(u, res.bound), f"level {k}"
    # the same scan over bounds in any order, with repeats and a window-wide one
    bounds = [res.bound for res in fam.deltas.values()]
    bounds = bounds[::-1] + bounds[:1] + [1e9]
    assert compute_delta(u, bounds) == [scalar_compute_delta(u, b) for b in bounds]
    # the family built on the plain scans has the same skipped levels and slabs
    monkeypatch.setattr(sparse2d, "compute_delta", lambda u, bounds: [scalar_compute_delta(u, b) for b in bounds])
    ref = build_family_2d(u)
    assert fam.skipped == ref.skipped
    assert len(fam.slabs) == len(ref.slabs)
    for s, r in zip(fam.slabs, ref.slabs):
        assert (s.k, s.sign, s.delta, s.delta_steps, s.seed_cells, s.pieces) == (
            r.k, r.sign, r.delta, r.delta_steps, r.seed_cells, r.pieces
        )
        assert np.array_equal(s.mask, r.mask)


class TestBuild2D:
    def test_zero_function_empty_family(self):
        spec = TestFunctionSpec(
            family="smooth-bump", center=(0.0, 0.0), width=(1.0, 1.0),
            amplitude=0.0, window=((-1.5, 1.5), (-1.5, 1.5)),
        )
        u = make_test_function(spec, grid_for_spec(spec, 32))
        fam = build_family_2d(u)
        assert len(fam) == 0
        rep = verify(u, fam)
        assert fam.cells.max_overlap == 0 and rep.max_ratio == 0.0 and rep.covered_cells == 0

    def test_noncompact_support_rejected(self):
        spec = TestFunctionSpec(
            family="gaussian", center=(0.0, 0.0), width=(2.2, 2.2),
            amplitude=0.65, window=((-3.3, 3.3), (-3.3, 3.3)),
        )
        u = make_test_function(spec, grid_for_spec(spec, 64))
        with pytest.raises(CorpusConfigError):
            build_family_2d(u)

    def test_support_is_checked_on_the_boundary_nodes(self):
        # u is 1 on the window's boundary and 0 everywhere else, so every
        # center field it gives is 0
        def ev(X, Y, partials):
            X, Y = np.broadcast_arrays(np.asarray(X, dtype=float), Y)
            edge = (X == 0.0) | (X == 1.0) | (Y == 0.0) | (Y == 1.0)
            return [np.where(edge, 1.0, 0.0) if p == (0, 0) else np.zeros_like(X) for p in partials]

        u = GridFunction2D(square_grid(16), ev, axis=1, label="rim")
        assert not np.any(u.center_values(0))
        with pytest.raises(CorpusConfigError, match=r"'rim' is not compactly supported"):
            build_family_2d(u)

    @pytest.mark.parametrize("name", ("p1", "r1"))
    def test_only_the_boundary_is_evaluated_on_nodes(self, name):
        spec = member(name)
        n = 128
        u = make_test_function(spec, grid_for_spec(spec, n))
        evaluate, node_calls = u.evaluate, []

        @functools.wraps(evaluate)
        def recorded(X, Y, partials):
            if n + 1 in (np.shape(X)[0], np.shape(Y)[1]):
                node_calls.append((np.shape(X), np.shape(Y), tuple(partials)))
            return evaluate(X, Y, partials)

        u.evaluate = recorded
        build_family_2d(u)
        assert node_calls == [((n + 1, 1), (1, 2), ((0, 0),)), ((2, 1), (1, n + 1), ((0, 0),))]

    def test_window_exits_past_the_budget_name_the_function(self):
        # u = A sin(pi (x + 1) / 2) cos^2(pi y / 2) vanishes on the edge of
        # [-1, 1]^2, but d1 u does not: the top level's runs reach the ends
        # of their lines
        def ev(X, Y, partials):
            assert all(jy == 0 for _, jy in partials)
            t = 0.5 * np.pi * (np.asarray(X, dtype=float) + 1.0)
            waves = (np.sin(t), np.cos(t), -np.sin(t))
            envelope = np.cos(0.5 * np.pi * np.asarray(Y, dtype=float)) ** 2
            return [0.35 * (0.5 * np.pi) ** jx * waves[jx] * envelope for jx, _ in partials]

        u = GridFunction2D(square_grid(64, -1.0, 1.0), ev, axis=1, label="edge-sine")
        with pytest.raises(CorpusConfigError, match=r"eligible cells exit the window .*'edge-sine'"):
            build_family_2d(u)

    def test_top_level_structure(self):
        spec = member("p1")
        u = make_test_function(spec, grid_for_spec(spec, 128))
        fam = build_family_2d(u)
        assert fam.analyzed_levels() == [0]
        assert fam.exit_cells == []
        signs = sorted(s.sign for s in fam.slabs if s.k == 0)
        assert signs == [-1, 1]
        for s in fam.slabs:
            assert s.delta_steps >= 1
            assert s.pieces >= 1
            assert s.seed_cells >= 1
            assert s.mask.any()

    def test_coarse_grid_skips_with_diagnostic(self):
        spec = member("p1")
        u = make_test_function(spec, grid_for_spec(spec, 32))
        fam = build_family_2d(u)
        assert fam.analyzed_levels() == []
        assert any(sk.k == fam.k_top for sk in fam.skipped)
        top = next(sk for sk in fam.skipped if sk.k == fam.k_top)
        assert top.seed_cells > 0
        assert top.variation_at_one > top.bound
        assert top.suggested_cells > 32
        assert "resolve" in top.diagnostic()

    def test_symmetric_member_along_second_axis(self):
        spec = member("p1")  # square window, equal widths
        u = make_test_function(spec, grid_for_spec(spec, 128), axis=2)
        fam = build_family_2d(u)
        verify(u, fam)  # raises on any structural violation
        assert fam.analyzed_levels() == [0]
        assert fam.cells.max_overlap >= 1


@pytest.mark.parametrize("spec", members(2), ids=lambda s: s.name)
def test_corpus_verification(spec):
    u = make_test_function(spec, grid_for_spec(spec, 128))
    fam = build_family_2d(u)
    rep = verify(u, fam)  # raises on any structural violation
    assert fam.analyzed_levels() == [0]
    assert 1 <= fam.cells.max_overlap <= 5
    assert 0.0 < rep.max_ratio < 10.0
    plus = sum(s.mask.astype(int) for s in fam.slabs if s.sign > 0)
    minus = sum(s.mask.astype(int) for s in fam.slabs if s.sign < 0)
    assert not np.any((plus > 0) & (minus > 0))
    assert np.array_equal(fam.cells.counts.reshape(plus.shape), plus + minus)
    assert fam.cells.max_overlap == int(fam.cells.counts.max())



class TestVerify2DFailures:
    """Each structural check of verify_family_2d fires on a family edited to break it."""

    @pytest.fixture(scope="class")
    def p1(self):
        spec = member("p1")
        u = make_test_function(spec, grid_for_spec(spec, 128))
        return u, build_family_2d(u)

    @staticmethod
    def edited(u, fam, slabs, **changes):
        """fam with these slabs, and its cells rebuilt from their masks."""
        cells = CellFamily.from_masks([s.mask for s in slabs], u.grid)
        return dataclasses.replace(fam, slabs=slabs, cells=cells, **changes)

    def test_slab_copied_under_the_other_sign_leaves_its_band(self, p1):
        # a cell held by slabs of both signs fails the band check, which is
        # what makes the two sign unions disjoint
        u, fam = p1
        first = fam.slabs[0]
        assert (first.k, first.sign) == (0, 1)
        flipped = dataclasses.replace(first, sign=-first.sign)
        with pytest.raises(ConstructionError, match=r"slab \(k=0, sign=-1\) leaves its widened band"):
            verify(u, self.edited(u, fam, [*fam.slabs, flipped]))

    def test_seed_cell_missing_from_its_slab_is_named_unless_it_exited(self, p1):
        u, fam = p1
        slab = fam.slabs[0]
        lo, hi = level_band(slab.k)
        g = slab.sign * fam.d1c
        i, j = (int(x) for x in np.argwhere((g >= lo) & (g < hi) & slab.mask)[0])
        mask = slab.mask.copy()
        mask[i, j] = False
        slabs = [dataclasses.replace(slab, mask=mask), *fam.slabs[1:]]
        with pytest.raises(
            ConstructionError,
            match=rf"^1 seed cells of level {slab.k} sign {slab.sign} are not in their own slab, first at \({i}, {j}\)$",
        ):
            verify(u, self.edited(u, fam, slabs))
        exited = self.edited(u, fam, slabs, exit_cells=[(i, j, slab.k, slab.sign)])
        assert verify(u, exited).covered_cells == verify(u, fam).covered_cells - 1

    def test_zero_second_derivative_average(self, p1):
        u, fam = p1
        f0 = CellField(u.center_values(0), u.grid.cell_area)
        f2 = CellField(np.zeros(fam.d1c.size), u.grid.cell_area)
        with pytest.raises(ConstructionError, match=r"zero \|d1\^2 u\| average"):
            verify_family_2d(fam, f0, f2)


class TestRefinementStability:
    @pytest.mark.parametrize("spec", [member(name) for name in ("p1", "p2", "p3")], ids=lambda s: s.name)
    def test_ratio_stable_under_refinement(self, spec):
        reports, levels, deltas = {}, {}, {}
        for n in (128, 256):
            u = make_test_function(spec, grid_for_spec(spec, n))
            fam = build_family_2d(u)
            reports[n] = verify(u, fam)
            levels[n] = fam.analyzed_levels()
            deltas[n] = {k: fam.deltas[k].delta for k in levels[n]}
        assert levels[128] == levels[256]
        # the admissible thickness is a physical length: the same at both
        # resolutions even though the step count doubles
        for k in deltas[128]:
            assert deltas[128][k] == pytest.approx(deltas[256][k], rel=1e-12)
        r1, r2 = reports[128].max_ratio, reports[256].max_ratio
        assert abs(r1 - r2) / r2 <= 0.05

    def test_band_inclusion_margin(self):
        # every covered cell center sits in the widened band of its level,
        # checked directly against the sampled partial
        spec = member("r1")  # the radial member
        u = make_test_function(spec, grid_for_spec(spec, 128))
        fam = build_family_2d(u)
        for s in fam.slabs:
            g = s.sign * fam.d1c[s.mask]
            assert np.min(g) >= math.ldexp(1.0, s.k - 3)
            assert np.max(g) < math.ldexp(1.0, s.k + 2)


def loop_slabs_2d(fam):
    """Reference slab masks and piece counts, one line and one seed at a
    time: each seed's in-band run along its line, skipped when it reaches a
    line end, thickened by delta_steps - 1 lines on both sides."""
    lines = fam.d1c if fam.axis == 1 else fam.d1c.T  # [position, line]
    n_pos, n_lines = lines.shape
    out = []
    for k in range(fam.k_top, fam.k_min - 1, -1):
        if k not in fam.deltas or not fam.deltas[k].admissible:
            continue
        m = fam.deltas[k].steps
        lo, hi = band_edges(k)
        for sign in (1, -1):
            g = sign * lines
            mask = np.zeros(lines.shape, dtype=bool)
            pieces = 0
            for j in range(n_lines):
                right = -1
                for i in range(n_pos):
                    if i <= right or not level_floor(k) <= g[i, j] < level_floor(k + 1):
                        continue
                    left = right = i
                    while left > 0 and lo <= g[left - 1, j] < hi:
                        left -= 1
                    while right < n_pos - 1 and lo <= g[right + 1, j] < hi:
                        right += 1
                    if left > 0 and right < n_pos - 1:
                        mask[left : right + 1, max(0, j - m + 1) : j + m] = True
                        pieces += 1
            if pieces:
                out.append((k, sign, mask if fam.axis == 1 else mask.T, pieces))
    return out


# n = 64 analyzes no level of this corpus; n = 128 and 256 analyze the top
# level with delta_steps 1 and 2
@pytest.mark.parametrize("n, axis", [(128, 1), (128, 2), (256, 1)])
@pytest.mark.parametrize("spec", members(2), ids=lambda s: s.name)
def test_slabs_match_loop_reference(spec, n, axis):
    u = make_test_function(spec, grid_for_spec(spec, n), axis=axis)
    fam = build_family_2d(u)
    expected = loop_slabs_2d(fam)
    assert [(s.k, s.sign, s.pieces) for s in fam.slabs] == [(k, sign, p) for k, sign, _, p in expected]
    for s, (_, _, mask, _) in zip(fam.slabs, expected):
        assert np.array_equal(s.mask, mask)
