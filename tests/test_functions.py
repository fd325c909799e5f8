"""Tests for grids, test-function families, quadrature, and mollification."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse import (
    Grid1D,
    Grid2D,
    GridFunction1D,
    GridFunction2D,
    TestFunctionSpec,
    UnresolvableFunctionError,
    interval_integrals,
    make_test_function,
)
from gnsparse.errors import CorpusConfigError, EmptyRegionError
from gnsparse.gn import _abs_field, _fields_of
from gnsparse.testfunctions import (
    _RADIAL_ORDERS,
    COMPACT_FAMILIES,
    FAMILIES,
    MAX_ORDER,
    make_evaluator_1d,
    make_evaluator_2d,
)

from corpus import member, members
from mollifier import BoundaryContaminationWarning, kernel_weights, mollify
from oracles import (
    blocked_sup_norm,
    fd_consistency_error,
    quadrature_integral,
    quadrature_integral_2d,
    radial_profile_sup_norm,
)


def test_grid_invariants():
    g = Grid1D(-1.0, 1.0, 16)
    assert g.h == pytest.approx(0.125)
    assert len(g.nodes()) == 17
    assert len(g.centers()) == 16
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 16)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)


def test_gaussian_closed_form():
    spec = TestFunctionSpec("gaussian", 0.0, 1.0, 1.0, 0.0, (-6.0, 6.0))
    f = make_test_function(spec, 1024)
    x = f.grid.nodes()
    (values,) = f.evaluate(x, (0,))
    assert np.allclose(values, np.exp(-x * x), rtol=0, atol=1e-15)
    assert np.allclose(f.d1, -2.0 * x * np.exp(-x * x), rtol=0, atol=1e-14)


def test_zero_amplitude_bump_is_zero():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 0.0, 0.0, (-1.5, 1.5))
    f = make_test_function(spec, 64)
    assert np.all(f.evaluate(f.grid.nodes(), (0,))[0] == 0.0)
    assert np.all(f.d1 == 0.0)


def test_sine_window_d2_and_fd_quartering():
    spec = TestFunctionSpec(
        "sine-window", 0.0, 1.0, 1.0, 1.0, (-math.pi, math.pi)
    )
    f1 = make_test_function(spec, 1024)
    assert np.allclose(f1.evaluate(f1.grid.nodes(), (2,))[0], -np.sin(f1.grid.nodes()), atol=1e-14)
    f2 = make_test_function(spec, 2048)
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
def test_fd_quartering_whole_corpus(spec):
    f1 = make_test_function(spec, 1024)
    f2 = make_test_function(spec, 2048)
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("spec", members(2), ids=lambda s: s.name)
def test_fd_quartering_2d_corpus(spec):
    f1 = make_test_function(spec, 128)
    f2 = make_test_function(spec, 256)
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


def test_third_derivatives_consistent_with_fd_of_d2():
    # d3 is used by the k=3 interpolation cases; check it against a central
    # difference of the analytic d2 for every family.  Compact bumps are only
    # C^3 globally (d4 jumps at the support edge), so a small collar around
    # the edge is excluded: there the central difference is first-order only.
    for spec in (member(name) for name in ("g1", "b1", "m1", "s1")):
        f = make_test_function(spec, 2048)
        h = f.grid.h
        x = f.grid.nodes()[1:-1]
        d3 = f.evaluate(x, (3,))[0]
        (d2,) = f.evaluate(f.grid.nodes(), (2,))
        fd = (d2[2:] - d2[:-2]) / (2.0 * h)
        err = np.abs(d3 - fd)
        if spec.family in ("smooth-bump", "modulated-bump"):
            c, w = spec.centers()[0], spec.widths()[0]
            err = err[np.abs(np.abs(x - c) - w) > 4.0 * h]
        scale = max(1.0, float(np.max(np.abs(d3))))
        assert np.max(err) / scale < 5e-4


def test_radial_2d_partials_match_fd():
    spec = member("r1")
    assert spec.layout == "radial"
    f = make_test_function(spec, 256)
    x, y = f.grid.gx.centers(), f.grid.gy.centers()
    h = f.grid.gx.h
    # mixed partial (1,1) against a cross difference of the center values
    (mixed,) = f.evaluate(x[1:-1, None], y[None, 1:-1], [(1, 1)])
    u = f.center_values(0)
    cross = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * h * h)
    assert np.max(np.abs(mixed - cross)) < 5e-3


def test_lattice_is_evaluated_in_open_row_blocks():
    g = Grid2D(Grid1D(-1.0, 1.0, 150), Grid1D(0.0, 3.0, 16))
    blocks = []

    def evaluate(X, Y, partials):
        blocks.append((X, Y, tuple(partials)))
        return [np.zeros(np.broadcast_shapes(X.shape, Y.shape)) for _ in partials]

    u = GridFunction2D(g, evaluate, axis=2)
    assert blocks == []  # the center fields are sampled on first read
    u.center_values(1)
    rows = GridFunction2D.BLOCK_ROWS
    assert [X.shape for X, _, _ in blocks] == [(rows, 1), (rows, 1), (150 - 2 * rows, 1)]
    assert np.array_equal(np.concatenate([X[:, 0] for X, _, _ in blocks]), g.gx.centers())
    for _, Y, partials in blocks:
        assert Y.shape == (1, 16) and np.array_equal(Y[0], g.gy.centers())
        assert partials == ((0, 1),)
    blocks.clear()
    u.keep_centers((0, 1, 2))  # one pass for the orders not kept yet
    assert len(blocks) == 3 and all(p == ((0, 0), (0, 2)) for _, _, p in blocks)


@pytest.mark.parametrize("order", (0, 1, 2))
def test_non_finite_1d_sample_names_its_field(order):
    def evaluate(x, orders):
        out = [np.ones(np.shape(x)) for _ in orders]
        out[list(orders).index(order)][-1] = np.nan
        return out

    u = GridFunction1D(Grid1D(0.0, 1.0, 16), evaluate, label="bad")
    if order == 1:  # u' is the one node array
        with pytest.raises(ValueError, match="non-finite d1 in sampled function 'bad'"):
            u.d1
    with pytest.raises(ValueError, match=f"non-finite derivative {order} at centers in sampled function 'bad'"):
        u.center_values(order)


@pytest.mark.parametrize("order", (0, 1, 2))
def test_non_finite_2d_sample_names_its_field(order):
    # the center fields are the pure partials along axis 2
    def evaluate(X, Y, partials):
        out = [np.ones(np.broadcast_shapes(X.shape, Y.shape)) for _ in partials]
        out[list(partials).index((0, order))][0, -1] = np.inf
        return out

    g = Grid2D(Grid1D(0.0, 1.0, 16), Grid1D(0.0, 1.0, 16))
    u = GridFunction2D(g, evaluate, axis=2, label="bad")
    with pytest.raises(ValueError, match=rf"non-finite partial \(0, {order}\) at centers in sampled function 'bad'"):
        u.center_values(order)


def test_non_broadcasting_evaluator_rejected():
    g = Grid2D(Grid1D(0.0, 1.0, 16), Grid1D(0.0, 1.0, 16))
    u = GridFunction2D(g, lambda X, Y, partials: [np.zeros_like(X) for _ in partials], label="x-only")
    with pytest.raises(ValueError, match="broadcast"):
        u.center_values(0)


def _dense_lattice(x, y):
    return np.meshgrid(x, y, indexing="ij")


def _dense_partials(u, order, mode):
    """The partials _abs_field sums, for the pure partial of ``order``."""
    own = (order, 0) if u.axis == 1 else (0, order)
    if order == 0 or mode == "pure":
        return [own]
    if mode == "pure-sum":
        return [(order, 0), (0, order)]
    return [(jx, order - jx) for jx in range(order + 1)]


@pytest.mark.parametrize("axis", (1, 2))
@pytest.mark.parametrize("spec", members(2), ids=lambda s: s.name)
def test_open_grid_matches_dense_evaluation(spec, axis):
    for n in (128, 256):
        u = make_test_function(spec, n, axis=axis)
        g = u.grid
        pure = [(j, 0) if axis == 1 else (0, j) for j in (0, 1, 2)]
        centers = _dense_lattice(g.gx.centers(), g.gy.centers())
        probe = _dense_lattice(
            np.linspace(g.gx.a, g.gx.b, u.SUP_PROBE + 1), np.linspace(g.gy.a, g.gy.b, u.SUP_PROBE + 1)
        )
        scanned = [float(np.max(np.abs(f))) for f in u.evaluate(*probe, pure)]
        if spec.layout == "radial":
            # the exact angular sups of the profile; the lattice misses the
            # sup by at most the probe's resolution
            sups = radial_profile_sup_norm(spec, (0, 1, 2))
            assert all(lattice <= sup * (1.0 + 1e-6) for lattice, sup in zip(scanned, sups))
        else:
            sups = scanned
        assert u.sup_norm((0, 1, 2)) == tuple(sups)
        for order in (0, 1, 2):
            assert np.array_equal(u.center_values(order), u.evaluate(*centers, [pure[order]])[0])
            assert np.array_equal(u.center_field(order), u.center_values(order))
            assert u.sup_norm((order,)) == (sups[order],)
            for mode in ("pure", "pure-sum", "gradient"):
                want = sum(np.abs(f) for f in u.evaluate(*centers, _dense_partials(u, order, mode)))
                for read in (u.center_values, u.center_field):
                    field = _abs_field(u, order, mode, _fields_of(u, read))
                    assert np.array_equal(field.values, want.ravel()), (order, mode)


GAUSSIAN_RADIAL = TestFunctionSpec(
    "gaussian", (0.2, -0.1), (0.5, 0.5), 0.8, 0.0, ((-3.0, 3.0), (-3.0, 3.0)), layout="radial", name="gr"
)


def test_sup_norm_makes_one_pass_over_the_probe():
    # a gaussian radial spec is cut off by its window, so its sups are scanned
    spec = GAUSSIAN_RADIAL
    u = make_test_function(spec, 128)
    assert not hasattr(u.evaluate, "profile")
    evaluate, calls = u.evaluate, []

    @functools.wraps(evaluate)
    def counted(X, Y, partials):
        calls.append(tuple(partials))
        return evaluate(X, Y, partials)

    u.evaluate = counted
    sups = u.sup_norm((0, 1, 2))
    assert len(calls) == math.ceil((u.SUP_PROBE + 1) / u.BLOCK_ROWS) == 9
    assert set(calls) == {((0, 0), (1, 0), (2, 0))}
    assert sups == tuple(u.sup_norm((j,))[0] for j in (0, 1, 2))
    assert sups == blocked_sup_norm(u, (0, 1, 2))


@pytest.mark.parametrize("axis", (1, 2))
def test_radial_probe_makes_no_lattice_call(axis):
    # r1's sups come from its profile, also through a functools.wraps
    # wrapper, which carries the profile along; order 3 is still scanned
    spec = member("r1")
    u = make_test_function(spec, 128, axis=axis)
    want = radial_profile_sup_norm(spec, (0, 1, 2))
    evaluate, calls = u.evaluate, []

    @functools.wraps(evaluate)
    def wrapped(*args):
        calls.append(args[2])
        return evaluate(*args)

    u.evaluate = wrapped
    assert u.sup_norm((0, 1, 2)) == want
    assert u.sup_norm((2, 0)) == (want[2], want[0])
    assert calls == []
    assert u.sup_norm((3,)) == blocked_sup_norm(u, (3,))
    assert calls and all(partials == [u._axis_partial(3)] for partials in calls)


@st.composite
def compact_radial_specs(draw):
    """A compact radial spec whose support disc lies inside its window."""
    w = draw(st.floats(0.3, 2.0))
    c = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    margins = [draw(st.floats(0.01, 1.0)) for _ in range(4)]
    window = tuple((ci - w - lo, ci + w + hi) for ci, lo, hi in zip(c, margins[::2], margins[1::2]))
    family = draw(st.sampled_from(COMPACT_FAMILIES))
    amplitude = draw(st.floats(-3.0, 3.0))
    return TestFunctionSpec(family, c, (w, w), amplitude, 2.0, window, layout="radial")


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(compact_radial_specs(), st.sampled_from([1, 2]))
def test_radial_profile_sups_bound_the_lattice_scan(spec, axis):
    u = make_test_function(spec, 64, axis=axis)
    want = radial_profile_sup_norm(spec, (0, 1, 2))
    assert u.sup_norm((0, 1, 2)) == want
    scanned = blocked_sup_norm(u, (0, 1, 2))
    assert all(lattice <= sup * (1.0 + 1e-6) for lattice, sup in zip(scanned, want))


@pytest.mark.parametrize("axis", (1, 2))
@pytest.mark.parametrize("spec", [s for s in members(2) if s.layout == "product"], ids=lambda s: s.name)
def test_product_sup_norm_equals_the_blocked_scan(spec, axis):
    u = make_test_function(spec, 128, axis=axis)
    want = blocked_sup_norm(u, (0, 1, 2))
    assert u.sup_norm((0, 1, 2)) == want
    # a functools.wraps wrapper carries the factors along: the probe takes
    # the same per-axis path and never calls the wrapper
    evaluate, calls = u.evaluate, []

    @functools.wraps(evaluate)
    def wrapped(*args):
        calls.append(args)
        return evaluate(*args)

    u.evaluate = wrapped
    assert u.sup_norm((0, 1, 2)) == want
    assert u.sup_norm((2, 0)) == (want[2], want[0])
    assert calls == []


def test_1d_node_arrays_sample_once_each():
    spec = member("m1")
    evaluate, calls = make_evaluator_1d(spec), []

    def counted(x, orders):
        calls.append(tuple(orders))
        return evaluate(x, orders)

    ref = make_test_function(spec, 256)
    u = GridFunction1D(ref.grid, counted)
    assert calls == []
    u.d1  # the first read of the node array samples u' alone
    assert calls == [(1,)]
    # it is what a joint evaluation of three orders gives, and it is kept
    joint = evaluate(ref.grid.nodes(), (0, 1, 2))
    assert np.array_equal(u.d1, joint[1])
    assert u.d1 is u.d1
    assert calls == [(1,)]
    assert u.sup_norm((2, 0)) == (ref.sup_norm((2,))[0], ref.sup_norm((0,))[0])
    assert len(calls) == 2


@pytest.mark.parametrize("spec", [member("g1"), member("p1")], ids=lambda s: s.name)
def test_sample_carries_its_cell_measure(spec):
    u = make_test_function(spec, 64)
    assert u.cell_measure == (u.grid.h if spec.dim == 1 else u.grid.gx.h * u.grid.gy.h)


@pytest.mark.parametrize("spec", [member("g1"), member("p1")], ids=lambda s: s.name)
def test_center_values_are_stored_read_only(spec):
    u = make_test_function(spec, 64)
    for order in (0, 1, 2):
        first = u.center_values(order)
        assert u.center_values(order) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_1d_order_out_of_range_raises(family):
    spec = next(s for s in members(1) if s.family == family)
    evaluate = make_evaluator_1d(spec)
    x = np.linspace(*spec.window, 9)
    assert np.all(np.isfinite(evaluate(x, (3,))[0]))
    for bad in (4, -1):
        with pytest.raises(ValueError, match=f"order {bad} not available"):
            evaluate(x, (0, bad))
    with pytest.raises(TypeError):
        evaluate(x, 1)


@pytest.mark.parametrize(
    "layout, orders", [("product", (4, 0)), ("radial", (2, 1)), ("radial", (4, 0))]
)
def test_2d_order_out_of_range_raises(layout, orders):
    spec = next(s for s in members(2) if s.layout == layout)
    evaluate = make_evaluator_2d(spec)
    g = make_test_function(spec, 16).grid
    X, Y = g.gx.centers()[:, None], g.gy.centers()[None, :]
    with pytest.raises(ValueError, match="not available"):
        evaluate(X, Y, [(0, 0), orders])
    with pytest.raises(TypeError):
        evaluate(X, Y, (0, 0))


@st.composite
def evaluator_calls(draw):
    """A random 1D, 2D product or 2D radial evaluator, points that cover its
    support (and the radial center), and a random list of orders."""
    layout = draw(st.sampled_from(["1d", "product", "radial"]))
    families = ("gaussian",) + COMPACT_FAMILIES if layout == "radial" else FAMILIES
    family = draw(st.sampled_from(families))
    amplitude = draw(st.floats(-3.0, 3.0))
    frequency = draw(st.floats(0.5, 6.0))
    c = [draw(st.floats(-2.0, 2.0)) for _ in range(2)]
    w = [draw(st.floats(0.3, 3.0)) for _ in range(2)]
    if layout == "radial":
        w[1] = w[0]

    def points(axis, size):
        return np.append(np.linspace(c[axis] - 1.5 * w[axis], c[axis] + 1.5 * w[axis], size), c[axis])

    if layout == "1d":
        spec = TestFunctionSpec(family, c[0], w[0], amplitude, frequency, (c[0] - 2.0 * w[0], c[0] + 2.0 * w[0]))
        orders = draw(st.lists(st.integers(0, MAX_ORDER), min_size=1, max_size=6))
        return make_evaluator_1d(spec), (points(0, 41),), orders
    spec = TestFunctionSpec(
        family, tuple(c), tuple(w), amplitude, frequency, ((-8.0, 8.0), (-8.0, 8.0)), layout=layout
    )
    allowed = sorted(_RADIAL_ORDERS) if layout == "radial" else [
        (jx, jy) for jx in range(MAX_ORDER + 1) for jy in range(MAX_ORDER + 1)
    ]
    partials = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=6))
    return make_evaluator_2d(spec), (points(0, 15)[:, None], points(1, 17)[None, :]), partials


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(evaluator_calls())
def test_multi_order_call_equals_single_order_calls(call):
    evaluate, points, orders = call
    got = evaluate(*points, orders)
    assert len(got) == len(orders)
    for order, arr in zip(orders, got):
        assert np.array_equal(arr, evaluate(*points, [order])[0]), order


def test_unresolvable_width_rejected():
    spec = TestFunctionSpec("gaussian", 0.0, 0.01, 1.0, 0.0, (-6.0, 6.0))
    with pytest.raises(UnresolvableFunctionError):
        make_test_function(spec, 64)


def test_bump_support_must_fit_window():
    spec = TestFunctionSpec("smooth-bump", 0.0, 2.0, 1.0, 0.0, (-1.5, 1.5))
    with pytest.raises(CorpusConfigError):
        make_test_function(spec, 64)


def test_quadrature_indicator_mass():
    # trapezoid of the constant 1 restricted to the node range of [0, 1]
    grid = Grid1D(-2.0, 2.0, 1024)
    ones = np.ones(grid.n + 1)
    i0 = int(round((0.0 - grid.a) / grid.h))
    i1 = int(round((1.0 - grid.a) / grid.h))
    assert quadrature_integral((ones, grid), (i0, i1)) == pytest.approx(1.0, abs=1e-9)


def test_quadrature_sin_halfperiod():
    grid = Grid1D(0.0, math.pi, 4096)
    vals = np.sin(grid.nodes())
    assert quadrature_integral((vals, grid)) == pytest.approx(2.0, abs=1e-6)


def test_quadrature_zero_and_empty():
    grid = Grid1D(0.0, 1.0, 64)
    assert quadrature_integral((np.zeros(65), grid)) == 0.0
    with pytest.raises(EmptyRegionError):
        quadrature_integral((np.zeros(65), grid), (3, 3))


def test_quadrature_linearity():
    grid = Grid1D(-1.0, 3.0, 512)
    x = grid.nodes()
    f, g = np.sin(x), np.exp(-x * x)
    a, b = 2.5, -1.25
    lhs = quadrature_integral((a * f + b * g, grid))
    rhs = a * quadrature_integral((f, grid)) + b * quadrature_integral((g, grid))
    bound = 1e-12 * (abs(a) * np.max(np.abs(f)) + abs(b) * np.max(np.abs(g))) * (grid.b - grid.a)
    assert abs(lhs - rhs) <= max(bound, 1e-13)


def test_quadrature_2d_product():
    g = Grid2D(Grid1D(0.0, math.pi, 256), Grid1D(0.0, 1.0, 256))
    X, Y = g.gx.nodes()[:, None], g.gy.nodes()[None, :]
    vals = np.sin(X) * (3.0 * Y * Y)
    assert quadrature_integral_2d(vals, g) == pytest.approx(2.0, abs=1e-4)


def test_interval_integral_matches_closed_form():
    vals = interval_integrals(lambda t: [np.sin(t), np.cos(t)], [0.0, 0.0], [math.pi, 0.5 * math.pi], h_ref=0.01)
    assert vals[0] == pytest.approx([2.0, 1.0], abs=1e-6)
    assert vals[1] == pytest.approx([0.0, 1.0], abs=1e-6)


def test_mollify_constant_one_and_warning():
    grid = Grid1D(-1.0, 1.0, 256)
    def evaluate(x, orders):
        x = np.asarray(x, dtype=float)
        return [np.ones_like(x) if m == 0 else np.zeros_like(x) for m in orders]

    one = GridFunction1D(grid, evaluate, label="one")
    with pytest.warns(BoundaryContaminationWarning):
        ul = mollify(one, l=8 * grid.h)
    mid = grid.n // 2
    assert ul.evaluate(grid.nodes(), (0,))[0][mid] == pytest.approx(1.0, abs=1e-12)


def test_mollify_is_a_sampled_function():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, 512)
    l = 8 * f.grid.h
    ul = mollify(f, l)
    w = kernel_weights(l, f.grid.h)
    nodes = f.grid.nodes()
    for order, (got, field) in enumerate(zip(ul.evaluate(nodes, (0, 1, 2)), f.evaluate(nodes, (0, 1, 2)))):
        assert np.array_equal(got, np.convolve(field, w, "same")), order
    for order in (0, 1, 2):
        c = ul.center_values(order)
        assert c.shape == (f.grid.n,) and np.all(np.isfinite(c))
        assert ul.center_values(order) is c


def test_mollified_evaluator_checks_the_order_range():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, 256)
    ul = mollify(f, 8 * f.grid.h)
    x = f.grid.centers()
    d2, d0 = ul.evaluate(x, (2, 0))
    assert np.array_equal(d2, ul.evaluate(x, (2,))[0]) and np.array_equal(d0, ul.center_values(0))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=f"derivative order {bad} not available"):
            ul.evaluate(x, (0, bad))


def test_mollify_mass_and_sup():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, 1024)
    ul = mollify(f, l=8 * f.grid.h)
    assert quadrature_integral(ul) == pytest.approx(quadrature_integral(f), rel=1e-6)
    (u0,), (ul0,) = (g.evaluate(f.grid.nodes(), (0,)) for g in (f, ul))
    assert np.max(np.abs(ul0)) <= np.max(np.abs(u0)) * (1 + 1e-12)
    # positivity preservation
    assert np.min(ul0) >= -1e-15


def test_mollify_l2_contraction():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, 1024)
    ul = mollify(f, l=8 * f.grid.h)
    (u0,), (ul0,) = (g.evaluate(f.grid.nodes(), (0,)) for g in (f, ul))
    l2 = math.sqrt(quadrature_integral((u0**2, f.grid)))
    l2_m = math.sqrt(quadrature_integral((ul0**2, f.grid)))
    assert l2_m <= l2 * (1 + 1e-6)


def test_mollify_linearity():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5))
    spec2 = TestFunctionSpec("smooth-bump", 0.2, 0.8, 0.7, 0.0, (-1.5, 1.5))
    f = make_test_function(spec, 512)
    g = make_test_function(spec2, 512)
    grid = f.grid
    both = GridFunction1D(
        grid,
        lambda x, orders: [2.0 * a + b for a, b in zip(f.evaluate(x, orders), g.evaluate(x, orders))],
        label="2f+g",
    )
    nodes = grid.nodes()
    lhs = mollify(both, l=8 * grid.h).evaluate(nodes, (0,))[0]
    rhs = 2.0 * mollify(f, l=8 * grid.h).evaluate(nodes, (0,))[0] + mollify(g, l=8 * grid.h).evaluate(nodes, (0,))[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
