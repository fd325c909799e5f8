"""Tests for grids, test-function families, quadrature, and mollification."""

import math

import numpy as np
import pytest

from gnsparse import (
    BoundaryContaminationWarning,
    Grid1D,
    Grid2D,
    GridFunction1D,
    GridFunction2D,
    TestFunctionSpec,
    UnresolvableFunctionError,
    fd_consistency_error,
    grid_for_spec,
    interval_integrals,
    make_test_function,
    mollify,
    quadrature_integral,
    quadrature_integral_2d,
)
from gnsparse.errors import CorpusConfigError, EmptyRegionError
from gnsparse.gn import _abs_field
from gnsparse.mollifier import kernel_weights
from gnsparse.testfunctions import (
    FAMILIES,
    default_corpus_1d,
    default_corpus_2d,
    make_evaluator_1d,
    make_evaluator_2d,
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
    f = make_test_function(spec, Grid1D(-6.0, 6.0, 1024))
    x = f.grid.nodes()
    assert np.allclose(f.values, np.exp(-x * x), rtol=0, atol=1e-15)
    assert np.allclose(f.d1, -2.0 * x * np.exp(-x * x), rtol=0, atol=1e-14)


def test_zero_amplitude_bump_is_zero():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 0.0, 0.0, (-1.5, 1.5))
    f = make_test_function(spec, Grid1D(-1.5, 1.5, 64))
    assert np.all(f.values == 0.0)
    assert np.all(f.d1 == 0.0)


def test_sine_window_d2_and_fd_quartering():
    spec = TestFunctionSpec(
        "sine-window", 0.0, 1.0, 1.0, 1.0, (-math.pi, math.pi)
    )
    f1 = make_test_function(spec, Grid1D(-math.pi, math.pi, 1024))
    assert np.allclose(f1.d2, -np.sin(f1.grid.nodes()), atol=1e-14)
    f2 = make_test_function(spec, Grid1D(-math.pi, math.pi, 2048))
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("spec", default_corpus_1d(), ids=lambda s: s.name)
def test_fd_quartering_whole_corpus(spec):
    f1 = make_test_function(spec, grid_for_spec(spec, 1024))
    f2 = make_test_function(spec, grid_for_spec(spec, 2048))
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("spec", default_corpus_2d(), ids=lambda s: s.name)
def test_fd_quartering_2d_corpus(spec):
    f1 = make_test_function(spec, grid_for_spec(spec, 128))
    f2 = make_test_function(spec, grid_for_spec(spec, 256))
    ratio = fd_consistency_error(f1) / fd_consistency_error(f2)
    assert 3.5 <= ratio <= 4.5


def test_third_derivatives_consistent_with_fd_of_d2():
    # d3 is used by the k=3 interpolation cases; check it against a central
    # difference of the analytic d2 for every family.  Compact bumps are only
    # C^3 globally (d4 jumps at the support edge), so a small collar around
    # the edge is excluded: there the central difference is first-order only.
    corpus = default_corpus_1d()
    for spec in corpus[:1] + corpus[6:7] + corpus[11:12] + corpus[16:17]:
        f = make_test_function(spec, grid_for_spec(spec, 2048))
        h = f.grid.h
        x = f.grid.nodes()[1:-1]
        d3 = f.evaluate(x, 3)
        fd = (f.d2[2:] - f.d2[:-2]) / (2.0 * h)
        err = np.abs(d3 - fd)
        if spec.family in ("smooth-bump", "modulated-bump"):
            c, w = spec.centers()[0], spec.widths()[0]
            err = err[np.abs(np.abs(x - c) - w) > 4.0 * h]
        scale = max(1.0, float(np.max(np.abs(d3))))
        assert np.max(err) / scale < 5e-4


def test_radial_2d_partials_match_fd():
    spec = default_corpus_2d()[3]
    assert spec.layout == "radial"
    f = make_test_function(spec, grid_for_spec(spec, 256))
    X, Y = f.grid.nodes()
    h = f.grid.gx.h
    # mixed partial (1,1) against a cross difference of values
    mixed = f.evaluate(X[1:-1], Y[:, 1:-1], 1, 1)
    cross = (
        f.values[2:, 2:] - f.values[2:, :-2] - f.values[:-2, 2:] + f.values[:-2, :-2]
    ) / (4.0 * h * h)
    assert np.max(np.abs(mixed - cross)) < 5e-3


def test_grid2d_returns_open_grid():
    g = Grid2D(Grid1D(-1.0, 1.0, 16), Grid1D(0.0, 3.0, 16))
    X, Y = g.nodes()
    assert X.shape == (17, 1) and Y.shape == (1, 17)
    assert np.array_equal(X[:, 0], g.gx.nodes()) and np.array_equal(Y[0], g.gy.nodes())
    Xc, Yc = g.centers()
    assert Xc.shape == (16, 1) and Yc.shape == (1, 16)
    assert np.array_equal(Xc[:, 0], g.gx.centers()) and np.array_equal(Yc[0], g.gy.centers())


def test_non_broadcasting_evaluator_rejected():
    g = Grid2D(Grid1D(0.0, 1.0, 16), Grid1D(0.0, 1.0, 16))
    with pytest.raises(ValueError, match="broadcast"):
        GridFunction2D(g, lambda X, Y, jx, jy: np.zeros_like(X), label="x-only")


class _DenseGrid2D(Grid2D):
    """Grid2D sampled on full meshgrid arrays: the per-cell reference."""

    def centers(self):
        return np.meshgrid(self.gx.centers(), self.gy.centers(), indexing="ij")

    def nodes(self):
        return np.meshgrid(self.gx.nodes(), self.gy.nodes(), indexing="ij")


def _dense_sup_norm(u, order, probe=512):
    X, Y = np.meshgrid(
        np.linspace(u.grid.gx.a, u.grid.gx.b, probe + 1),
        np.linspace(u.grid.gy.a, u.grid.gy.b, probe + 1),
        indexing="ij",
    )
    jx, jy = (order, 0) if u.axis == 1 else (0, order)
    return float(np.max(np.abs(u.evaluate(X, Y, jx, jy))))


@pytest.mark.parametrize("axis", (1, 2))
@pytest.mark.parametrize("spec", default_corpus_2d(), ids=lambda s: s.name)
def test_open_grid_matches_dense_evaluation(spec, axis):
    for n in (128, 256):
        u = make_test_function(spec, grid_for_spec(spec, n), axis=axis)
        g = u.grid
        ref = GridFunction2D(_DenseGrid2D(g.gx, g.gy), u.evaluate, axis=axis)
        for name in ("values", "d1", "d2"):
            assert np.array_equal(getattr(u, name), getattr(ref, name)), name
        for order in (0, 1, 2):
            assert np.array_equal(u.center_values(order), ref.center_values(order))
            assert u.sup_norm(order) == _dense_sup_norm(u, order)
            for mode in ("pure", "pure-sum", "gradient"):
                assert np.array_equal(
                    _abs_field(u, order, mode), _abs_field(ref, order, mode)
                ), (order, mode)


@pytest.mark.parametrize("spec", [default_corpus_1d()[0], default_corpus_2d()[0]], ids=lambda s: s.name)
def test_center_values_are_stored_read_only(spec):
    u = make_test_function(spec, grid_for_spec(spec, 64))
    for order in (0, 1, 2):
        first = u.center_values(order)
        assert u.center_values(order) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_1d_order_out_of_range_raises(family):
    spec = next(s for s in default_corpus_1d() if s.family == family)
    evaluate = make_evaluator_1d(spec)
    assert np.all(np.isfinite(evaluate(np.linspace(*spec.window, 9), 3)))
    with pytest.raises(ValueError, match="order 4"):
        evaluate(np.linspace(*spec.window, 9), 4)


@pytest.mark.parametrize(
    "layout, orders", [("product", (4, 0)), ("radial", (2, 1)), ("radial", (4, 0))]
)
def test_2d_order_out_of_range_raises(layout, orders):
    spec = next(s for s in default_corpus_2d() if s.layout == layout)
    evaluate = make_evaluator_2d(spec)
    X, Y = grid_for_spec(spec, 16).centers()
    with pytest.raises(ValueError, match="not available"):
        evaluate(X, Y, *orders)


def test_unresolvable_width_rejected():
    spec = TestFunctionSpec("gaussian", 0.0, 0.01, 1.0, 0.0, (-6.0, 6.0))
    with pytest.raises(UnresolvableFunctionError):
        make_test_function(spec, Grid1D(-6.0, 6.0, 64))


def test_bump_support_must_fit_window():
    spec = TestFunctionSpec("smooth-bump", 0.0, 2.0, 1.0, 0.0, (-1.5, 1.5))
    with pytest.raises(CorpusConfigError):
        make_test_function(spec, Grid1D(-1.5, 1.5, 64))


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
    X, Y = g.nodes()
    vals = np.sin(X) * (3.0 * Y * Y)
    assert quadrature_integral_2d(vals, g) == pytest.approx(2.0, abs=1e-4)


def test_interval_integral_matches_closed_form():
    vals = interval_integrals(np.sin, [0.0, 0.0], [math.pi, 0.5 * math.pi], h_ref=0.01)
    assert vals == pytest.approx([2.0, 1.0], abs=1e-6)


def test_mollify_constant_one_and_warning():
    grid = Grid1D(-1.0, 1.0, 256)
    one = GridFunction1D(grid, lambda x, m=0: np.ones_like(np.asarray(x, dtype=float)) if m == 0 else np.zeros_like(np.asarray(x, dtype=float)), label="one")
    with pytest.warns(BoundaryContaminationWarning):
        ul = mollify(one, l=8 * grid.h)
    mid = grid.n // 2
    assert ul.values[mid] == pytest.approx(1.0, abs=1e-12)


def test_mollify_is_a_sampled_function():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, Grid1D(-1.5, 1.5, 512))
    l = 8 * f.grid.h
    ul = mollify(f, l)
    w = kernel_weights(l, f.grid.h)
    for name in ("values", "d1", "d2"):
        assert np.array_equal(getattr(ul, name), np.convolve(getattr(f, name), w, "same")), name
    for order in (0, 1, 2):
        c = ul.center_values(order)
        assert c.shape == (f.grid.n,) and np.all(np.isfinite(c))
        assert ul.center_values(order) is c


def test_mollify_mass_and_sup():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, Grid1D(-1.5, 1.5, 1024))
    ul = mollify(f, l=8 * f.grid.h)
    assert quadrature_integral(ul) == pytest.approx(quadrature_integral(f), rel=1e-6)
    assert np.max(np.abs(ul.values)) <= np.max(np.abs(f.values)) * (1 + 1e-12)
    # positivity preservation
    assert np.min(ul.values) >= -1e-15


def test_mollify_l2_contraction():
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5), name="b")
    f = make_test_function(spec, Grid1D(-1.5, 1.5, 1024))
    ul = mollify(f, l=8 * f.grid.h)
    l2 = math.sqrt(quadrature_integral((f.values**2, f.grid)))
    l2_m = math.sqrt(quadrature_integral((ul.values**2, f.grid)))
    assert l2_m <= l2 * (1 + 1e-6)


def test_mollify_linearity():
    grid = Grid1D(-1.5, 1.5, 512)
    spec = TestFunctionSpec("smooth-bump", 0.0, 1.0, 1.0, 0.0, (-1.5, 1.5))
    spec2 = TestFunctionSpec("smooth-bump", 0.2, 0.8, 0.7, 0.0, (-1.5, 1.5))
    f = make_test_function(spec, grid)
    g = make_test_function(spec2, grid)
    both = GridFunction1D(
        grid, lambda x, m=0: 2.0 * f.evaluate(x, m) + g.evaluate(x, m), label="2f+g"
    )
    lhs = mollify(both, l=8 * grid.h).values
    rhs = 2.0 * mollify(f, l=8 * grid.h).values + mollify(g, l=8 * grid.h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
