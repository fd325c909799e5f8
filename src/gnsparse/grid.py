"""Uniform grids, sampled functions with analytic derivatives, and quadrature.

Cell-center samples (n points per axis, midpoint rule) feed everything
measure-theoretic -- rearrangements, norms, averaging operators, and every
2D family -- where an exact "step function on cells" representation makes
the verified identities hold to rounding error instead of quadrature error.
A sampled function evaluates each center field once and every consumer
reads that array, and it carries its cell measure (h in 1D, the cell area
in 2D) for the fields built from them.  Only the 1D build also samples a
node array (n+1 points), ``d1`` of u', for its escape-interval scan, on
its first read; a 2D function has no node lattice.

Whoever needs several derivative orders at one point set asks the
evaluator for all of them in one call (sup norms, interval quadrature, the
center fields a case reads), and a 2D lattice is evaluated a block of rows
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyRegionError


@dataclass(frozen=True)
class Grid1D:
    """Uniform partition of [a, b] into n cells."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"window must satisfy a < b, got [{self.a}, {self.b}]")
        if self.n < 8:
            raise ValueError(f"cell count must be >= 8, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n + 1)

    def centers(self) -> np.ndarray:
        return self.a + self.h * (np.arange(self.n) + 0.5)


@dataclass(frozen=True)
class Grid2D:
    """Product of two 1D grids; axis 1 is x, axis 2 is y."""

    gx: Grid1D
    gy: Grid1D

    @property
    def cell_area(self) -> float:
        return self.gx.h * self.gy.h


class _SampledFunction:
    """What both sampled functions share: the center fields read so far,
    each checked finite when it is evaluated."""

    def __init__(self, evaluate, label):
        self.evaluate = evaluate
        self.label = label
        self._centers = {}

    def _finite(self, name, field):
        field = np.asarray(field, dtype=float)
        if not np.all(np.isfinite(field)):
            raise ValueError(f"non-finite {name} in sampled function {self.label!r}")
        return field

    def center_values(self, order: int = 0) -> np.ndarray:
        """center_field(order), evaluated on first use and kept read-only."""
        self.keep_centers((order,))
        return self._centers[order]

    def keep_centers(self, orders) -> None:
        """Evaluate the center fields of the orders not kept yet, in one
        evaluator pass, and keep them read-only for center_values."""
        missing = [order for order in dict.fromkeys(orders) if order not in self._centers]
        if missing:
            for order, arr in zip(missing, self.center_fields(missing)):
                arr.flags.writeable = False
                self._centers[order] = arr

    def center_field(self, order: int) -> np.ndarray:
        """The center field of one order, evaluated afresh and not kept."""
        return self.center_fields((order,))[0]


class GridFunction1D(_SampledFunction):
    """The node array ``d1`` of u', sampled and checked finite on its first
    read, the center fields read so far, the cell measure h, and the
    analytic evaluator behind them.

    The evaluator takes a float or array and a sequence of derivative
    orders (0..3) and returns one array per order; it is what
    escape-interval bisection and interval quadrature consume, so those
    computations are not limited to grid resolution.
    """

    dim = 1
    SUP_PROBE = 8192  # probe cells of sup_norm, fixed so k_min does not move under refinement

    def __init__(self, grid: Grid1D, evaluate, label: str = ""):
        super().__init__(evaluate, label)
        self.grid = grid
        self.cell_measure = grid.h

    @cached_property
    def d1(self) -> np.ndarray:
        """u' at the n + 1 nodes, the input of the escape-interval scan."""
        (field,) = self.evaluate(self.grid.nodes(), (1,))
        return self._finite("d1", field)

    def center_fields(self, orders) -> list:
        """u^(order) at cell centers for each order, from one evaluator call,
        evaluated afresh and not kept."""
        fields = self.evaluate(self.grid.centers(), tuple(orders))
        return [self._finite(f"derivative {order} at centers", f) for order, f in zip(orders, fields)]

    def sup_norm(self, orders) -> tuple:
        """Sup norms of u^(j) for each j in ``orders``, from one evaluator
        call on a fixed fine probe, independent of grid resolution."""
        x = np.linspace(self.grid.a, self.grid.b, self.SUP_PROBE + 1)
        return tuple(float(np.max(np.abs(f))) for f in self.evaluate(x, orders))


class GridFunction2D(_SampledFunction):
    """The center fields of u and its pure partials along one axis read so
    far, the cell measure (the cell area), and the evaluator behind them.

    ``evaluate(x, y, partials)`` returns one array per mixed partial
    ``(jx, jy)`` in ``partials``; it is called with an (r, 1) column of x
    and a (1, m) row of y and must broadcast them to the full (r, m)
    block, so a product of 1D profiles costs O(r + m) profile evaluations.
    Every lattice is evaluated BLOCK_ROWS rows at a time, which bounds the
    evaluator's temporaries.  The center fields cover (0,0) and the pure
    partials along ``axis``.
    """

    dim = 2
    SUP_PROBE = 512  # probe cells per side of sup_norm, as in GridFunction1D
    BLOCK_ROWS = 64  # lattice rows per evaluator call

    def __init__(self, grid: Grid2D, evaluate, axis: int = 1, label: str = ""):
        if axis not in (1, 2):
            raise ValueError(f"axis must be 1 or 2, got {axis}")
        super().__init__(evaluate, label)
        self.grid = grid
        self.cell_measure = grid.cell_area
        self.axis = axis

    def _axis_partial(self, order):
        """The pure partial of the given order along ``axis``; order 0 is u."""
        return (order, 0) if self.axis == 1 else (0, order)

    def _blocks(self, x, y, partials):
        """(rows, fields) per block of BLOCK_ROWS rows of the lattice x * y:
        the partials on those rows, from one evaluator call."""
        Y = y[None, :]
        for start in range(0, len(x), self.BLOCK_ROWS):
            rows = slice(start, start + self.BLOCK_ROWS)
            X = x[rows, None]
            fields = [np.asarray(f, dtype=float) for f in self.evaluate(X, Y, partials)]
            for p, f in zip(partials, fields):
                if f.shape != (len(X), len(y)):
                    raise ValueError(
                        f"partial {p} of {self.label!r} has shape {f.shape}: the evaluator must broadcast"
                    )
            yield rows, fields

    def center_partials(self, partials) -> list:
        """The mixed partials ``(jx, jy)`` at cell centers, one array each,
        filled block by block in one pass over the lattice."""
        x, y = self.grid.gx.centers(), self.grid.gy.centers()
        out = [np.empty((len(x), len(y))) for _ in partials]
        for rows, fields in self._blocks(x, y, partials):
            for arr, f in zip(out, fields):
                arr[rows] = f
        return [self._finite(f"partial {p} at centers", f) for p, f in zip(partials, out)]

    def center_fields(self, orders) -> list:
        """The pure partials along ``axis`` of the given orders at cell
        centers, from one pass over the lattice, evaluated afresh and not kept."""
        return self.center_partials([self._axis_partial(order) for order in orders])

    def sup_norm(self, orders) -> tuple:
        """Sup norms of the pure partial along ``axis`` for each order in
        ``orders`` on a fixed fine probe lattice, independent of grid
        resolution.

        The evaluator of a product f(x) g(y) carries its 1D factors as
        ``evaluate.factors = (f, g)``, and a sup is then max|f^(jx)| *
        max|g^(jy)| over the probe's two axes: rounding is monotone and
        |a*b| = |a|*|b|, so this is the lattice maximum bit for bit.  The
        evaluator of a compactly supported radial u = P(r/w) carries its
        profile as ``evaluate.profile = (P, w)``, and sups of orders up to
        2 are the exact angular sups at each radius (``_radial_sups``).
        These attributes are in the function's ``__dict__``, which
        ``functools.wraps`` copies to a wrapper.  Any other evaluator, and
        order 3, is scanned over the lattice in one pass.
        """
        profile = getattr(self.evaluate, "profile", None)
        if profile is not None and max(orders, default=0) <= 2:
            return _radial_sups(*profile, orders)
        x = np.linspace(self.grid.gx.a, self.grid.gx.b, self.SUP_PROBE + 1)
        y = np.linspace(self.grid.gy.a, self.grid.gy.b, self.SUP_PROBE + 1)
        partials = [self._axis_partial(j) for j in orders]
        factors = getattr(self.evaluate, "factors", None)
        if factors is not None:
            sx = _factor_sups(factors[0], x, [jx for jx, _ in partials])
            sy = _factor_sups(factors[1], y, [jy for _, jy in partials])
            return tuple(float(sx[jx] * sy[jy]) for jx, jy in partials)
        sups = np.zeros(len(partials))
        for _, fields in self._blocks(x, y, partials):
            sups = np.maximum(sups, [np.max(np.abs(f)) for f in fields])
        return tuple(float(s) for s in sups)


def _factor_sups(factor, t, orders) -> dict:
    """max |factor^(j)| over the points t, per order j in ``orders``, from
    one call of the 1D evaluator ``factor``."""
    orders = sorted(set(orders))
    return dict(zip(orders, (np.max(np.abs(f)) for f in factor(t, orders))))


def _radial_sups(profile, w: float, orders) -> tuple:
    """Sups over the plane of the pure partials of u = P(r/w) along an axis,
    per order in ``orders`` (0..2), from one call of the jet ``profile(s,
    orders)`` of P on GridFunction1D.SUP_PROBE cells of s in [0, 1].

    P vanishes from s = 1 on, and the support disc lies inside the window,
    so every direction e is available at every radius.  With e the unit
    vector of the point, the partials are P(s), P'(s) e_x / w and
    (P''(s) e_x^2 + (P'(s)/s)(1 - e_x^2)) / w^2, whose sups over e are
    |P|, |P'| / w and max(|P''|, |P'/s|) / w^2.  The limit of P'/s at
    s = 0 is P''(0), which the |P''| term already holds.
    """
    s = np.linspace(0.0, 1.0, GridFunction1D.SUP_PROBE + 1)
    jet = profile(s, range(max(orders, default=0) + 1))
    peaks = [np.max(np.abs(p)) for p in jet]
    if len(jet) > 2:
        peaks[2] = max(peaks[2], np.max(np.abs(jet[1][1:] / s[1:])))
    return tuple(float(peaks[j] / w**j) for j in orders)


def interval_integrals(fn, z, y, h_ref: float) -> np.ndarray:
    """Trapezoid integrals over the intervals [z_i, y_i] at sub-grid
    resolution of each row a callable returns, with one call of ``fn`` for
    all of them: ``fn(t)`` gives one row of integrand values per integrand
    and the result has one row of integrals per integrand.

    Panel count scales with the interval length measured in reference grid
    steps, with a floor so that intervals shorter than one cell still get a
    stable rule.  The nodes of each interval are those of ``np.linspace``
    (node j is j*step + z, the last one is y).  One ``np.add.reduceat``
    sums the nodes of every interval on their own, so an integral does not
    depend on the other intervals of the call.  Its summation order is not
    ``np.sum``'s (numpy adds the first node to a pairwise sum of the rest),
    so the last bits can differ from a rule summed by ``np.sum``.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    degenerate = np.nonzero(~(y > z))[0]
    if degenerate.size:
        i = degenerate[0]
        raise EmptyRegionError(f"degenerate interval ({z[i]}, {y[i]})")
    if z.size == 0:
        return np.zeros((len(fn(z)), 0))
    panels = np.maximum(64, 8 * np.ceil((y - z) / h_ref).astype(np.int64))
    step = (y - z) / panels
    ends = np.cumsum(panels + 1)
    starts = ends - (panels + 1)
    owner = np.repeat(np.arange(z.size), panels + 1)
    t = (np.arange(ends[-1]) - starts[owner]) * step[owner] + z[owner]
    t[ends - 1] = y
    v = np.asarray(fn(t), dtype=float)
    sums = np.add.reduceat(v, starts, axis=1)
    return step * (sums - 0.5 * (v[:, starts] + v[:, ends - 1]))
