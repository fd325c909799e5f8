"""Closed-form test-function families, their evaluators and their samples.

Families (all provide derivatives up to third order in closed form):

* ``gaussian``        A * exp(-((x-c)/w)^2)
* ``smooth-bump``     A * cos^4(pi (x-c) / (2 w)) on |x-c| < w, zero outside
* ``modulated-bump``  smooth-bump times cos(freq * (x-c))
* ``sine-window``     A * sin(freq * (x-c)) on the whole window

The compact bump uses a raised-cosine profile rather than the classical
exp(-1/(1-t^2)) shape: both are legitimate compactly supported C^2 bumps,
but the raised cosine has third-derivative constants roughly an order of
magnitude smaller, which is what makes the two-dimensional continuity-modulus
construction resolvable at desk-scale grids (the tests' mollifier kernel, which
never enters a modulus scan, keeps the classical shape).

In 2D a spec is either a ``product`` of two 1D profiles or ``radial``
(profile of r = sqrt(x^2+y^2)); only bump-type families may be radial.

An evaluator takes the derivatives it should return as a sequence --
``evaluate(x, orders)`` in 1D, ``evaluate(X, Y, partials)`` with ``(jx, jy)``
pairs in 2D -- and returns one array per entry, in the order given, from
one pass of the transcendental functions for all of them.  Each entry is
the array a call for that entry alone returns.  For the sup probe, a
product evaluator also carries its two 1D factors, ``evaluate.factors``,
and a compact radial one its profile jet and width, ``evaluate.profile``.

A spec refuses numbers that are not finite and a window that does not
increase when it is built.  ``make_test_function(spec, n, axis)`` samples
it on the grid of n cells per axis over its own window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CorpusConfigError, UnresolvableFunctionError
from .grid import Grid1D, Grid2D, GridFunction1D, GridFunction2D

FAMILIES = ("gaussian", "smooth-bump", "modulated-bump", "sine-window")
COMPACT_FAMILIES = ("smooth-bump", "modulated-bump")

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class TestFunctionSpec:
    """Parameters of one corpus member; ``window`` decides the dimension.

    1D: center/width are floats and window is (a, b).
    2D: center/width are pairs, window is ((ax, bx), (ay, by)) and ``layout``
    selects product or radial structure (radial uses width[0]).
    """

    __test__ = False  # not a pytest class despite the name

    family: str
    center: object = 0.0
    width: object = 1.0
    amplitude: float = 1.0
    frequency: float = 0.0
    window: object = (-1.0, 1.0)
    layout: str = "product"
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise CorpusConfigError(f"unknown family {self.family!r}")
        if self.layout not in ("product", "radial"):
            raise CorpusConfigError(f"unknown layout {self.layout!r}")
        if self.dim == 2 and self.layout == "radial" and self.family not in COMPACT_FAMILIES and self.family != "gaussian":
            raise CorpusConfigError(f"family {self.family!r} has no radial form")
        # a nan parameter samples the zero function or a nan field, and a
        # window that is not finite and increasing has no grid
        numbers = (self.centers(), self.widths(), (self.amplitude,), (self.frequency,))
        for key, values in zip(("center", "width", "amplitude", "frequency"), numbers):
            if not all(map(math.isfinite, values)):
                raise CorpusConfigError(f"{key} {getattr(self, key)!r} is not finite")
        for a, b in self.windows():
            if not -math.inf < a < b < math.inf:
                raise CorpusConfigError(f"window {self.window!r} is not a finite increasing pair")

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.window[0], (tuple, list)) else 1

    def centers(self):
        c = self.center
        return (float(c[0]), float(c[1])) if isinstance(c, (tuple, list)) else (float(c), float(c))

    def widths(self):
        w = self.width
        return (float(w[0]), float(w[1])) if isinstance(w, (tuple, list)) else (float(w), float(w))

    def windows(self):
        """The (a, b) pair of each axis: one in 1D, two in 2D."""
        pairs = self.window if self.dim == 2 else (self.window,)
        return tuple((float(a), float(b)) for a, b in pairs)


# ---------------------------------------------------------------------------
# 1D profiles.  Each takes a sequence of derivative orders and returns one
# array per order, in the order given, from one pass of its transcendental
# functions; it computes only the orders asked for.

MAX_ORDER = 3


def _gaussian(x, c, w, A, orders):
    t = (np.asarray(x, dtype=float) - c) / w
    e = A * np.exp(-t * t)
    forms = (
        lambda: e,
        lambda: -2.0 * t * e / w,
        lambda: (4.0 * t * t - 2.0) * e / (w * w),
        lambda: (12.0 * t - 8.0 * t ** 3) * e / (w ** 3),
    )
    return [forms[j]() for j in orders]


def _bump(x, c, w, A, orders):
    t = (np.asarray(x, dtype=float) - c) / w
    inside = np.abs(t) < 1.0
    th = _HALF_PI * t[inside]
    cs = np.cos(th)
    sn = np.sin(th) if any(orders) else None
    forms = (
        lambda: A * cs ** 4,
        lambda: -4.0 * A * (_HALF_PI / w) * cs ** 3 * sn,
        lambda: A * (_HALF_PI / w) ** 2 * (12.0 * cs ** 2 * sn ** 2 - 4.0 * cs ** 4),
        lambda: A * (_HALF_PI / w) ** 3 * 8.0 * cs * sn * (5.0 * cs ** 2 - 3.0 * sn ** 2),
    )
    out = []
    for j in orders:
        d = np.zeros_like(t)
        d[inside] = forms[j]()
        out.append(d)
    return out


def _modulated(x, c, w, A, nu, orders):
    x = np.asarray(x, dtype=float)
    ph = nu * (x - c)
    C = np.cos(ph)
    S = np.sin(ph) if any(orders) else None
    B = _bump(x, c, w, A, range(max(orders, default=-1) + 1))
    forms = (
        lambda: B[0] * C,
        lambda: B[1] * C - B[0] * nu * S,
        lambda: B[2] * C - 2.0 * B[1] * nu * S - B[0] * nu * nu * C,
        lambda: B[3] * C - 3.0 * B[2] * nu * S - 3.0 * B[1] * nu * nu * C + B[0] * nu ** 3 * S,
    )
    return [forms[j]() for j in orders]


def _sine(x, c, A, nu, orders):
    ph = nu * (np.asarray(x, dtype=float) - c)
    sn = np.sin(ph) if any(j % 2 == 0 for j in orders) else None
    cs = np.cos(ph) if any(j % 2 for j in orders) else None
    forms = (lambda: sn, lambda: cs, lambda: -sn, lambda: -cs)
    return [A * nu ** j * forms[j]() for j in orders]


def profile_jet(spec: TestFunctionSpec, x, orders, component: int = 0):
    """The derivatives of the given orders of the (1D or per-axis) profile
    of ``spec`` at x, one array per order."""
    for j in orders:
        if not 0 <= j <= MAX_ORDER:
            raise ValueError(f"derivative order {j} not available")
    c = spec.centers()[component]
    w = spec.widths()[component]
    A = spec.amplitude if component == 0 else 1.0
    if spec.family == "gaussian":
        return _gaussian(x, c, w, A, orders)
    if spec.family == "modulated-bump" and component == 0:
        return _modulated(x, c, w, A, spec.frequency, orders)
    if spec.family in COMPACT_FAMILIES:
        return _bump(x, c, w, A, orders)
    if spec.family == "sine-window":
        return _sine(x, c, A, spec.frequency, orders)
    raise CorpusConfigError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# radial 2D profiles: u = P(r/w) with P the cos^4 (or gaussian) shape.

_RADIAL_ORDERS = {(jx, jy) for jx in range(3) for jy in range(3 - jx)} | {(3, 0), (0, 3)}


def _radial_profile(spec):
    """The jet ``P(s, orders)`` of the profile P with u = P(r/w)."""
    shape = _gaussian if spec.family == "gaussian" else _bump
    return lambda s, orders: shape(s, 0.0, 1.0, spec.amplitude, orders)


def _radial_partials(spec, X, Y, partials):
    """Mixed partials (jx, jy) of P(r/w) up to total order 2 (plus pure
    order 3), one array per partial, from one profile jet."""
    for jx, jy in partials:
        if (jx, jy) not in _RADIAL_ORDERS:
            raise ValueError(f"radial partial of order ({jx},{jy}) not available")
    top = max((jx + jy for jx, jy in partials), default=0)
    cx, cy = spec.centers()
    w = spec.widths()[0]
    dx = (np.asarray(X, dtype=float) - cx) / w
    dy = (np.asarray(Y, dtype=float) - cy) / w
    r = np.hypot(dx, dy)
    # order 0 reads P; every higher order reads P', ..., P^(order) only
    needed = sorted({0 for jx, jy in partials if jx + jy == 0} | set(range(1, top + 1)))
    P = dict(zip(needed, _radial_profile(spec)(r, needed)))
    if top >= 1:
        safe = r > 1e-12
        rs = np.where(safe, r, 1.0)
        # P'(s)/s has a finite limit at s=0 (the profile is even in s)
        lim = -np.pi ** 2 * spec.amplitude if spec.family != "gaussian" else -2.0 * spec.amplitude
        p1_over_s = np.where(safe, P[1] / rs, lim)
    if top >= 2:
        ex = np.where(safe, dx / rs, 0.0)
        ey = np.where(safe, dy / rs, 0.0)

    def partial(jx, jy):
        order = jx + jy
        if order == 0:
            return P[0]
        if order == 1:
            return p1_over_s * (dx if jx == 1 else dy) / w
        if order == 2:
            if jx == 2 or jy == 2:
                # at r=0 both pure second partials equal P''(0)/w^2
                e2 = np.where(safe, (ex if jx == 2 else ey) ** 2, 1.0)
                return (P[2] * e2 + p1_over_s * (1.0 - e2)) / w ** 2
            cross = np.where(safe, ex * ey, 0.0)
            return (P[2] - p1_over_s) * cross / w ** 2
        e = np.where(safe, ex if jx == 3 else ey, 0.0)
        q = np.where(safe, (P[2] - p1_over_s) / rs, 0.0)
        return (P[3] * e ** 3 + 3.0 * q * e * (1.0 - e * e)) / w ** 3

    return [partial(jx, jy) for jx, jy in partials]


def make_evaluator_1d(spec: TestFunctionSpec):
    def evaluate(x, orders):
        return profile_jet(spec, x, orders)

    return evaluate


def make_evaluator_2d(spec: TestFunctionSpec):
    if spec.layout == "radial":

        def evaluate(X, Y, partials):
            return _radial_partials(spec, X, Y, partials)

        if spec.family in COMPACT_FAMILIES:
            evaluate.profile = (_radial_profile(spec), spec.widths()[0])
        return evaluate

    def factor(component):
        return lambda t, orders: profile_jet(spec, t, orders, component)

    factor_x, factor_y = factor(0), factor(1)

    def evaluate(X, Y, partials):
        jxs = sorted({jx for jx, _ in partials})
        jys = sorted({jy for _, jy in partials})
        fx = dict(zip(jxs, factor_x(X, jxs)))
        fy = dict(zip(jys, factor_y(Y, jys)))
        return [fx[jx] * fy[jy] for jx, jy in partials]

    evaluate.factors = (factor_x, factor_y)
    return evaluate


def make_test_function(spec: TestFunctionSpec, n: int, axis: int = 1):
    """Sample a spec on the grid of n cells per axis over its window, with
    ``axis`` the 2D axis of its pure partials; a width of at most 4h, or a
    compact support that reaches the window's edge, is refused."""
    label = spec.name or spec.family
    axes = [Grid1D(a, b, n) for a, b in spec.windows()]
    for comp, g in enumerate(axes):
        if spec.widths()[comp] <= 4.0 * g.h:
            where = f" on axis {comp + 1}" if spec.dim == 2 else ""
            raise UnresolvableFunctionError(f"width {spec.widths()[comp]} <= 4h = {4.0 * g.h}{where} for {label}")
        _check_support(spec, comp)
    if spec.dim == 1:
        return GridFunction1D(axes[0], make_evaluator_1d(spec), label=label)
    return GridFunction2D(Grid2D(*axes), make_evaluator_2d(spec), axis=axis, label=label)


def _check_support(spec: TestFunctionSpec, component: int):
    """Compact families must be supported strictly inside the window."""
    if spec.family not in COMPACT_FAMILIES:
        return
    window = spec.windows()[component]
    c = spec.centers()[component]
    if spec.layout == "radial" and spec.dim == 2:
        w = spec.widths()[0]
    else:
        w = spec.widths()[component]
    if c - w <= window[0] or c + w >= window[1]:
        raise CorpusConfigError(
            f"support [{c - w}, {c + w}] not strictly inside window {window} "
            f"for {spec.name or spec.family}"
        )
