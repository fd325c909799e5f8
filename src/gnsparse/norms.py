"""Norm evaluation for the supported space descriptors.

Every norm reads a CellField, which holds |f| and the measure of its
cells.  Lebesgue norms are direct cell sums.  Lorentz norms integrate
t^(p/P - 1) f**(t)^p piecewise: the first plateau and the tail beyond the
support measure have closed forms, and each interior plateau of f* makes
f** smooth there, so fixed-order Gauss-Legendre is essentially exact.
Orlicz norms are Luxemburg functionals: the scale is bracketed by
convexity and found by a secant in log-log coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModularRangeError, YoungBracketError
from .rearrangement import CellField
from .spaces import INF, SpaceDescriptor, index_float

# 16-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

LUXEMBURG_REL_TOL = 1e-8


def lebesgue_norm(f: CellField, p) -> float:
    v = f.values
    pf = index_float(p)
    if math.isinf(pf):
        return float(np.max(v)) if v.size else 0.0
    return float(np.sum(v**pf) * f.cell_measure) ** (1.0 / pf)


def lorentz_norm(f: CellField, P, p) -> float:
    """||f|| = (int_0^inf (t^(1/P) f**(t))^p dt/t)^(1/p), sup form for p = inf."""
    if f.is_zero:
        return 0.0
    a = float(1 / P)  # exponent p/P splits as p*a
    pf = index_float(p)
    heights = f.heights
    breaks = f.breaks
    cum = f.cum_integral
    s0 = f.support_measure
    total = f.total_integral

    if math.isinf(pf):
        # sup of t^(1/P) f**(t) = t^(a-1) int_0^t f*: the first plateau
        # increases in t and the tail decreases; on each later plateau
        # t^(a-1) (A + v t) has its one critical point at a minimum, so the
        # sup is at a break
        return float(np.max(breaks[1:] ** (a - 1.0) * cum[1:]))

    alpha = pf * a  # the dt-exponent is alpha - 1
    acc = heights[0] ** pf * breaks[1] ** alpha / alpha
    if len(heights) > 1:
        A = cum[1:-1] - breaks[1:-1] * heights[1:]
        v = heights[1:]
        t0 = breaks[1:-1]
        t1 = breaks[2:]
        mid = 0.5 * (t0 + t1)
        half = 0.5 * (t1 - t0)
        # one node at a time, so every temporary is plateau-sized
        for x, w in zip(_GL_X, _GL_W):
            ts = mid + half * x
            acc += w * float(np.sum(half * ts ** (alpha - 1.0) * (A / ts + v) ** pf))
    # tail: f** = total/t for t > s0; converges since alpha < p for P > 1
    acc += total**pf * s0 ** (alpha - pf) / (pf - alpha)
    return float(acc ** (1.0 / pf))


def modular(young, f: CellField, scale: float = 1.0) -> float:
    """rho_phi(f/scale) = sum phi(|v|/scale) * measure; overflow is an error."""
    v = f.positive()
    if v.size == 0:
        return 0.0
    try:
        with np.errstate(over="ignore"):  # an overflow raises below, with no warning first
            rho = float(np.sum(young(v / scale)) * f.cell_measure)
        if math.isinf(rho):
            raise OverflowError("the sum is not finite")
        return rho
    except OverflowError as exc:
        raise ModularRangeError(
            f"modular overflowed at scale {scale}: {exc}", argument=float(np.max(v) / scale)
        ) from None


def luxemburg_norm(f: CellField, young) -> float:
    """The Luxemburg functional inf{lambda > 0 : rho(f/lambda) <= 1}.

    Returns ``hi`` with rho(f/hi) <= 1 after probing some ``lo`` with
    rho(f/lo) > 1 and hi - lo <= LUXEMBURG_REL_TOL * hi.  Since phi(t)/t is
    nondecreasing for a Young function, lambda * rho(f/lambda) is
    nonincreasing, so the root lies between lam0 = max|f| and lam0 *
    rho(f/lam0).  Inside that bracket a secant in (log lambda, log rho),
    exact for powers, with Illinois halving of a stale end, converges in a
    handful of modular evaluations.  An end whose modular overflowed or
    underflowed, or a log-bracket that did not halve over three probes,
    gets a bisection step in log lambda instead.  A modular at lam0 that
    is 0 or not finite, or a bracket outside the floats, is a
    YoungBracketError.
    """
    v = f.positive()
    if v.size == 0:
        return 0.0

    def rho(lam: float) -> float:
        try:
            with np.errstate(over="ignore"):
                return float(np.sum(young(v / lam)) * f.cell_measure)
        except OverflowError:
            return math.inf

    lam0 = float(np.max(v))
    r0 = rho(lam0)
    edge = lam0 * r0
    if not (0.0 < r0 < math.inf and 0.0 < edge < math.inf):
        raise YoungBracketError(f"modular {r0} at scale {lam0} brackets no unit-modular scale")
    lo, r_lo, hi, r_hi = (lam0, r0, edge, rho(edge)) if r0 > 1.0 else (edge, rho(edge), lam0, r0)
    # rounding can put the edge on the wrong side of the root; nudge it across
    step = 1e-12
    while r_hi > 1.0 or not r_lo > 1.0:
        if step > 0.5:
            raise YoungBracketError(f"modular does not decrease across scale {edge}")
        if r_hi > 1.0:
            lo, r_lo = hi, r_hi
            hi *= 1.0 + step
            r_hi = rho(hi)
        else:
            hi, r_hi = lo, r_lo
            lo *= 1.0 - step
            r_lo = rho(lo)
        step *= 2.0

    def log(r: float) -> float:
        return math.log(r) if 0.0 < r < math.inf else math.copysign(math.inf, r - 1.0)

    y_lo, y_hi = log(r_lo), log(r_hi)
    # Illinois halving needs two probes on one side before it can cross,
    # so a bracket gets three probes to halve before a bisection step
    widths = [math.inf] * 3  # log-bracket widths before the last three probes
    last_lo = r0 <= 1.0  # whether the last probe became lo
    while hi - lo > LUXEMBURG_REL_TOL * hi:
        x_lo, x_hi = math.log(lo), math.log(hi)
        width = x_hi - x_lo
        if math.isinf(y_lo) or math.isinf(y_hi) or width > 0.5 * widths[0]:
            x = x_lo + 0.5 * width
        else:
            x = x_lo + width * y_lo / (y_lo - y_hi)
        widths = widths[1:] + [width]
        # at least half a tolerance inside, so a probe on the root closes the far side
        gap = 0.5 * LUXEMBURG_REL_TOL * hi
        lam = min(max(math.exp(x), lo + gap), hi - gap)
        r = rho(lam)
        if r > 1.0:
            if last_lo:  # hi is stale
                y_hi *= 0.5
            lo, y_lo, last_lo = lam, log(r), True
        else:
            if not last_lo:  # lo is stale
                y_lo *= 0.5
            hi, y_hi, last_lo = lam, log(r), False
    return float(hi)


def space_norm(space: SpaceDescriptor, f: CellField) -> float:
    if space.kind == "lebesgue":
        return lebesgue_norm(f, space.primary)
    if space.kind == "lorentz":
        return lorentz_norm(f, space.primary, space.secondary)
    return luxemburg_norm(f, space.young)


def norm_tolerance(space: SpaceDescriptor) -> float:
    """Relative slack for operator-type norm comparisons."""
    if space.kind == "orlicz":
        return 10.0 * LUXEMBURG_REL_TOL
    return 1e-6


def cl_factorization_check(
    z_space: SpaceDescriptor,
    x_space: SpaceDescriptor,
    y_space: SpaceDescriptor,
    h: CellField,
    f: CellField,
    g: CellField,
    theta,
):
    """Verify ||h||_Z <= ||f||_X^theta ||g||_Y^(1-theta) given the pointwise
    factorization |h| <= |f|^theta |g|^(1-theta).

    The pointwise hypothesis is a precondition and is checked first; the
    norm inequality is the Calderon product property that makes the chain
    estimates work.  Returns (lhs, rhs, ok).
    """
    th = float(theta)
    dominated = f.values**th * g.values ** (1.0 - th)
    if np.any(h.values > dominated * (1.0 + 1e-9) + 1e-300):
        raise ValueError("pointwise factorization |h| <= |f|^theta |g|^(1-theta) fails")
    lhs = space_norm(z_space, h)
    rhs = space_norm(x_space, f) ** th * space_norm(y_space, g) ** (1.0 - th)
    tol = max(norm_tolerance(z_space), norm_tolerance(x_space), norm_tolerance(y_space))
    return lhs, rhs, lhs <= rhs * (1.0 + tol)
