"""Norm evaluation for the supported space descriptors.

Lebesgue norms are direct cell sums.  Lorentz norms integrate
t^(p/P - 1) f**(t)^p piecewise: the first plateau and the tail beyond the
support measure have closed forms, and each interior plateau of f* makes
f** smooth there, so fixed-order Gauss-Legendre is essentially exact.
Orlicz norms are Luxemburg functionals found by bisection on the scale.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModularRangeError, YoungBracketError
from .rearrangement import RearrangementProfile
from .spaces import INF, SpaceDescriptor, index_float

# 16-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

LUXEMBURG_REL_TOL = 1e-8
LUXEMBURG_MAX_DOUBLINGS = 200


def lebesgue_norm(values, cell_measure: float, p) -> float:
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    pf = index_float(p)
    if math.isinf(pf):
        return float(np.max(v)) if v.size else 0.0
    return float(np.sum(v**pf) * cell_measure) ** (1.0 / pf)


def lorentz_norm(values, cell_measure: float, P, p) -> float:
    """||f|| = (int_0^inf (t^(1/P) f**(t))^p dt/t)^(1/p), sup form for p = inf."""
    prof = RearrangementProfile(values, cell_measure)
    if prof.is_zero:
        return 0.0
    a = float(1 / P)  # exponent p/P splits as p*a
    pf = index_float(p)
    heights = prof.heights
    breaks = prof.breaks
    cum = prof.cum_integral
    s0 = prof.support_measure
    total = prof.total_integral

    if math.isinf(pf):
        # sup of t^(1/P) f**(t): segmentwise closed-form critical points
        best = heights[0] * breaks[1] ** a  # first plateau: increasing in t
        for i in range(1, len(heights)):
            A = cum[i] - breaks[i] * heights[i]  # f** = (A + v t)/t on the plateau
            v = heights[i]
            t0, t1 = breaks[i], breaks[i + 1]
            cand = [t0, t1]
            if v > 0.0 and a < 1.0:
                t_star = (1.0 - a) * A / (a * v) if A > 0.0 else None
                if t_star and t0 < t_star < t1:
                    cand.append(t_star)
            for t in cand:
                best = max(best, t ** (a - 1.0) * (A + v * t))
        best = max(best, s0 ** (a - 1.0) * total)  # tail decreases: sup at s0
        return float(best)

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


def modular(young, values, cell_measure: float, scale: float = 1.0) -> float:
    """rho_phi(f/scale) = sum phi(|v|/scale) * measure; overflow is an error."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    v = v[v > 0.0]
    if v.size == 0:
        return 0.0
    try:
        return float(np.sum(young(v / scale)) * cell_measure)
    except OverflowError as exc:
        raise ModularRangeError(
            f"modular overflowed at scale {scale}: {exc}", argument=float(np.max(v) / scale)
        ) from None


def luxemburg_norm(values, cell_measure: float, young) -> float:
    """The Luxemburg functional inf{lambda > 0 : rho(f/lambda) <= 1}.

    Bisection on lambda; the initial bracket doubles or halves from max|f|
    and gives up after a fixed budget (YoungBracketError).
    """
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    v = v[v > 0.0]
    if v.size == 0:
        return 0.0

    def rho(lam: float) -> float:
        try:
            return float(np.sum(young(v / lam)) * cell_measure)
        except OverflowError:
            return math.inf

    lam = float(np.max(v))
    r = rho(lam)
    lo = hi = lam
    if r > 1.0:
        for _ in range(LUXEMBURG_MAX_DOUBLINGS):
            hi *= 2.0
            if rho(hi) <= 1.0:
                break
            lo = hi
        else:
            raise YoungBracketError(f"no upper bracket for the Luxemburg scale above {lam}")
    else:
        for _ in range(LUXEMBURG_MAX_DOUBLINGS):
            lo *= 0.5
            if rho(lo) > 1.0:
                break
            hi = lo
        else:
            raise YoungBracketError("modular stays at or below 1 down to vanishing scale")
    while hi - lo > LUXEMBURG_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return float(hi)


def space_norm(space: SpaceDescriptor, values, cell_measure: float) -> float:
    if space.kind == "lebesgue":
        return lebesgue_norm(values, cell_measure, space.primary)
    if space.kind == "lorentz":
        return lorentz_norm(values, cell_measure, space.primary, space.secondary)
    return luxemburg_norm(values, cell_measure, space.young)


def norm_tolerance(space: SpaceDescriptor) -> float:
    """Relative slack for operator-type norm comparisons."""
    if space.kind == "orlicz":
        return 10.0 * LUXEMBURG_REL_TOL
    return 1e-6


def cl_factorization_check(
    z_space: SpaceDescriptor,
    x_space: SpaceDescriptor,
    y_space: SpaceDescriptor,
    h_values,
    f_values,
    g_values,
    theta,
    cell_measure: float,
):
    """Verify ||h||_Z <= ||f||_X^theta ||g||_Y^(1-theta) given the pointwise
    factorization |h| <= |f|^theta |g|^(1-theta).

    The pointwise hypothesis is a precondition and is checked first; the
    norm inequality is the Calderon product property that makes the chain
    estimates work.  Returns (lhs, rhs, ok).
    """
    th = float(theta)
    h = np.abs(np.asarray(h_values, dtype=float)).ravel()
    f = np.abs(np.asarray(f_values, dtype=float)).ravel()
    g = np.abs(np.asarray(g_values, dtype=float)).ravel()
    dominated = f**th * g ** (1.0 - th)
    if np.any(h > dominated * (1.0 + 1e-9) + 1e-300):
        raise ValueError("pointwise factorization |h| <= |f|^theta |g|^(1-theta) fails")
    lhs = space_norm(z_space, h, cell_measure)
    rhs = space_norm(x_space, f, cell_measure) ** th * space_norm(y_space, g, cell_measure) ** (1.0 - th)
    tol = max(norm_tolerance(z_space), norm_tolerance(x_space), norm_tolerance(y_space))
    return lhs, rhs, lhs <= rhs * (1.0 + tol)
