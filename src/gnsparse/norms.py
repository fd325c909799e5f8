"""Norm evaluation for the supported space descriptors.

Every norm reads a CellField, which holds |f| and the measure of its
cells, and is evaluated in closed form wherever one exists.  Lebesgue
norms are cell sums, taken scale-free as M (sum (|f|/M)^p mu)^(1/p) with
M = max|f|, so no p-th power overflows or underflows wholesale.  An
Orlicz space of a power, ``Orl:pow:p``, is L^p: the Luxemburg functional
of t^p is the L^p norm (Rao-Ren, Theory of Orlicz Spaces, 1991), so it is
evaluated as one.  Lorentz norms of finite q are scale-free too, M ||f/M||
with M = f*(0), and integrate t^(q/P - 1) f**(t)^q piecewise: the first
plateau and the tail beyond the support measure have closed forms, and
on each interior plateau f** = v + A/t (Bennett-
Sharpley, Interpolation of Operators, ch. 2), so for an integer q the
plateau integral is a finite binomial sum; for any other q, fixed-order
Gauss-Legendre in log t, on pieces no wider than a factor 2, is
essentially exact there.  Every other Orlicz norm is a Luxemburg
functional, found by one Newton loop in x = -log lambda on the cell levels
log phi(|f| e^x): they are closed form for exp and powlog, and for a
combined function they are unknowns of the same loop, updated from its
closed-form log-inverse, so no Young-function solve is nested in it.  A
modular is a linear sum, taken again as a log-sum-exp only where that
overflows.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import ModularRangeError, NormRangeError, YoungInversionError
from .rearrangement import CellField
from .spaces import INF, NEWTON_MAX_STEPS, NEWTON_REL_TOL, SpaceDescriptor, format_index, index_float

# the binomial plateau sum takes q + 1 passes over the plateaus against the
# quadrature's 16, so it serves every integer q up to 15
BINOMIAL_MAX_Q = 15

LUXEMBURG_REL_TOL = 1e-8


def lebesgue_norm(f: CellField, p) -> float:
    """(int |f|^p)^(1/p) as M (sum (|f|/M)^p mu)^(1/p), M = max|f|; max|f| for p = inf.

    A norm of a nonzero f that is not a positive finite float, as at
    extreme cell measures, is a NormRangeError.
    """
    v = f.values
    top = float(np.max(v)) if v.size else 0.0
    pf = index_float(p)
    if top == 0.0:
        return top
    if math.isinf(pf):
        norm = top
    else:
        w = v / top
        w **= pf
        with np.errstate(over="ignore"):  # a sum beyond the floats raises below
            norm = top * float(np.sum(w) * f.cell_measure) ** (1.0 / pf)
    if not 0.0 < norm < math.inf:
        raise NormRangeError(f"Lebesgue norm of L:{format_index(p)} is {norm}, not a positive finite float")
    return norm


def lorentz_norm(f: CellField, P, p) -> float:
    """||f|| = (int_0^inf (t^(1/P) f**(t))^p dt/t)^(1/p), sup form for p = inf.

    For finite p it is taken scale-free as M ||f/M|| with M = f*(0) =
    max|f|, so no p-th power of a value leaves the floats.  A norm of a
    nonzero f that is still not a positive finite float, as at extreme
    cell measures, is a NormRangeError.
    """
    if f.is_zero:
        return 0.0
    a = float(1 / P)  # exponent p/P splits as p*a
    pf = index_float(p)
    heights = f.heights
    breaks = f.breaks
    cum = f.cum_integral
    s0 = breaks[-1]  # the support's measure, a numpy float: its powers do not raise
    top = float(heights[0])

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if math.isinf(pf):
            # sup of t^(1/P) f**(t) = t^(a-1) int_0^t f*: the first plateau
            # increases in t and the tail decreases; on each later plateau
            # t^(a-1) (A + v t) has its one critical point at a minimum, so
            # the sup is at a break
            norm = float(np.max(breaks[1:] ** (a - 1.0) * cum[1:]))
        else:
            alpha = pf * a  # the dt-exponent is alpha - 1
            acc = breaks[1] ** alpha / alpha  # f*/M is 1 on the first plateau
            if len(heights) > 1:
                # f** = v + A/t on the plateau [t0, t1] of height v, so
                # f**/M = v/M + (A/M)/t; the helpers divide v as they go
                A = cum[1:-1] - breaks[1:-1] * heights[1:]
                A /= top
                v = heights[1:]
                if Fraction(p).denominator == 1 and p <= BINOMIAL_MAX_Q:
                    acc += _binomial_plateaus(breaks[1:], A, v, top, int(p), Fraction(p) / Fraction(P))
                else:
                    acc += _quadrature_plateaus(breaks[1:], A, v, top, pf, alpha)
            # tail: f** = total/t for t > s0; converges since alpha < p for
            # P > 1; total/(M s0) <= 1 is the mean of f/M on the support
            acc += (cum[-1] / (top * s0)) ** pf * s0**alpha / (pf - alpha)
            norm = top * float(acc ** (1.0 / pf))
    if not 0.0 < norm < math.inf:
        raise NormRangeError(
            f"Lorentz norm of Lor:{format_index(P)},{format_index(p)} is {norm}, not a positive finite float"
        )
    return norm


def _binomial_plateaus(t, A, v, top: float, q: int, alpha: Fraction) -> float:
    """The sum over the plateaus [t[i], t[i+1]] of int t^(alpha-1) (v/top + A/t)^q dt.

    Expanded, the integrand is sum_i C(q,i) A^i (v/top)^(q-i) t^(b-1) with
    b = alpha - i, whose integral is (t1^b - t0^b)/b, or log(t1/t0) where
    b = 0.  Every term is nonnegative, so none cancels another.  Each power
    of the breaks is taken once and differenced, and the terms are summed
    by Horner's rule in A from i = q down, so every temporary is
    plateau-sized; v is divided by ``top`` as its powers are taken, with no
    copy.
    """
    # alpha is exact, so b = 0 is found exactly: a b that only rounds to
    # near 0 would turn (t1^b - t0^b)/b into rounding noise
    log_term = alpha.numerator if alpha.denominator == 1 else -1
    acc = np.zeros_like(A)
    v_pow = np.ones_like(v)  # (v/top)^(q-i)
    for i in range(q, -1, -1):
        coef = float(math.comb(q, i))
        if i == log_term:
            term = np.diff(np.log(t))
        else:
            b = float(alpha - i)
            term = np.diff(t**b)
            coef /= b
        term *= coef
        term *= v_pow
        acc *= A
        acc += term
        v_pow *= v  # at most top, as v_pow <= 1 and v <= top
        v_pow /= top
    return float(np.sum(acc))


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], computed on
    first use: numpy.polynomial is not imported until a quadrature runs."""
    return np.polynomial.legendre.leggauss(16)


def _quadrature_plateaus(t, A, v, top: float, pf: float, alpha: float) -> float:
    """The same sum for any q: int t^alpha (v/top + A/t)^q d(log t) by 16-point
    Gauss-Legendre in log t, which moves the pole of A/t at t = 0 out to
    -inf, on equal pieces in log t no wider than a factor 2 in t, across
    which t^alpha stays in one rule's reach.  Every t is a break after the
    first plateau, so log t is finite."""
    s = np.log(t)
    half = np.diff(s)
    pieces = np.ceil(half / math.log(2.0))
    half /= 2.0 * pieces
    s0 = s[:-1]
    acc = 0.0
    # piece j of every plateau that has one, a node at a time, so every
    # temporary is plateau-sized
    for j in range(int(np.max(pieces, initial=0))):
        if j:
            on = pieces > j
            s0, half, A, v, pieces = s0[on], half[on], A[on], v[on], pieces[on]
        mid = s0 + (2 * j + 1) * half
        for x, w in zip(*_gauss_legendre()):
            ts = np.exp(mid + half * x)
            acc += w * float(np.sum(half * ts**alpha * (A / ts + v / top) ** pf))
    return acc


def modular(young, f: CellField, scale: float = 1.0) -> float:
    """rho_phi(f/scale) = sum phi(|v|/scale) * measure.

    The sum is linear, and only where it overflows (a value of phi, or the
    sum) is it taken again as a log-sum-exp of ``young._log_phi``, so a
    modular in the floats whose terms are not, such as exp(800) * 1e-300,
    is returned; one outside the floats is a ModularRangeError.
    """
    v = f.positive()
    if v.size == 0:
        return 0.0
    try:
        with np.errstate(over="ignore"):  # an overflow is redone below, with no warning first
            rho = float(np.sum(young(v / scale)) * f.cell_measure)
        if not math.isinf(rho):
            return rho
    except OverflowError:
        pass
    log_phi = young._log_phi(np.log(v) - math.log(scale))[0]
    log_rho = float(np.max(log_phi))
    if log_rho < math.inf:
        log_rho += math.log(float(np.sum(np.exp(log_phi - log_rho)))) + math.log(f.cell_measure)
    with np.errstate(over="ignore"):
        rho = float(np.exp(log_rho))
    if rho < math.inf:
        return rho
    raise ModularRangeError(
        f"modular overflowed at scale {scale}: the sum is not finite, log rho = {log_rho!r}",
        argument=float(np.max(v)) / scale,
    )


def luxemburg_norm(f: CellField, young) -> float:
    """The Luxemburg functional inf{lambda > 0 : rho(f/lambda) <= 1} of a
    YoungFunction ``young``.

    x = -log lambda solves log sum mu phi(|f| e^x) = 0, by one Newton loop
    (``_log_modular_root``) on the cell levels z = log phi(|f| e^x): the
    sum is a log-sum-exp of the levels, so no value leaves the floats.
    Where log phi is closed form (``young._log_phi``: exp, powlog, pow) the
    levels follow x.  A combined function's levels are unknowns of the same
    loop, solved against its closed-form log-inverse (``young._log_inverse``)
    with no inner solve.  x starts at the root for a field constant on its
    support, log phi^{-1}(1/|supp f|) - log max|f|, one step from the answer
    for a power; there every top cell's level is -log |supp f|, and a
    combined function's other levels start on the tangent of log phi at
    the top cells, z = top + (log|f| - log max|f|) / L'(top), with the
    slope L' of the log-inverse that gave x its start.  The result
    e^-x is nudged up by LUXEMBURG_REL_TOL/100, so that rho(f/result) <= 1;
    one outside the normal floats is a NormRangeError.
    """
    v = f.positive()
    if v.size == 0:
        return 0.0
    log_v = np.log(v)
    log_mu = math.log(f.cell_measure)
    log_top = float(np.max(log_v))
    top_level = -math.log(v.size) - log_mu
    log_t, dlog_t = young._log_inverse(np.array([top_level]))
    x = float(log_t[0]) - log_top

    if young.kind == "combined":
        z = top_level + (log_v - log_top) / float(dlog_t[0])

        def levels(x, z):
            log_t, dlog_t = young._log_inverse(z)
            if not dlog_t.min() > 0.0:
                raise YoungInversionError(f"Orl:{young.describe()} has a log-inverse slope that is not positive")
            return z, 1.0 / dlog_t, (log_t - log_v) - x

    else:
        z = None

        def levels(x, z):
            return (*young._log_phi(log_v + x), None)

    x = _log_modular_root(levels, log_v, log_mu, x, z)
    with np.errstate(over="ignore"):
        norm = float(np.exp(-x)) * (1.0 + 0.01 * LUXEMBURG_REL_TOL)
    if not np.finfo(float).tiny <= norm < math.inf:
        raise NormRangeError(f"Luxemburg norm of Orl:{young.describe()}, exp({-x}), is outside the normal floats")
    return norm


def _log_modular_root(levels, log_v, log_mu: float, x: float, z):
    """The root in x of R = log sum_k mu e^(z_k) = 0, where z_k is the level
    log phi(|f_k| e^x) of a cell with log|f_k| = ``log_v[k]``: Newton's
    method, in Python floats for the scalar x.

    ``levels(x, z)`` returns the levels, their elasticities e_k =
    d log phi / d log t and residuals r_k.  Where the levels are exact
    (r is None), R is log rho at x and increasing, and each step is a
    bracketed Newton step on it: a step that leaves the bracket is replaced
    by its midpoint, or by a step of 2 towards the root while that side is
    open.  Otherwise the levels are unknowns too, with r_k = L(z_k) -
    log|f_k| - x for the log-inverse L, and one Newton step on the coupled
    system moves both: with p = softmax(z), dx = (sum p e r - R) / sum p e
    and dz_k = (dx - r_k) e_k.  The loop ends when |dx| <= NEWTON_REL_TOL*
    max(1, |x|) and every level's step, in its log-argument, |dz_k| / e_k,
    is within NEWTON_REL_TOL*max(1, |x|, |log|f_k||), the rounding scale
    of r_k; or, for exact levels, when R is 0 or the bracket is that
    narrow.  A slope sum p e that is not positive and finite, or a loop not
    done in NEWTON_MAX_STEPS evaluations, raises YoungInversionError.
    """
    lo, hi = -math.inf, math.inf
    # an overflow or a NaN ends in a slope that is not finite, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            z, e, r = levels(x, z)
            top = float(z.max())
            w = np.exp(z - top)
            total = float(w.sum())
            log_rho = top + math.log(total) + log_mu
            slope = float(np.dot(w, e)) / total
            if not 0.0 < slope < math.inf:
                raise YoungInversionError(f"the log-modular slope is {slope}, not positive and finite")
            tol = NEWTON_REL_TOL * max(1.0, abs(x))
            if r is None:
                if log_rho < 0.0:
                    lo = x
                elif log_rho > 0.0:
                    hi = x
                step = -log_rho / slope
                if log_rho == 0.0 or abs(step) <= tol:
                    return x + step
                x_new = x + step
                if not lo < x_new < hi:
                    x_new = 0.5 * (lo + hi) if math.isfinite(lo + hi) else x - math.copysign(2.0, log_rho)
                if hi - lo <= tol:
                    return x_new
                x = x_new
            else:
                w *= e
                step = (float(np.dot(w, r)) / total - log_rho) / slope
                move = step - r  # each level's step in its log-argument
                if abs(step) <= tol:
                    scale = np.maximum(np.abs(log_v), max(1.0, abs(x)))
                    if np.all(np.abs(move) <= NEWTON_REL_TOL * scale):
                        return x + step
                x += step
                z = z + move * e
    raise YoungInversionError(f"the Luxemburg norm's Newton loop did not converge in {NEWTON_MAX_STEPS} steps")


def space_norm(space: SpaceDescriptor, f: CellField) -> float:
    if space.kind == "lebesgue":
        return lebesgue_norm(f, space.primary)
    if space.kind == "lorentz":
        return lorentz_norm(f, space.primary, space.secondary)
    if space.young.kind == "pow":  # the Luxemburg functional of t^p is the L^p norm
        return lebesgue_norm(f, space.young.params[0])
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
