"""Norm evaluation for the supported space descriptors.

Every norm reads a CellField, which holds |f| and the measure of its
cells, and is evaluated in closed form wherever one exists.  Lebesgue
norms are cell sums, taken scale-free as M (sum (|f|/M)^p mu)^(1/p) with
M = max|f|, so no p-th power overflows or underflows wholesale.  An
Orlicz space of a power, ``Orl:pow:p``, is L^p: the Luxemburg functional
of t^p is the L^p norm (Rao-Ren, Theory of Orlicz Spaces, 1991), so it is
evaluated as one.  Lorentz norms integrate t^(q/P - 1) f**(t)^q
piecewise: the first plateau and the tail beyond the support measure have
closed forms, and on each interior plateau f** = v + A/t (Bennett-
Sharpley, Interpolation of Operators, ch. 2), so for an integer q the
plateau integral is a finite binomial sum; for any other q, fixed-order
Gauss-Legendre in log t, on pieces no wider than a factor 2, is
essentially exact there.  Every other Orlicz norm is a Luxemburg
functional, found by one Newton solve in log lambda on the Young
function's log-domain pair (log phi(e^x), its slope), with the kernel
that inverts Young functions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import ModularRangeError, NormRangeError
from .rearrangement import CellField
from .spaces import INF, SpaceDescriptor, _newton, index_float

# the binomial plateau sum takes q + 1 passes over the plateaus against the
# quadrature's 16, so it serves every integer q up to 15
BINOMIAL_MAX_Q = 15

LUXEMBURG_REL_TOL = 1e-8


def lebesgue_norm(f: CellField, p) -> float:
    """(int |f|^p)^(1/p) as M (sum (|f|/M)^p mu)^(1/p), M = max|f|; max|f| for p = inf."""
    v = f.values
    top = float(np.max(v)) if v.size else 0.0
    pf = index_float(p)
    if top == 0.0 or math.isinf(pf):
        return top
    w = v / top
    w **= pf
    return top * float(np.sum(w) * f.cell_measure) ** (1.0 / pf)


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
        # f** = v + A/t on the plateau [t0, t1] of height v
        A = cum[1:-1] - breaks[1:-1] * heights[1:]
        v = heights[1:]
        if Fraction(p).denominator == 1 and p <= BINOMIAL_MAX_Q:
            acc += _binomial_plateaus(breaks[1:], A, v, int(p), Fraction(p) / Fraction(P))
        else:
            acc += _quadrature_plateaus(breaks[1:], A, v, pf, alpha)
    # tail: f** = total/t for t > s0; converges since alpha < p for P > 1
    acc += total**pf * s0 ** (alpha - pf) / (pf - alpha)
    return float(acc ** (1.0 / pf))


def _binomial_plateaus(t, A, v, q: int, alpha: Fraction) -> float:
    """The sum over the plateaus [t[i], t[i+1]] of int t^(alpha-1) (v + A/t)^q dt.

    Expanded, the integrand is sum_i C(q,i) A^i v^(q-i) t^(b-1) with b =
    alpha - i, whose integral is (t1^b - t0^b)/b, or log(t1/t0) where b = 0.
    Every term is nonnegative, so none cancels another.  Each power of the
    breaks is taken once and differenced, and the terms are summed by
    Horner's rule in A from i = q down, so every temporary is
    plateau-sized.
    """
    # alpha is exact, so b = 0 is found exactly: a b that only rounds to
    # near 0 would turn (t1^b - t0^b)/b into rounding noise
    log_term = alpha.numerator if alpha.denominator == 1 else -1
    acc = np.zeros_like(A)
    v_pow = np.ones_like(v)  # v^(q-i)
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
        v_pow *= v
    return float(np.sum(acc))


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], computed on
    first use: numpy.polynomial is not imported until a quadrature runs."""
    return np.polynomial.legendre.leggauss(16)


def _quadrature_plateaus(t, A, v, pf: float, alpha: float) -> float:
    """The same sum for any q: int t^alpha (v + A/t)^q d(log t) by 16-point
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
            acc += w * float(np.sum(half * ts**alpha * (A / ts + v) ** pf))
    return acc


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
    """The Luxemburg functional inf{lambda > 0 : rho(f/lambda) <= 1} of a
    YoungFunction ``young``.

    x = -log lambda solves log sum mu phi(|f| e^x) = 0, one Newton solve
    (``spaces._newton``) on ``young._log_phi``: the sum is a log-sum-exp and
    its slope the phi-weighted mean elasticity, so no value leaves the
    floats.  It starts at the root for a field constant on its support,
    log phi^{-1}(1/|supp f|) - log max|f|, one step from the answer for a
    power.  The result e^-x is nudged up by LUXEMBURG_REL_TOL/100, so that
    rho(f/result) <= 1; one outside the normal floats is a NormRangeError.
    """
    v = f.positive()
    if v.size == 0:
        return 0.0
    young.validate()
    log_v = np.log(v)
    log_mu = math.log(f.cell_measure)
    start = young._log_inverse(np.array([-math.log(v.size) - log_mu]))[0] - np.max(log_v)

    def log_modular(x):
        log_phi, elasticity = young._log_phi(log_v + x[0])
        top = np.max(log_phi)
        w = np.exp(log_phi - top)
        total = np.sum(w)
        return np.array([top + math.log(total) + log_mu]), np.array([np.dot(w, elasticity) / total])

    (x,), _ = _newton(log_modular, np.zeros(1), start)
    with np.errstate(over="ignore"):
        norm = float(np.exp(-x)) * (1.0 + 0.01 * LUXEMBURG_REL_TOL)
    if not np.finfo(float).tiny <= norm < math.inf:
        raise NormRangeError(f"Luxemburg norm of Orl:{young.describe()}, exp({-x}), is outside the normal floats")
    return norm


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
