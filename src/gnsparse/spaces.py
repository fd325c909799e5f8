"""Function-space descriptors and their interpolation-type combination.

Three kinds are supported, written in a compact text form:

  ``L:p``            Lebesgue, p in [1, inf]
  ``Lor:P,p``        Lorentz with primary index P in (1, inf), secondary
                     p in [1, inf]; L^{1,1} and L^{inf,inf} normalize to
                     the matching Lebesgue space
  ``Orl:pow:p``      Orlicz with Young function t^p
  ``Orl:powlog:p,a`` Orlicz with t^p * log(e + t)^a
  ``Orl:exp``        Orlicz with e^t - 1

Indices are exact rationals (``3/2``) or ``inf``.  Combination follows the
Calderon product rule: harmonic combination of indices for Lebesgue and
Lorentz, and the inverse-factor product for Orlicz, where the combined
Young function psi satisfies psi^{-1} = (phi_X^{-1})^theta (phi_Y^{-1})^{1-theta}.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import AdmissibilityError, YoungInversionError

INF = Fraction(-1)  # sentinel; never a legal index value itself


def parse_index(text: str) -> Fraction:
    text = text.strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise AdmissibilityError(f"bad index {text!r}: {exc}") from None
    if value < 1:
        raise AdmissibilityError(f"index {text} is below 1")
    return value


def format_index(value: Fraction) -> str:
    if value == INF:
        return "inf"
    return str(value)


def index_reciprocal(value: Fraction) -> Fraction:
    return Fraction(0) if value == INF else 1 / value


def index_from_reciprocal(r: Fraction) -> Fraction:
    return INF if r == 0 else 1 / r


def harmonic_combine(p: Fraction, q: Fraction, theta: Fraction) -> Fraction:
    """1/r = theta/p + (1-theta)/q, exactly, with inf <-> reciprocal 0."""
    return index_from_reciprocal(theta * index_reciprocal(p) + (1 - theta) * index_reciprocal(q))


def index_float(value: Fraction) -> float:
    return math.inf if value == INF else float(value)


NEWTON_REL_TOL = 1e-13
NEWTON_MAX_STEPS = 100


def _newton(fn, targets, start):
    """Solve fn(x) = y for every target y of a 1-D array, all targets at once.

    ``fn`` maps a 1-D array x to (value, derivative) elementwise and must be
    increasing.  Each target keeps a bracket (lo, hi), open at first, that
    every evaluation tightens.  A target is done when its Newton step is at
    most NEWTON_REL_TOL*max(1, |x|), when fn hits it exactly, or when its
    bracket is that narrow.  Otherwise a Newton step that leaves the bracket
    (or a derivative that is not positive) is replaced by the bracket's
    midpoint, or by a step of 2 towards the target while that side is
    open.  Infinite targets give infinite answers.  A NaN target, or a
    target not met within NEWTON_MAX_STEPS evaluations, raises
    YoungInversionError.
    """
    y = np.asarray(targets, dtype=float)
    if np.any(np.isnan(y)):
        raise YoungInversionError("cannot invert a Young function at NaN")
    out = np.where(np.isinf(y), y, start)
    lo = np.full_like(y, -math.inf)
    hi = np.full_like(y, math.inf)
    active = np.flatnonzero(np.isfinite(y))
    for _ in range(NEWTON_MAX_STEPS):
        if active.size == 0:
            return out
        x = out[active]
        value, slope = fn(x)
        r = value - y[active]
        lo_a = np.where(r < 0.0, x, lo[active])
        hi_a = np.where(r > 0.0, x, hi[active])
        step = np.zeros_like(r)
        with np.errstate(over="ignore"):
            np.divide(-r, slope, out=step, where=slope > 0.0)
        x_new = x + step
        tol = NEWTON_REL_TOL * np.maximum(1.0, np.abs(x))
        converged = (r == 0.0) | ((slope > 0.0) & (np.abs(step) <= tol))
        fallback = ~converged & ~((slope > 0.0) & (lo_a < x_new) & (x_new < hi_a))
        closed = fallback & np.isfinite(lo_a) & np.isfinite(hi_a)
        x_new[fallback] = x[fallback] - 2.0 * np.sign(r[fallback])
        x_new[closed] = 0.5 * (lo_a[closed] + hi_a[closed])
        out[active] = x_new
        lo[active] = lo_a
        hi[active] = hi_a
        active = active[~(converged | (hi_a - lo_a <= tol))]
    raise YoungInversionError(f"Young-function inversion did not converge in {NEWTON_MAX_STEPS} steps")


class YoungFunction:
    """A Young function with a usable inverse.

    ``kind`` is one of pow/powlog/exp/combined.  The ``powlog`` inverse and
    the forward value of a combined function are found by Newton's method
    (``_newton``) on the log-domain inverse ``_log_inverse``; everything
    else is closed form.
    """

    def __init__(self, kind, params=(), factors=None, theta=None):
        self.kind = kind
        self.params = tuple(params)
        self.factors = factors
        self.theta = theta
        if kind == "pow":
            (p,) = params
            if p == INF or p < 1:
                raise AdmissibilityError(f"power Young function needs finite p >= 1, got {format_index(p)}")
            self._p = float(p)
        elif kind == "powlog":
            p, a = params
            if p == INF or p < 1:
                raise AdmissibilityError("power-log Young function needs finite p >= 1")
            if p == 1 and a < 0:
                raise AdmissibilityError("power-log with p = 1 needs a >= 0 for convexity")
            self._p, self._a = float(p), float(a)
        elif kind == "exp":
            pass
        elif kind == "combined":
            if factors is None or theta is None:
                raise AdmissibilityError("combined Young function needs factors and theta")
            self._theta = float(theta)
        else:
            raise AdmissibilityError(f"unknown Young function kind {kind!r}")
        self._validate()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("Young functions take nonnegative arguments")
        if self.kind == "pow":
            out = t**self._p
        elif self.kind == "powlog":
            out = t**self._p * np.log(math.e + t) ** self._a
        elif self.kind == "exp":
            with np.errstate(over="raise"):
                try:
                    out = np.expm1(t)
                except FloatingPointError:
                    raise OverflowError(f"exp Young function overflowed at t = {np.max(t)}")
        else:
            # psi(t) = e^x where log psi^{-1}(e^x) = log t; values below the
            # smallest float underflow to 0
            out = np.zeros_like(t)
            nonzero = t != 0.0
            log_t = np.log(t[nonzero])
            with np.errstate(over="ignore"):
                out[nonzero] = np.exp(_newton(self._log_inverse, log_t, log_t))
        out = np.asarray(out)
        if np.any(np.isinf(out)):
            raise OverflowError("Young function overflowed")
        return out if out.shape else float(out)

    def inverse(self, s):
        """The generalized inverse phi^{-1}(s) = sup{t : phi(t) <= s}."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise ValueError("inverse takes nonnegative arguments")
        if self.kind == "pow":
            out = s ** (1.0 / self._p)
        elif self.kind == "exp":
            out = np.log1p(s)
        elif self.kind == "combined":
            th = self._theta
            out = np.asarray(self.factors[0].inverse(s)) ** th * np.asarray(self.factors[1].inverse(s)) ** (1.0 - th)
        else:
            out = s.copy()
            solve = (s != 0.0) & (s != math.inf)
            out[solve] = np.exp(self._log_inverse(np.log(s[solve]))[0])
        out = np.asarray(out)
        return out if out.shape else float(out)

    def _log_inverse(self, y):
        """log phi^{-1}(e^y) and its derivative in y, for a 1-D array y."""
        if self.kind == "pow":
            return y / self._p, np.full_like(y, 1.0 / self._p)
        if self.kind == "exp":
            # log log(1 + e^y); below y = -40 it equals y to within 1e-17
            out, slope = y.copy(), np.ones_like(y)
            big = y >= -40.0
            la = np.logaddexp(0.0, y[big])
            out[big] = np.log(la)
            slope[big] = np.exp(y[big] - la) / la
            return out, slope
        if self.kind == "powlog":
            # x = log t solves p x + a log log(e + e^x) = y
            p, a = self._p, self._a

            def log_phi(x):
                lx = np.logaddexp(1.0, x)
                return p * x + a * np.log(lx), p + a * np.exp(x - lx) / lx

            x = _newton(log_phi, y, y / p)
            return x, 1.0 / log_phi(x)[1]
        th = self._theta
        out_a, slope_a = self.factors[0]._log_inverse(y)
        out_b, slope_b = self.factors[1]._log_inverse(y)
        return th * out_a + (1.0 - th) * out_b, th * slope_a + (1.0 - th) * slope_b

    def _validate(self, samples=40):
        # midpoint convexity plus inverse consistency on a log grid
        ts = np.logspace(-3, 2, samples)
        vals = self(ts)
        if np.any(np.diff(vals) <= 0.0):
            raise AdmissibilityError(f"Young function {self.describe()} is not increasing")
        mid = self(0.5 * (ts[:-1] + ts[1:]))
        if np.any(mid > 0.5 * (vals[:-1] + vals[1:]) * (1.0 + 1e-9)):
            raise AdmissibilityError(f"Young function {self.describe()} fails midpoint convexity")
        back = self.inverse(vals)
        if np.max(np.abs(back - ts) / ts) > 1e-6:
            raise AdmissibilityError(f"Young function {self.describe()} inverse is inconsistent")

    def describe(self) -> str:
        if self.kind == "pow":
            return f"pow:{format_index(self.params[0])}"
        if self.kind == "powlog":
            return f"powlog:{format_index(self.params[0])},{self.params[1]}"
        if self.kind == "exp":
            return "exp"
        return f"combined({self.factors[0].describe()},{self.factors[1].describe()};{self.theta})"


class SpaceDescriptor:
    """One function space: kind plus exact rational indices or a Young function."""

    __slots__ = ("kind", "primary", "secondary", "young")

    def __init__(self, kind, primary=None, secondary=None, young=None):
        if kind == "lebesgue":
            if primary is None or not (primary == INF or primary >= 1):
                raise AdmissibilityError("Lebesgue index must be in [1, inf]")
        elif kind == "lorentz":
            if primary is None or secondary is None:
                raise AdmissibilityError("Lorentz spaces need two indices")
            if primary == INF or primary <= 1:
                raise AdmissibilityError(
                    f"Lorentz primary index must be in (1, inf), got {format_index(primary)}; "
                    "the (1,1) and (inf,inf) cases are the matching Lebesgue spaces"
                )
            if not (secondary == INF or secondary >= 1):
                raise AdmissibilityError("Lorentz secondary index must be in [1, inf]")
        elif kind == "orlicz":
            if young is None:
                raise AdmissibilityError("Orlicz spaces need a Young function")
        else:
            raise AdmissibilityError(f"unknown space kind {kind!r}")
        self.kind = kind
        self.primary = primary
        self.secondary = secondary
        self.young = young

    @classmethod
    def parse(cls, text: str) -> "SpaceDescriptor":
        text = text.strip()
        head, _, rest = text.partition(":")
        if head == "L":
            return cls("lebesgue", primary=parse_index(rest))
        if head == "Lor":
            parts = rest.split(",")
            if len(parts) != 2:
                raise AdmissibilityError(f"Lorentz descriptor needs two indices: {text!r}")
            P, p = parse_index(parts[0]), parse_index(parts[1])
            # the admissible edge cases collapse to Lebesgue spaces
            if P == Fraction(1) and p == Fraction(1):
                return cls("lebesgue", primary=Fraction(1))
            if P == INF and p == INF:
                return cls("lebesgue", primary=INF)
            return cls("lorentz", primary=P, secondary=p)
        if head == "Orl":
            sub, _, params = rest.partition(":")
            if sub == "pow":
                return cls("orlicz", young=YoungFunction("pow", (parse_index(params),)))
            if sub == "powlog":
                parts = params.split(",")
                if len(parts) != 2:
                    raise AdmissibilityError(f"power-log descriptor needs p,a: {text!r}")
                return cls(
                    "orlicz",
                    young=YoungFunction("powlog", (parse_index(parts[0]), Fraction(parts[1]))),
                )
            if sub == "exp":
                return cls("orlicz", young=YoungFunction("exp"))
            raise AdmissibilityError(f"unknown Orlicz form {sub!r} in {text!r}")
        raise AdmissibilityError(f"unknown space descriptor {text!r}")

    def format(self) -> str:
        if self.kind == "lebesgue":
            return f"L:{format_index(self.primary)}"
        if self.kind == "lorentz":
            return f"Lor:{format_index(self.primary)},{format_index(self.secondary)}"
        return f"Orl:{self.young.describe()}"

    def __repr__(self):
        return f"SpaceDescriptor({self.format()!r})"

    def __eq__(self, other):
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "lebesgue":
            return self.primary == other.primary
        if self.kind == "lorentz":
            return self.primary == other.primary and self.secondary == other.secondary
        return young_equal(self.young, other.young)

    def __hash__(self):
        if self.kind == "orlicz":
            return hash(("orlicz", self.young.describe()))
        return hash((self.kind, self.primary, self.secondary))


def young_equal(a: YoungFunction, b: YoungFunction, rel_tol: float = 1e-9) -> bool:
    """Equality of Young functions through their inverses on a log grid."""
    ss = np.logspace(-6.0, 6.0, 49)
    va = a.inverse(ss)
    vb = b.inverse(ss)
    return bool(np.all(np.abs(va - vb) <= rel_tol * np.maximum(va, vb)))


def cl_combine(x: SpaceDescriptor, y: SpaceDescriptor, theta: Fraction) -> SpaceDescriptor:
    """The space Z with Z = X^theta Y^(1-theta) in the Calderon product sense.

    Only like kinds combine; mixing kinds raises AdmissibilityError.  Two
    Orlicz spaces whose Young functions have the same ``describe()`` string
    give X itself, by the identity X^theta X^(1-theta) = X; no combined
    Young function is built for them.
    """
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise AdmissibilityError(f"combination weight must be in [0, 1], got {theta}")
    if x.kind != y.kind:
        raise AdmissibilityError(f"cannot combine {x.format()} with {y.format()}: different kinds")
    if x.kind == "lebesgue":
        return SpaceDescriptor("lebesgue", primary=harmonic_combine(x.primary, y.primary, theta))
    if x.kind == "lorentz":
        # primaries in (1, inf) combine to a primary in (1, inf)
        P = harmonic_combine(x.primary, y.primary, theta)
        p = harmonic_combine(x.secondary, y.secondary, theta)
        return SpaceDescriptor("lorentz", primary=P, secondary=p)
    ya, yb = x.young, y.young
    if ya.describe() == yb.describe():
        return x
    if ya.kind == "pow" and yb.kind == "pow":
        # (s^(1/p))^theta (s^(1/q))^(1-theta) = s^(1/r) with harmonic r
        return SpaceDescriptor(
            "orlicz", young=YoungFunction("pow", (harmonic_combine(ya.params[0], yb.params[0], theta),))
        )
    if theta == 0:
        return SpaceDescriptor("orlicz", young=yb)
    if theta == 1:
        return SpaceDescriptor("orlicz", young=ya)
    return SpaceDescriptor("orlicz", young=YoungFunction("combined", factors=(ya, yb), theta=theta))
