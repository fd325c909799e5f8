"""Function-space descriptors and their interpolation-type combination.

Three kinds are supported, written in a compact text form:

  ``L:p``            Lebesgue, p in [1, inf]
  ``Lor:P,p``        Lorentz with primary index P in (1, inf), secondary
                     p in [1, inf]; L^{1,1} and L^{inf,inf} normalize to
                     the matching Lebesgue space
  ``Orl:pow:p``      Orlicz with Young function t^p
  ``Orl:powlog:p,a`` Orlicz with t^p * log(e + t)^a; a = 0 normalizes to
                     ``Orl:pow:p``
  ``Orl:exp``        Orlicz with e^t - 1

Indices are exact rationals (``3/2``) within the floats, or ``inf``.
Combination follows the Calderon product rule: harmonic combination of
indices for Lebesgue and Lorentz, and the inverse-factor product for
Orlicz, where the combined Young function psi satisfies
psi^{-1} = (phi_X^{-1})^theta (phi_Y^{-1})^{1-theta}.
A combined function is kept as a flat product of non-combined leaves with
exact weights; cl_combine builds each distinct product once, and, a
product of Young functions being one, never checks it numerically.  Two
descriptors are equal when their kinds, indices and Young-function keys
are, exactly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .errors import AdmissibilityError, YoungInversionError

INF = Fraction(-1)  # sentinel; never a legal index value itself


DECIMAL_EXPONENT_LIMIT = 1000  # no float needs a decimal exponent beyond this in magnitude


def parse_rational(text: str, what: str) -> Fraction:
    """The exact rational written ``text``, or an AdmissibilityError naming
    ``what`` when it does not parse or lies beyond the largest float, where
    no norm can read it.  A decimal exponent beyond DECIMAL_EXPONENT_LIMIT
    is refused first: Fraction would expand it into an exact integer."""
    exponent = re.search(r"[eE][-+]?0*(\d+)\s*\Z", text.replace("_", ""))
    if exponent and (
        len(exponent[1]) > len(str(DECIMAL_EXPONENT_LIMIT)) or int(exponent[1]) > DECIMAL_EXPONENT_LIMIT
    ):
        raise AdmissibilityError(f"{what} {text} has a decimal exponent beyond {DECIMAL_EXPONENT_LIMIT} in magnitude")
    try:
        value = Fraction(text)
        float(value)
    except OverflowError:
        raise AdmissibilityError(f"{what} {text} lies beyond the largest float") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise AdmissibilityError(f"bad {what} {text!r}: {exc}") from None
    return value


def parse_index(text: str) -> Fraction:
    text = text.strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    value = parse_rational(text, "index")
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
    increasing.  Returns the solutions and the derivative of fn at each
    one's last evaluation (NaN for an infinite target, which is never
    evaluated).  Each target keeps a bracket (lo, hi), open at first, that
    every evaluation tightens.  A target is done when its Newton step is at
    most NEWTON_REL_TOL*max(1, |x|), when fn hits it exactly, or when its
    bracket is that narrow.  Otherwise a Newton step that leaves the bracket
    (or a derivative that is not positive) is replaced by the bracket's
    midpoint, or by a step of 2 towards the target while that side is
    open.  Once the bracket is closed, a Newton step longer than half the
    step before it is replaced by the midpoint too (the rule of rtsafe,
    Numerical Recipes, 9.4): where the function's elasticity bends, Newton
    can bounce inside the bracket without shrinking it.  Infinite targets
    give infinite answers.  A NaN target, or a target not met within
    NEWTON_MAX_STEPS evaluations, raises YoungInversionError.

    Each step evaluates ``fn`` on the unfinished targets only, and no
    target's iterates depend on another's, so a batch gives bit for bit
    what separate calls on its parts give.
    """
    y = np.asarray(targets, dtype=float)
    if np.any(np.isnan(y)):
        raise YoungInversionError("cannot invert a Young function at NaN")
    out = np.where(np.isinf(y), y, start)
    out_slope = np.full_like(out, math.nan)
    # the targets still active: their places in out, targets, iterates, brackets
    active = np.flatnonzero(np.isfinite(y))
    y, x = y[active], out[active]
    lo = np.full_like(y, -math.inf)
    hi = np.full_like(y, math.inf)
    last = np.full_like(y, math.inf)  # each target's previous step
    for _ in range(NEWTON_MAX_STEPS):
        if active.size == 0:
            return out, out_slope
        value, slope = fn(x)
        r = value - y
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        rising = slope > 0.0
        step = np.zeros_like(r)
        with np.errstate(over="ignore"):
            np.divide(-r, slope, out=step, where=rising)
        x_new = x + step
        tol = NEWTON_REL_TOL * np.maximum(1.0, np.abs(x))
        converged = (r == 0.0) | (rising & (np.abs(step) <= tol))
        closed = np.isfinite(lo) & np.isfinite(hi)
        slow = closed & (np.abs(step) > 0.5 * np.abs(last))
        fallback = ~converged & (slow | ~(rising & (lo < x_new) & (x_new < hi)))
        if fallback.any():
            closed &= fallback
            x_new[fallback] = x[fallback] - 2.0 * np.sign(r[fallback])
            x_new[closed] = 0.5 * (lo[closed] + hi[closed])
        out[active] = x_new
        out_slope[active] = slope
        keep = ~(converged | (hi - lo <= tol))
        last = x_new - x
        active, y, x, lo, hi, last = active[keep], y[keep], x_new[keep], lo[keep], hi[keep], last[keep]
    raise YoungInversionError(f"Young-function inversion did not converge in {NEWTON_MAX_STEPS} steps")


def _leaves_of(young: "YoungFunction", weight: Fraction):
    """The leaves of young^weight with their exact weights: a combined
    function's own leaves, each weight scaled by ``weight``, since
    (X^a Y^(1-a))^b = X^(ab) Y^((1-a)b) (Lozanovskii; Maligranda, Orlicz
    Spaces and Interpolation, 1989); any other function is its own leaf."""
    if young.kind == "combined":
        return tuple((leaf, weight * w) for leaf, w in young.leaves)
    return ((young, weight),)


def _product_leaves(a: "YoungFunction", b: "YoungFunction", theta: Fraction):
    """The flat form of a^theta b^(1-theta): (leaf, exact weight) pairs, in
    the order of first appearance, one per leaf ``key``, with the weights
    summing to 1."""
    merged = {}
    for leaf, w in _leaves_of(a, theta) + _leaves_of(b, 1 - theta):
        merged.setdefault(leaf.key, [leaf, 0])[1] += w
    return tuple((leaf, w) for leaf, w in merged.values())


class YoungFunction:
    """A Young function with a usable inverse.

    ``kind`` is one of pow/powlog/exp/combined.  A combined function is
    kept flat: ``leaves`` holds (leaf, exact Fraction weight) pairs of
    non-combined functions, weights summing to 1, with psi^{-1} the
    weighted product of the leaf inverses; a combined factor given to the
    constructor is expanded into its leaves.  ``key`` is the function's
    exact identity: ``(kind, *params)`` for a leaf, and for a product its
    leaves and weights, unordered.  Each function has the
    log-domain pair ``_log_phi(x)`` = (log phi(e^x), d log phi / d log t)
    and ``_log_inverse(y)`` = (log phi^{-1}(e^y), its slope).  The
    ``powlog`` inverse and the combined forward value are Newton solves
    (``_newton``) of the other, the rest closed form, and every value is
    exp of its log but the faster t^p and e^t - 1.  Only a ``powlog``
    function is validated on a grid (``_validate``), when it is built: its
    parameters come from outside the program.  t^p (p >= 1) and e^t - 1
    are Young functions in closed form, and a combined function is one by
    the theorem ``cl_combine`` cites.
    """

    def __init__(self, kind, params=(), factors=None, theta=None):
        self.kind = kind
        self.params = tuple(params)
        self.key = (kind, *self.params)
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
            self._validate()  # its parameters come from outside the program
        elif kind == "exp":
            pass
        elif kind == "combined":
            if factors is None or theta is None:
                raise AdmissibilityError("combined Young function needs factors and theta")
            self.leaves = _product_leaves(*factors, Fraction(theta))
            # float weights: the last is 1 minus the others, as a two-leaf
            # product theta, 1 - theta has always been evaluated
            head = [float(w) for _, w in self.leaves[:-1]]
            self._weights = head + [1.0 - sum(head)]
            # the leaves' (key, weight) pairs, unordered; a power's inverse
            # is s^(1/p), so the powers are one, s to the sum of their w/p
            self.key = (
                frozenset((leaf.key, w) for leaf, w in self.leaves if leaf.kind != "pow"),
                sum(w / leaf.params[0] for leaf, w in self.leaves if leaf.kind == "pow"),
            )
        else:
            raise AdmissibilityError(f"unknown Young function kind {kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("Young functions take nonnegative arguments")
        with np.errstate(over="ignore"):  # a value above the largest float raises below
            if self.kind == "pow":
                out = t**self._p
            elif self.kind == "exp":
                out = np.expm1(t)
            else:
                # exp of log phi; values below the smallest float underflow to 0
                out = t.copy()
                solve = (t != 0.0) & (t != math.inf)
                out[solve] = np.exp(self._log_phi(np.log(t[solve]))[0])
        if np.any(np.isinf(out)):
            raise OverflowError("Young function overflowed")
        return out if out.shape else float(out)

    def inverse(self, s):
        """The generalized inverse phi^{-1}(s) = sup{t : phi(t) <= s}, as
        exp of the log-domain inverse; 0 and inf map to themselves."""
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0):
            raise ValueError("inverse takes nonnegative arguments")
        out = s.copy()
        solve = (s != 0.0) & (s != math.inf)
        out[solve] = np.exp(self._log_inverse(np.log(s[solve]))[0])
        return out if out.shape else float(out)

    def _log_inverse(self, y):
        """log phi^{-1}(e^y) and its derivative in y, for a 1-D array y."""
        if self.kind == "pow":
            return y / self._p, np.full_like(y, 1.0 / self._p)
        if self.kind == "exp":
            # log log(1 + e^y); below y = -40 it equals y to within 1e-17, and
            # far below log(1 + e^y) underflows, so those places keep y and 1
            big = y >= -40.0
            la = np.logaddexp(0.0, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(big, np.log(la), y), np.where(big, np.exp(y - la) / la, 1.0)
        if self.kind == "powlog":
            # x = log t solves log phi(e^x) = y
            x, slope = _newton(self._log_phi, y, y / self._p)
            return x, 1.0 / slope
        # the weighted sum of the leaves' terms, accumulated in place; a
        # power's slope 1/p is a constant
        log_t, slope = np.zeros_like(y), np.zeros_like(y)
        for (leaf, _), w in zip(self.leaves, self._weights):
            if leaf.kind == "pow":
                term = y / leaf._p
                slope += w * (1.0 / leaf._p)
            else:
                term, leaf_slope = leaf._log_inverse(y)
                leaf_slope *= w
                slope += leaf_slope
            term *= w
            log_t += term
        return log_t, slope

    def _log_phi(self, x):
        """log phi(e^x) and its derivative in x, the elasticity
        d log phi / d log t, for a 1-D array x of finite logs."""
        if self.kind == "pow":
            return self._p * x, np.full_like(x, self._p)
        if self.kind == "exp":
            # log(e^u - 1) = u + log(1 - e^-u) at u = e^x, and its slope
            # u / (1 - e^-u); below x = -40 they are x and 1 to within 1e-17,
            # and far below u underflows to 0, so those places keep x and 1
            big = x >= -40.0
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                u = np.exp(x)
                rest = -np.expm1(-u)
                return np.where(big, u + np.log(rest), x), np.where(big, u / rest, 1.0)
        if self.kind == "powlog":
            # p x + a log log(e + e^x)
            p, a = self._p, self._a
            lx = np.logaddexp(1.0, x)
            return p * x + a * np.log(lx), p + a * np.exp(x - lx) / lx
        # combined: z = log psi(e^x) solves log psi^{-1}(e^z) = x
        z, slope = _newton(self._log_inverse, x, x)
        return z, 1.0 / slope

    def _validate(self):
        """Check, on a log grid of 40 points in [1e-3, 100], that the
        function is increasing, midpoint convex between neighbours (at 1e-9
        relative) and consistent with its inverse (at 1e-6 relative).

        The checks read log phi, so no value leaves the floats unless log phi
        does, on the grid or in the inverse's Newton solve: that refuses it.
        """
        ts = np.logspace(-3, 2, 40)
        # the grid and its midpoints, interleaved in increasing order
        grid = np.empty(2 * ts.size - 1)
        grid[0::2], grid[1::2] = ts, 0.5 * (ts[:-1] + ts[1:])
        log_grid = np.log(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            log_values = self._log_phi(log_grid)[0]
            if not np.all(np.isfinite(log_values)):
                raise AdmissibilityError(f"Young function {self.describe()} has log values beyond the floats")
            vals, mid = log_values[0::2], log_values[1::2]
            if np.any(np.diff(vals) <= 0.0):
                raise AdmissibilityError(f"Young function {self.describe()} is not increasing")
            if np.any(mid > np.logaddexp(vals[:-1], vals[1:]) - math.log(2.0) + math.log1p(1e-9)):
                raise AdmissibilityError(f"Young function {self.describe()} fails midpoint convexity")
            try:
                back = self._log_inverse(vals)[0]
            except YoungInversionError as exc:
                raise AdmissibilityError(f"Young function {self.describe()} has no inverse: {exc}") from None
        if np.max(np.abs(np.expm1(back - log_grid[0::2]))) > 1e-6:
            raise AdmissibilityError(f"Young function {self.describe()} inverse is inconsistent")

    def describe(self) -> str:
        if self.kind == "pow":
            return f"pow:{format_index(self.params[0])}"
        if self.kind == "powlog":
            return f"powlog:{format_index(self.params[0])},{self.params[1]}"
        if self.kind == "exp":
            return "exp"
        # the weights of all leaves but the last, which is 1 minus their sum
        leaves = ",".join(leaf.describe() for leaf, _ in self.leaves)
        return f"combined({leaves};{','.join(str(w) for _, w in self.leaves[:-1])})"


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
                p, a = parse_index(parts[0]), parse_rational(parts[1], "power-log exponent")
                # t^p log(e + t)^0 is t^p
                return cls("orlicz", young=YoungFunction("powlog", (p, a)) if a else YoungFunction("pow", (p,)))
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

    def _identity(self):
        return self.kind, self.primary, self.secondary, None if self.young is None else self.young.key

    def __eq__(self, other):
        if not isinstance(other, SpaceDescriptor):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


# the combined Young functions cl_combine has built, by ordered flat form
_COMBINED: dict = {}


def cl_combine(x: SpaceDescriptor, y: SpaceDescriptor, theta: Fraction) -> SpaceDescriptor:
    """The space Z with Z = X^theta Y^(1-theta) in the Calderon product sense.

    Only like kinds combine; mixing kinds raises AdmissibilityError.  Two
    Orlicz spaces whose Young functions have the same ``key`` give X
    itself, by the identity X^theta X^(1-theta) = X; no combined Young
    function is built for them.  A combined Young function is built once
    per ordered flat form (leaf keys and exact weights, in the order the
    factors give them) in a process and kept in ``_COMBINED``, so its text
    follows its own factors whatever was built before, and a nested
    product such as
    X^b (X^a Y^(1-a))^(1-b) returns the object built for
    X^(b+a(1-b)) Y^((1-a)(1-b)).  It is not checked numerically: psi^{-1}
    is a weighted geometric mean of concave increasing functions, so it is
    concave and psi is a Young function (Lozanovskii; Maligranda, Orlicz
    Spaces and Interpolation, 1989).  Building one solves nothing.
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
    if ya.key == yb.key:
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
    key = tuple((leaf.key, w) for leaf, w in _product_leaves(ya, yb, theta))
    if key not in _COMBINED:
        _COMBINED[key] = YoungFunction("combined", factors=(ya, yb), theta=theta)
    return SpaceDescriptor("orlicz", young=_COMBINED[key])
