"""Gagliardo-Nirenberg interpolation ratios in rearrangement-invariant norms.

The inequality under study bounds an intermediate derivative by its
endpoints,

    ||D^j u||_Z <= C ||D^k u||_X^(j/k) ||u||_Y^(1-j/k),

with Z = X^(j/k) Y^(1-j/k) the Calderon-Lozanovskii product of the two
spaces.  gn_ratio measures the three norms on one test function and
reports the empirical ratio, a lower witness for the best constant.
first_order_chain_check walks the sparse-averaging route to the
(j, k) = (1, 2) case link by link, on a case's own family and fields.
induction_identity_check covers the exponent algebra that reduces higher
orders to that case, through the cl_combine rules of gnsparse.spaces, and
run_corpus drives everything over a case list, attaching structural
verdicts from the sparse construction itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import AdmissibilityError, ConstructionError, GnsparseError, UnresolvableFunctionError
from .norms import cl_factorization_check, norm_tolerance, space_norm
from .operator import (
    MAJORIZATION_SLACK,
    apply_sparse_operator,
    modular_contraction_check,
    operator_norm_check,
)
from .parallel import run_ordered
from .rearrangement import CellField
from .sparse1d import (
    OVERLAP_LIMIT_1D,
    POINTWISE_SLACK,
    build_family_1d,
    default_k_min,
    verify_pointwise_1d,
)
from .sparse2d import OVERLAP_LIMIT_2D, build_family_2d, verify_family_2d
from .spaces import SpaceDescriptor, cl_combine
from .testfunctions import TestFunctionSpec, make_test_function

MODES = ("pure", "gradient", "pure-sum")
CHECK_NAMES = ("overlap", "pointwise", "operator-norm", "modular", "gn", "induction")
STABILITY_TOL = 0.01
CHAIN_SLACK = 0.02
POINTWISE_CONSTANT = 128.0


@dataclass(frozen=True)
class GNCase:
    """One measurement: function, derivative orders, spaces, mode, resolution.

    Modes differ only in two dimensions: ``pure`` compares the pure partials
    along ``axis``, ``gradient`` sums |d^a u| over all multi-indices of each
    total order, ``pure-sum`` sums the pure partials of the two axes.  In
    one dimension the three coincide.
    """

    spec: TestFunctionSpec
    j: int
    k: int
    x_space: SpaceDescriptor
    y_space: SpaceDescriptor
    mode: str = "pure"
    axis: int = 1
    n: int = 1024

    def __post_init__(self):
        if not 1 <= self.j < self.k <= 3:
            raise AdmissibilityError(
                f"derivative orders must satisfy 1 <= j < k <= 3, got ({self.j}, {self.k})"
            )
        if self.mode not in MODES:
            raise AdmissibilityError(f"unknown mode {self.mode!r}")
        if self.axis not in (1, 2) or (self.dim == 1 and self.axis != 1):
            raise AdmissibilityError(f"axis {self.axis} invalid for a {self.dim}D function")
        if self.x_space.kind != self.y_space.kind:
            raise AdmissibilityError(
                f"{self.x_space.format()} and {self.y_space.format()} do not combine"
            )
        if self.n < 8:
            raise AdmissibilityError(f"resolution {self.n} is too small to mean anything")
        if self.dim == 2 and self.spec.layout == "radial" and self.mode == "gradient" and self.k == 3:
            raise AdmissibilityError("a radial function has no mixed third partials for k = 3 gradient mode")

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def theta(self) -> Fraction:
        return Fraction(self.j, self.k)

    @cached_property
    def z_space(self) -> SpaceDescriptor:
        """Z = X^theta Y^(1-theta), combined on first use; an inadmissible
        combination raises there, not when the case is built."""
        return cl_combine(self.x_space, self.y_space, self.theta)

    def case_id(self) -> str:
        name = self.spec.name or self.spec.family
        parts = [
            name,
            self.mode,
            f"j{self.j}k{self.k}",
            self.x_space.format(),
            self.y_space.format(),
            f"n{self.n}",
        ]
        if self.dim == 2:
            parts.insert(1, f"ax{self.axis}")
        return "-".join(parts)


@dataclass(frozen=True)
class GNReport:
    case: GNCase
    z_space: SpaceDescriptor
    lhs: float
    rhs_x: float
    rhs_y: float
    ratio: float
    refined_ratio: float
    drift: float
    stable: bool


def _abs_field(u, order: int, mode: str, field) -> CellField:
    """The CellField |derivative expression| of a total order at cell centers.

    ``field(order)`` gives the CellField of u's own center field of an
    order.  In 1D, at order 0 and in ``pure`` mode (along u.axis) the
    expression is that field; the sums of the other modes read its values
    for the partial along u.axis and evaluate all the others in one pass.
    """
    if u.dim == 1 or order == 0 or mode == "pure":
        return field(order)
    if mode == "pure-sum":
        partials = [(order, 0), (0, order)]
    else:  # gradient: every multi-index of the given total order
        partials = [(jx, order - jx) for jx in range(order + 1)]
    own = (order, 0) if u.axis == 1 else (0, order)
    others = [p for p in partials if p != own]
    fields = dict(zip(others, u.center_partials(others)))
    own_values = field(order).values  # already absolute, and kept: only read
    # the other partials are new arrays, made absolute in place; the sum
    # adds the terms in partial order into one of them
    terms = [own_values if p == own else np.abs(fields[p], out=fields[p]).ravel() for p in partials]
    total = np.add(terms[0], terms[1], out=terms[1] if terms[0] is own_values else terms[0])
    for term in terms[2:]:
        np.add(total, term, out=total)
    return CellField.of_nonnegative(total, u.cell_measure)


def _fields_of(u, read):
    """order -> the CellField of ``read(order)``, u's own center field of that
    order: u.center_values keeps the field for later readers, u.center_field
    drops it after use."""
    return lambda order: CellField(read(order), u.cell_measure)


def _norms_at(case: GNCase, z_space: SpaceDescriptor, u, field):
    """The three norms of the GN ratio, on u's center fields as ``field`` gives them."""
    lhs = space_norm(z_space, _abs_field(u, case.j, case.mode, field))
    rhs_x = space_norm(case.x_space, _abs_field(u, case.k, case.mode, field))
    rhs_y = space_norm(case.y_space, _abs_field(u, 0, case.mode, field))
    return lhs, rhs_x, rhs_y


def _ratio_of(lhs: float, rhs_x: float, rhs_y: float, theta: Fraction) -> float:
    t = float(theta)
    denom = rhs_x**t * rhs_y ** (1.0 - t)
    if denom > 0.0:
        return lhs / denom
    return 0.0 if lhs == 0.0 else math.inf


def gn_ratio(case: GNCase, u=None, field=None) -> GNReport:
    """Empirical ratio at case.n plus a refinement rerun at 2n.

    ``u`` is the case's function already sampled at case.n, if the caller
    has it; otherwise it is sampled here.  ``field(order)``, if given, is
    the caller's CellField of u's center field of an order, read instead of
    a new one.  Zero functions give ratio 0 by convention.  The stability
    flag compares the two resolutions at 1% relative; norm failures
    propagate.
    """
    z_space = case.z_space
    if u is None:
        u = make_test_function(case.spec, case.n, axis=case.axis)
    lhs, rhs_x, rhs_y = _norms_at(case, z_space, u, field or _fields_of(u, u.center_values))
    ratio = _ratio_of(lhs, rhs_x, rhs_y, case.theta)
    # the 2n sample is thrown away, so none of its fields is kept: in 1D the
    # three orders come from one evaluator call and each is dropped once
    # read; a 2D lattice is evaluated per order, so that at most one 2n
    # field is held besides the norms' temporaries
    fine = make_test_function(case.spec, 2 * case.n, axis=case.axis)
    if fine.dim == 1:
        orders = (0, case.j, case.k)
        read = dict(zip(orders, fine.center_fields(orders))).pop
    else:
        read = fine.center_field
    lhs2, rhs_x2, rhs_y2 = _norms_at(case, z_space, fine, _fields_of(fine, read))
    refined = _ratio_of(lhs2, rhs_x2, rhs_y2, case.theta)
    if ratio == refined:
        drift = 0.0
    elif math.isfinite(refined) and refined > 0.0:
        drift = abs(ratio - refined) / refined
    else:
        drift = math.inf
    stable = math.isfinite(ratio) and drift <= STABILITY_TOL
    return GNReport(case, z_space, lhs, rhs_x, rhs_y, ratio, refined, drift, stable)


# ---------------------------------------------------------------------------
# the chained route to the first-order inequality


@dataclass(frozen=True)
class ChainLink:
    name: str
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class ChainReport:
    links: tuple
    overlap: int
    pointwise_max: float

    @property
    def ok(self) -> bool:
        return all(link.ok for link in self.links)

    def link(self, name: str) -> ChainLink:
        for item in self.links:
            if item.name == name:
                return item
        raise KeyError(name)


def first_order_chain_check(u, fields, x_space: SpaceDescriptor, y_space: SpaceDescriptor) -> ChainReport:
    """||u' chi_cov||_Z <= sqrt(128) K ||u''||_X^(1/2) ||u||_Y^(1/2), link by link.

    With T the sparse averaging operator of the escape-interval family and
    K its overlap constant, the route is

      (1) pointwise-to-norm:  |u'| <= sqrt(128) (T|u''|)^(1/2) (T|u|)^(1/2)
          on covered cells, so the Z norms compare the same way;
      (2) factorization:      ||(T|u''|)^(1/2) (T|u|)^(1/2)||_Z
                                <= ||T|u''|||_X^(1/2) ||T|u|||_Y^(1/2);
      (3) operator-x / operator-y:  ||T f||_X <= K ||f||_X and likewise in Y;
      (4) end-to-end: the composition of the three.

    ``fields`` is (cells, |u|, |u''|, T|u|, T|u''|) on u's family, as a
    case's ``_CaseRun.fields`` builds them.  Discrete cell means stand in
    for exact interval averages, so the two pointwise-based links carry a
    2% cushion.  Z is X^(1/2) Y^(1/2).
    """
    if u.dim != 1:
        raise ConstructionError("the chained first-order route runs on 1D functions")
    z_space = cl_combine(x_space, y_space, Fraction(1, 2))
    cells, f0, f2, t0, t2 = fields
    covered = cells.counts > 0
    geo = CellField(np.sqrt(t2.values * t0.values), u.cell_measure)
    lhs_field = CellField(np.where(covered, u.center_values(1), 0.0), u.cell_measure)
    root = math.sqrt(POINTWISE_CONSTANT)

    denom = POINTWISE_CONSTANT * t2.values * t0.values
    pw = np.zeros_like(denom)
    np.divide(lhs_field.values**2, denom, out=pw, where=denom > 0.0)
    pointwise_max = float(np.max(pw)) if pw.size else 0.0

    links = []
    lhs1 = space_norm(z_space, lhs_field)
    rhs1 = root * space_norm(z_space, geo)
    links.append(ChainLink("pointwise-to-norm", lhs1, rhs1, lhs1 <= rhs1 * (1.0 + CHAIN_SLACK)))

    lhs2, rhs2, ok2 = cl_factorization_check(z_space, x_space, y_space, geo, t2, t0, Fraction(1, 2))
    links.append(ChainLink("factorization", lhs2, rhs2, ok2))

    K, norms = cells.max_overlap, []
    for name, space, f, tf in (("operator-x", x_space, f2, t2), ("operator-y", y_space, f0, t0)):
        norms.append(space_norm(space, f))
        lhs, rhs = space_norm(space, tf), K * norms[-1]
        links.append(ChainLink(name, lhs, rhs, lhs <= rhs * (1.0 + norm_tolerance(space)) or lhs == 0.0))

    rhs_end = root * K * math.sqrt(norms[0] * norms[1])
    links.append(ChainLink("end-to-end", lhs1, rhs_end, lhs1 <= rhs_end * (1.0 + CHAIN_SLACK)))

    return ChainReport(links=tuple(links), overlap=K, pointwise_max=pointwise_max)


# ---------------------------------------------------------------------------
# exponent algebra


@dataclass(frozen=True)
class InductionResult:
    k: int
    ok: bool
    failures: tuple


def induction_identity_check(x_space: SpaceDescriptor, y_space: SpaceDescriptor, k: int) -> InductionResult:
    """Descriptor identities behind the reduction from order k to order k-1.

    With V = X^(1/k) Y^((k-1)/k):

      (A)  X^((k-1)/k) Y^(1/k)             =  X^((k-2)/(k-1)) V^(1/(k-1))
      (B)  X^((j-1)/(k-1)) V^((k-j)/(k-1)) =  X^(j/k) Y^((k-j)/k)   (1 < j < k-1)

    Both sides are assembled by repeated cl_combine and compared as
    descriptors (exact rationals; Orlicz by their Young functions' keys).
    Failures are reported with the offending parameters, not raised.
    """
    if k < 3:
        raise AdmissibilityError(f"the induction starts at k = 3, got {k}")
    failures = []
    inner = cl_combine(x_space, y_space, Fraction(1, k))
    lhs = cl_combine(x_space, y_space, Fraction(k - 1, k))
    rhs = cl_combine(x_space, inner, Fraction(k - 2, k - 1))
    if lhs != rhs:
        failures.append(f"step-down identity at k={k}: {lhs.format()} != {rhs.format()}")
    for j in range(2, k - 1):
        lhs_j = cl_combine(x_space, inner, Fraction(j - 1, k - 1))
        rhs_j = cl_combine(x_space, y_space, Fraction(j, k))
        if lhs_j != rhs_j:
            failures.append(
                f"intermediate identity at j={j}, k={k}: {lhs_j.format()} != {rhs_j.format()}"
            )
    return InductionResult(k=k, ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# corpus runner


@dataclass
class CaseResult:
    case: GNCase
    z_text: str
    verdicts: tuple  # ordered (check-name, "pass" | "fail: ..." | "error") pairs
    report: GNReport = None
    overlap_max: int = None
    pointwise_max: float = None
    intervals: object = ()  # 1D interval table (SparseFamily1D.intervals), when a family was built
    slabs: tuple = ()  # 2D slab sets, when a family was built
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and all(v == "pass" for _, v in self.verdicts)

    def first_failure(self):
        """(check-name, verdict) of the first non-pass entry, or None."""
        for name, verdict in self.verdicts:
            if verdict != "pass":
                return name, verdict
        return None


def _built_once(build):
    """A read-only property that runs ``build`` on its first read and keeps
    what it returns, or the GnsparseError it raises: a failed build is
    raised again to every later reader and never runs twice."""
    name = build.__name__

    def read(run):
        if name not in run.built:
            try:
                run.built[name] = build(run)
            except GnsparseError as exc:
                run.built[name] = exc
        out = run.built[name]
        if isinstance(out, GnsparseError):
            raise out
        return out

    return property(read, doc=build.__doc__)


def _certified(label: str, certificate) -> str:
    """The verdict of a (ratio, ok) majorization certificate of T f, f = ``label``."""
    ratio, ok = certificate
    return "pass" if ok else f"fail: T{label} majorization ratio {ratio!r} > 1+{MAJORIZATION_SLACK!r}"


@dataclass
class _CaseRun:
    """One method per name in CHECK_NAMES, each returning its verdict.  The
    sample at case.n, the family, the averaged fields and the certificate of
    T|u| are built once, on first read: ``operator-norm`` and ``modular``
    read the one |u| certificate, and the chain check takes ``fields``."""

    case: GNCase
    result: CaseResult
    built: dict = field(default_factory=dict)

    @_built_once
    def u(self):
        return make_test_function(self.case.spec, self.case.n, axis=self.case.axis)

    @_built_once
    def family(self):
        if self.case.dim == 1:
            family = build_family_1d(self.u, default_k_min(self.u))
            self.result.intervals = family.intervals
        else:
            family = build_family_2d(self.u)
            self.result.slabs = tuple(family.slabs)
            if not family.slabs and family.skipped:
                # no level resolved: the family's checks would hold vacuously
                raise UnresolvableFunctionError(family.skipped[0].diagnostic())
        return family

    def field(self, order: int) -> CellField:
        """|u^(order)| at the cell centers at case.n.  The first read keeps
        u's center fields of the case's orders 0, 2, j and k, from one
        evaluator pass.  Orders 0 and 2, which the operator checks and the
        GN ratio both read, are built once and kept; another order has one
        reader and is not kept."""
        self.u.keep_centers((0, 2, self.case.j, self.case.k))
        build = _fields_of(self.u, self.u.center_values)
        if order not in (0, 2):
            return build(order)
        key = ("field", order)
        if key not in self.built:
            self.built[key] = build(order)
        return self.built[key]

    @_built_once
    def fields(self):
        """The family's cells, |u| and |u''| at the cell centers, and T|u|, T|u''|."""
        cells, f0, f2 = self.family.cells, self.field(0), self.field(2)
        return cells, f0, f2, apply_sparse_operator(cells, f0), apply_sparse_operator(cells, f2)

    @_built_once
    def u_certificate(self):
        """(ratio, ok) of the majorization of T|u| by K|u|."""
        cells, f0, _, t0, _ = self.fields
        return modular_contraction_check(cells, f0, t0)

    def overlap(self) -> str:
        """Every cell lies in at most 3 intervals (1D) or 5 slabs (2D) of the family."""
        cells = self.family.cells
        self.result.overlap_max = worst = cells.max_overlap
        limit = OVERLAP_LIMIT_1D if self.case.dim == 1 else OVERLAP_LIMIT_2D
        if worst <= limit:
            return "pass"
        i = int(np.argmax(cells.counts))
        if self.case.dim == 1:
            return f"fail: overlap {worst} > {limit} at cell {i} (x={float(self.u.grid.centers()[i])!r})"
        return f"fail: overlap {worst} > {limit} at cell {divmod(i, self.u.grid.gy.n)}"

    def pointwise(self) -> str:
        """u'^2 <= 128 (avg |u''|)(avg |u|) on covered nodes (1D); a finite ratio (2D)."""
        if self.case.dim == 2:
            self.result.pointwise_max = ratio = verify_family_2d(self.family, self.field(0), self.field(2)).max_ratio
            return "pass" if math.isfinite(ratio) else "fail: pointwise ratio is not finite"
        self.result.pointwise_max = ratio = verify_pointwise_1d(self.u, self.family)[1]
        bound = POINTWISE_CONSTANT * (1.0 + POINTWISE_SLACK)
        return "pass" if ratio <= bound else f"fail: pointwise ratio {ratio!r} exceeds {bound!r}"

    def operator_norm(self) -> str:
        """||T f||_X <= K ||f||_X in every r.i. space X for f = |u''| and |u|:
        int_0^t (T f)* <= K int_0^t f* at every t."""
        cells, _, f2, _, t2 = self.fields
        verdict = _certified("|u''|", operator_norm_check(cells, f2, t2))
        return verdict if verdict != "pass" else _certified("|u|", self.u_certificate)

    def modular(self) -> str:
        """rho(T|u| / K) <= rho(|u|) for every Young function rho, by the
        majorization of T|u| by K|u|: the certificate operator-norm reads."""
        return _certified("|u|", self.u_certificate)

    def gn(self) -> str:
        """The GN ratio is finite and moves at most 1% from n to 2n (``report.stable``)."""
        self.result.report = report = gn_ratio(self.case, self.u, self.field)
        return "pass" if report.stable else f"fail: ratio {report.ratio!r} drifts {report.drift!r} under refinement"

    def induction(self) -> str:
        """The exponent identities of the order induction hold at k = 3 and 4."""
        x, y = self.case.x_space, self.case.y_space
        bad = [msg for k in (3, 4) for msg in induction_identity_check(x, y, k).failures]
        return f"fail: {bad[0]}" if bad else "pass"


def run_case(case: GNCase, checks) -> CaseResult:
    """Execute the selected checks for one case.

    A GnsparseError becomes an ``error`` verdict for the check it stopped,
    and the other checks still run; ``result.error`` keeps the first one.
    A failed sample or family build is an ``error`` for every check that
    reads it, and a Z space that cannot be combined for every check.  Any
    other exception is a programming error and propagates.  Every verdict,
    ``induction`` too, is computed here from the case alone.
    """
    selected = [c for c in CHECK_NAMES if c in checks]
    result = CaseResult(case=case, z_text="", verdicts=())
    run = _CaseRun(case, result)
    try:
        result.z_text = case.z_space.format()
    except GnsparseError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.verdicts = tuple((name, "error") for name in selected)
        return result
    for name in selected:
        try:
            verdict = getattr(run, name.replace("-", "_"))()
        except GnsparseError as exc:
            result.error = result.error or f"{type(exc).__name__}: {exc}"
            verdict = "error"
        result.verdicts += ((name, verdict),)
    return result


def run_corpus(cases, checks):
    """Ordered CaseResults, one per case; a case's GnsparseError is recorded.

    Cases are independent, so their order is the report order no matter
    how execution is scheduled: ``parallel.run_ordered`` spreads a long
    enough run over the CPUs, heaviest cases (n**dim) first, and returns
    the results in case order, so reruns stay byte-for-byte reproducible.
    """
    checks = tuple(checks)
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return run_ordered(lambda case: run_case(case, checks), list(cases), weight=lambda case: case.n**case.dim)
