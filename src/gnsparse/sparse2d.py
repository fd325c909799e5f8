"""Two-dimensional sparse slab coverings from level sets of one pure partial.

Each grid line parallel to the chosen axis carries the 1D escape-interval
construction for d1 = the first partial along that axis, on the cell
centers of the line; an interval found on the line through a seed cell is
thickened transversely by an open ball of radius delta_k, where delta_k
keeps the oscillation of u, d1 u and d1^2 u below the level-dependent bound

    b_k = min(2^(k-4), 2^(2k-4) / M),   M = max of the three sup norms.

That bound is what keeps the thickened slabs inside the widened band
{2^(k-3) <= s * d1 u < 2^(k+2)}, caps the per-sign overlap at 5, and keeps
the slab averages of |d1^2 u| and |u| comparable to the line averages.
delta_k must be a positive integer multiple of the grid step; levels where
no such multiple exists are skipped and reported with a resolution
diagnostic instead of being silently dropped.

A slab only holds whole cells: those whose centers lie strictly inside a
line interval, widened by delta_steps - 1 lines on each side.  The interval
is fixed by its seeded run of in-band centers (see :mod:`gnsparse.sparse1d`),
and its bisected ends lie strictly between the run's outermost centers and
the out-of-band centers next to them, because the bisection stops at a
bracket of BISECT_TOL_FACTOR > 0 grid steps and returns its midpoint.  So
the cells inside the interval are exactly the run, and the build takes the
runs from :func:`~gnsparse.sparse1d.seeded_runs` without bisecting or
evaluating u at all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, CorpusConfigError
from .operator import CellFamily
from .rearrangement import CellField
from .sparse1d import check_exit_budget, k_min_for_sup, level_band, level_floor, level_index, seeded_runs

OVERLAP_LIMIT_2D = 5  # slabs of five adjacent levels of one sign at most cover a cell


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of the admissible-thickness scan for one oscillation bound."""

    steps: int
    delta: float
    bound: float
    variation_at_one: float

    @property
    def admissible(self) -> bool:
        return self.steps >= 1


@dataclass(frozen=True)
class SkippedLevel:
    k: int
    bound: float
    seed_cells: int
    variation_at_one: float
    suggested_cells: int

    def diagnostic(self) -> str:
        return (
            f"level {self.k}: no grid-commensurate thickness; one-step oscillation "
            f"{self.variation_at_one:.3e} exceeds bound {self.bound:.3e}; "
            f"roughly {self.suggested_cells} cells per side would resolve it"
        )


@dataclass
class SlabSet:
    k: int
    sign: int
    mask: np.ndarray  # bool over cells, indexed [ix, iy]
    delta: float
    delta_steps: int
    seed_cells: int
    pieces: int


@dataclass
class SparseFamily2D:
    """The slabs of one build, its bookkeeping, the center field d1c of the
    partial it is built from, and the slab masks as one family of cells
    (``cells``), whose counts and maximum are the family's overlap."""

    axis: int
    slabs: list
    skipped: list
    k_min: int
    k_top: int
    exit_cells: list
    eligible_count: int
    d1c: np.ndarray
    cells: CellFamily
    deltas: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.slabs)

    def analyzed_levels(self):
        return sorted({s.k for s in self.slabs})


def _shift_variation(arr: np.ndarray, a: int, b: int) -> float:
    """max |f(x + (a,b)h) - f(x)| over the overlap of the lattice with itself."""
    nx, ny = arr.shape
    i0, i1 = max(0, -a), nx - max(0, a)
    j0, j1 = max(0, -b), ny - max(0, b)
    if i0 >= i1 or j0 >= j1:
        return 0.0
    diff = arr[i0 + a : i1 + a, j0 + b : j1 + b] - arr[i0:i1, j0:j1]
    return float(max(diff.max(), -diff.min()))


def _field_lattices(u):
    """The three controlled fields u, d1 u and d1^2 u at the cell centers,
    kept on u from one evaluator pass."""
    u.keep_centers((0, 1, 2))
    return tuple(u.center_values(order) for order in (0, 1, 2))


def _ring(m: int):
    """The offsets (a, b) of the half plane a > 0 or (a = 0, b > 0) with
    m < |(a, b)| <= m + 1, as two integer arrays."""
    a, b = np.meshgrid(np.arange(m + 2), np.arange(-(m + 1), m + 2), indexing="ij")
    r2 = a * a + b * b
    keep = ((a > 0) | (b > 0)) & (m * m < r2) & (r2 <= (m + 1) ** 2)
    return a[keep], b[keep]


# The path bound is a sum of computed one-step differences; this relative
# cushion covers the few units in the last place by which a computed
# variation may exceed it.
PATH_BOUND_CUSHION = 1e-12


def compute_delta(u, bounds) -> list:
    """Per oscillation bound, the largest delta = m*h whose displacements
    keep all field oscillations within it, checked on the cell-center
    lattice.

    Displacements are all integer offsets with Euclidean length <= m.  When
    even the global range of every field fits a bound, the window itself
    is no constraint and delta is its diameter.  The rings of offsets are
    scanned once for all bounds, out to the first ring whose cumulative
    worst oscillation exceeds the largest bound still open.

    A shift is measured only if it can close a bound.  Along an L-shaped
    lattice path, |f(x + (a,b)h) - f(x)| <= |a| v1x + |b| v1y, where v1x
    and v1y are the field's one-step variations; a shift whose path bound
    is at most the smallest open bound (the smallest bound >= the worst so
    far) cannot change which bounds each ring closes, so it is skipped.
    Each ring's shifts are measured in decreasing order of their path
    bound, and a ring is left once its worst exceeds the largest open
    bound, which closes every bound the scan still counts.
    """
    bounds = list(bounds)
    for bound in bounds:
        if bound <= 0.0:
            raise ValueError(f"oscillation bound must be positive, got {bound}")
    fields = _field_lattices(u)
    hx, hy = u.grid.gx.h, u.grid.gy.h
    if not math.isclose(hx, hy, rel_tol=1e-12):
        raise ConstructionError(f"anisotropic cells ({hx} x {hy}) have no common step")
    h = hx

    v1 = np.array([[_shift_variation(f, 1, 0), _shift_variation(f, 0, 1)] for f in fields])
    var_one = float(v1.max())
    global_range = max(float(np.max(f) - np.min(f)) for f in fields)
    m_cap = min(u.grid.gx.n, u.grid.gy.n)
    reach = max((b for b in bounds if b < global_range), default=-math.inf)
    ascending = sorted(bounds)

    # worst[m - 1]: the largest oscillation over all offsets of length <= m
    # that can close a bound (exactly that largest oscillation where it is
    # at most reach)
    worst = [var_one]
    while len(worst) < m_cap and worst[-1] <= reach:
        a, b = _ring(len(worst))
        path = np.abs(a)[:, None] * v1[:, 0] + np.abs(b)[:, None] * v1[:, 1]  # [offset, field]
        current = worst[-1]
        smallest_open = ascending[bisect.bisect_left(ascending, current)]
        for flat in np.argsort(-path, axis=None).tolist():
            if path.flat[flat] * (1.0 + PATH_BOUND_CUSHION) <= smallest_open:
                break
            i, f = divmod(flat, len(fields))
            current = max(current, _shift_variation(fields[f], int(a[i]), int(b[i])))
            if current > reach:
                break
            smallest_open = ascending[bisect.bisect_left(ascending, current)]
        worst.append(current)

    results = []
    for bound in bounds:
        if global_range <= bound:
            diameter = math.hypot(u.grid.gx.b - u.grid.gx.a, u.grid.gy.b - u.grid.gy.a)
            results.append(DeltaResult(steps=m_cap, delta=diameter, bound=bound, variation_at_one=var_one))
            continue
        steps = sum(1 for w in worst if w <= bound)
        results.append(DeltaResult(steps=steps, delta=steps * h, bound=bound, variation_at_one=var_one))
    return results


def oscillation_bound(k: int, big_m: float) -> float:
    """b_k = min(2^(k-4), 2^(2k-4)/M)."""
    first = math.ldexp(1.0, k - 4)
    if big_m <= 0.0:
        return first
    return min(first, math.ldexp(1.0, 2 * k - 4) / big_m)


def _check_compact_support(u, sup_u: float):
    """Refuse a u that does not vanish on its window's boundary: u is
    evaluated on the window's four boundary lines of nodes, in two calls,
    and compared with its sup norm ``sup_u``."""
    x, y = u.grid.gx.nodes(), u.grid.gy.nodes()
    (rows,) = u.evaluate(x[:, None], y[[0, -1]][None, :], [(0, 0)])
    (cols,) = u.evaluate(x[[0, -1]][:, None], y[None, :], [(0, 0)])
    border = max(float(np.max(np.abs(rows))), float(np.max(np.abs(cols))))
    if border > 1e-9 * max(sup_u, 1e-300):
        raise CorpusConfigError(
            f"function {u.label!r} is not compactly supported inside its window "
            f"(boundary magnitude {border:.3e})"
        )


def build_family_2d(u) -> SparseFamily2D:
    """Assemble the two-sign slab family of the pure partial of u along u.axis.

    Per analyzed level and sign: the seeded runs of every line, one slab
    piece each, thickened transversely by the admissible delta.  Levels
    without an admissible delta >= h are recorded as skipped.
    Window-exiting seeds follow the same EXIT_FRACTION_LIMIT as the 1D build.
    """
    axis = u.axis
    sups = u.sup_norm((0, 1, 2))  # u, d1 u, d1^2 u on the fixed fine probe
    _check_compact_support(u, sups[0])

    d1c = u.center_values(1)

    # canonical orientation: one row per grid line along the axis
    lines = d1c.T if axis == 1 else d1c
    abs_lines = np.abs(lines)
    n_line = lines.shape[1]

    big_m = max(sups)
    sup_d1 = max(sups[1], float(np.max(np.abs(d1c))))
    if sup_d1 == 0.0:
        return SparseFamily2D(axis, [], [], 0, 0, [], 0, d1c, CellFamily.from_masks([], u.grid))
    k_top = level_index(sup_d1)
    k_min = k_min_for_sup(sups[1])

    eligible_count = int(np.sum(np.abs(d1c) >= level_floor(k_min)))

    slabs = []
    skipped = []
    exit_cells = []

    def own_cells(k):
        lo, hi = level_band(k)
        return (abs_lines >= lo) & (abs_lines < hi)

    seed_counts = {k: int(np.sum(own_cells(k))) for k in range(k_top, k_min - 1, -1)}
    levels = [k for k, count in seed_counts.items() if count]
    results = compute_delta(u, [oscillation_bound(k, big_m) for k in levels])
    deltas = dict(zip(levels, results))

    for k, res in deltas.items():
        bound = res.bound
        seed_count = seed_counts[k]
        if not res.admissible:
            suggested = int(math.ceil(n_line * res.variation_at_one / bound)) if bound > 0 else 0
            skipped.append(
                SkippedLevel(
                    k=k,
                    bound=bound,
                    seed_cells=seed_count,
                    variation_at_one=res.variation_at_one,
                    suggested_cells=suggested,
                )
            )
            continue
        own = own_cells(k)
        for sign in (1, -1):
            g = sign * lines
            seeds = own & (g > 0.0)
            if not np.any(seeds):
                continue
            runs = seeded_runs(g, seeds, k)
            for j, i in zip(runs.exit_line.tolist(), runs.exit_index.tolist()):
                exit_cells.append((i, j, k, sign) if axis == 1 else (j, i, k, sign))
            if runs.first.size == 0:
                continue
            mask = np.zeros(lines.shape, dtype=bool)
            for j, first, last in zip(runs.line.tolist(), runs.first.tolist(), runs.last.tolist()):
                mask[max(0, j - (res.steps - 1)) : j + res.steps, first : last + 1] = True
            slabs.append(
                SlabSet(
                    k=k,
                    sign=sign,
                    mask=mask.T if axis == 1 else mask,
                    delta=res.delta,
                    delta_steps=res.steps,
                    seed_cells=int(np.sum(seeds)),
                    pieces=int(runs.first.size),
                )
            )

    check_exit_budget(u, len(exit_cells), eligible_count, "cells")

    return SparseFamily2D(
        axis=axis,
        slabs=slabs,
        skipped=skipped,
        k_min=k_min,
        k_top=k_top,
        exit_cells=exit_cells,
        eligible_count=eligible_count,
        d1c=d1c,
        cells=CellFamily.from_masks([s.mask for s in slabs], u.grid),
        deltas=deltas,
    )


@dataclass(frozen=True)
class Family2DReport:
    max_ratio: float
    covered_cells: int


def verify_family_2d(family: SparseFamily2D, f0: CellField, f2: CellField) -> Family2DReport:
    """Structural checks (raise ConstructionError) plus the reported ratio.

    ``f0`` and ``f2`` are the fields |u| and |d1^2 u| of the function the
    family was built from.  Checks: widened band inclusion at every covered
    cell center, a positive |d1^2 u| average on every slab, overlap <= 5,
    and coverage of every non-exiting seed cell of each analyzed level.
    The band check also makes the two sign unions disjoint, since it puts
    sign * d1 u >= 2^(k-3) > 0 on every cell of every slab.  The pointwise
    ratio (d1 u)^2 / sum of slab-average products is reported, never
    thresholded.
    """
    cells = family.cells
    for s in family.slabs:
        g = s.sign * family.d1c[s.mask]
        lo = math.ldexp(1.0, s.k - 3)
        hi = math.ldexp(1.0, s.k + 2)
        if float(np.min(g)) < lo or float(np.max(g)) >= hi:
            raise ConstructionError(
                f"slab (k={s.k}, sign={s.sign}) leaves its widened band "
                f"[{lo}, {hi}): values in [{np.min(g)}, {np.max(g)}]"
            )

    a2 = cells.means(f2.values)
    a0 = cells.means(f0.values)
    zero = np.flatnonzero(a2 <= 0.0)
    if zero.size:
        s = family.slabs[zero[0]]
        raise ConstructionError(f"slab (k={s.k}, sign={s.sign}) has zero |d1^2 u| average")
    denom = cells.scatter(a2 * a0).reshape(family.d1c.shape)

    if cells.max_overlap > OVERLAP_LIMIT_2D:
        raise ConstructionError(f"overlap {cells.max_overlap} exceeds {OVERLAP_LIMIT_2D}")

    # a cell is a seed of its own level and sign only, so one grid marks every exit
    exited = np.zeros(family.d1c.shape, dtype=bool)
    for i, j, _, _ in family.exit_cells:
        exited[i, j] = True
    for s in family.slabs:
        g = s.sign * family.d1c
        lo, hi = level_band(s.k)
        missing = (g >= lo) & (g < hi) & ~s.mask & ~exited
        if np.any(missing):
            first = tuple(int(x) for x in np.argwhere(missing)[0])
            raise ConstructionError(
                f"{np.count_nonzero(missing)} seed cells of level {s.k} sign {s.sign} are not in "
                f"their own slab, first at {first}"
            )

    covered = denom > 0.0
    ratios = np.zeros(family.d1c.shape)
    np.divide(family.d1c**2, denom, out=ratios, where=covered)
    max_ratio = float(np.max(ratios)) if family.slabs else 0.0

    return Family2DReport(max_ratio=max_ratio, covered_cells=int(np.sum(covered)))
