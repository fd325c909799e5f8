"""One-dimensional sparse interval coverings from dyadic level sets of u'.

For each sign s and level k, the nodes with 2^(k-1) <= s*u' < 2^k seed
maximal open intervals on which s*u' stays inside the widened band
[2^(k-2), 2^(k+1)).  The level of a positive value is its binary exponent,
so the builds read one integer level map (:func:`levels_of`) and every band
test is an integer comparison: the own band is level == k, the widened band
|level - k| <= 1.  Such an interval is fixed by the maximal run of
consecutive in-band nodes that holds its seed: each end lies between the
run's outermost node and the out-of-band node next to it, where it is found
by bisection.  So within one (k, sign) the intervals are disjoint, one per
seeded run, and a point can only lie in intervals of its own level or the
two adjacent ones, which caps the covering multiplicity at 3.  A run that
reaches an end of the window has no interval inside it; its seeds are
window exits.

:func:`seeded_runs` finds the runs of one sign along every line of a
sampled array at once, for one level or one level per line: the 1D build
scans all levels of a sign in one call, and the 2D slab build in
:mod:`gnsparse.sparse2d` shares it.  A family is one table of columns z, y,
k and sign, which the rasterization, the checks and the report read.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, CorpusConfigError
from .grid import interval_integrals
from .operator import CellFamily, flat_ranges

BISECT_TOL_FACTOR = 1e-3  # endpoint tolerance, in grid steps
OVERLAP_LIMIT_1D = 3  # intervals of three adjacent levels at most cover a point
POINTWISE_SLACK = 0.02  # quadrature cushion on the pointwise and observation bounds
EXIT_FRACTION_LIMIT = 0.01  # share of eligible nodes (or 2D cells) that may exit the window
NO_LEVEL = -(2**30)  # the level of a sample that is not positive; far below every band


def level_index(v: float) -> int:
    """The unique k with 2^(k-1) <= v < 2^k."""
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError(f"level index needs a positive finite value, got {v}")
    return math.frexp(v)[1]


def level_floor(k: int) -> float:
    """2^(k-1), exact in binary floating point."""
    return math.ldexp(1.0, k - 1)


def levels_of(g) -> np.ndarray:
    """The level of each sample of g: the unique k with 2^(k-1) <= g < 2^k,
    which is g's binary exponent, where g > 0, and NO_LEVEL elsewhere."""
    g = np.asarray(g, dtype=float)
    return np.where(g > 0.0, np.frexp(g)[1], NO_LEVEL)


class SparseFamily1D:
    """Escape intervals in (k, sign, z) order on a Grid1D, the bookkeeping of
    the build, and what is fixed at build: the interval table ``intervals``
    (a record array with columns z, y, k and sign, one row per interval;
    read it by column, since row access builds one record object per row),
    its interval ends ``z`` and ``y``, per interval the index range [i0, i1)
    of the nodes strictly inside it (``i0``, ``i1``), and the intervals
    rasterized to the grid's cells (``cells``), whose counts and maximum
    are the family's overlap."""

    def __init__(self, k, sign, z, y, grid, d1, k_min, window_exit_nodes, eligible_count, unanalyzed_count):
        self.intervals = np.rec.fromarrays([z, y, k, sign], names="z,y,k,sign")
        self.z, self.y = self.intervals.z, self.intervals.y
        self.nodes = grid.nodes()
        self.d1 = np.asarray(d1, dtype=float)
        self.k_min = k_min
        self.window_exit_nodes = list(window_exit_nodes)
        self.eligible_count = int(eligible_count)
        self.unanalyzed_count = int(unanalyzed_count)
        self.i0 = np.searchsorted(self.nodes, self.z, side="right")
        self.i1 = np.searchsorted(self.nodes, self.y, side="left")
        self.cells = CellFamily.from_intervals(self.z, self.y, grid)

    def __len__(self):
        return len(self.intervals)


class SeededRuns(NamedTuple):
    """The in-band runs of one sign that hold a seed, along lines.

    A run that closes inside its line gives its line and its first and last
    in-band index.  A run that reaches an end of its line gives instead its
    seeds, each with its line.
    """

    line: np.ndarray
    first: np.ndarray
    last: np.ndarray
    exit_line: np.ndarray
    exit_index: np.ndarray


def seeded_runs(levels: np.ndarray, seeds: np.ndarray, k) -> SeededRuns:
    """Maximal runs along each row inside the widened band of the row's level.

    ``seeds`` is a boolean array with one row per line, True only at in-band
    entries.  ``levels`` holds the levels (:func:`levels_of`) of sign*u'
    samples and ``k`` the band levels; both broadcast against ``seeds``
    row-wise: ``levels`` is one row per line or one row for all, ``k`` one
    level for all rows or one per row.  An entry is in band when its level
    is within one of its row's.  Only runs holding a seed are returned, in
    row-major order, as are exit seeds.
    """
    width = seeds.shape[1]
    in_band = np.zeros((seeds.shape[0], width + 2), dtype=np.int8)
    in_band[:, 1:-1] = np.abs(levels - np.reshape(k, (-1, 1))) <= 1
    step = np.diff(in_band, axis=1)
    # row-major flat indices split by the row width: on these arrays
    # np.flatnonzero and divmod take a fraction of a 2-D np.nonzero
    line, first = np.divmod(np.flatnonzero(step == 1), width + 1)
    last = np.flatnonzero(step == -1) % (width + 1) - 1
    seed_flat = np.flatnonzero(seeds)
    seed_line, seed_index = np.divmod(seed_flat, width)
    run = np.searchsorted(line * width + first, seed_flat, side="right") - 1
    exits = ((first == 0) | (last == width - 1))[run]
    closed = run[~exits]  # non-decreasing, as seeds are row-major; np.unique would import numpy.ma
    kept = closed[np.diff(closed, prepend=-1) > 0]
    return SeededRuns(
        line[kept],
        first[kept],
        last[kept],
        seed_line[exits],
        seed_index[exits],
    )


def _run_ends(u, nodes: np.ndarray, k, sign, first: np.ndarray, last: np.ndarray):
    """The escape-interval ends (z, y) of closed runs, bisected all at once.

    ``k`` and ``sign`` give each run's level and sign (or one for all).
    Each end starts bracketed by a run's outermost in-band node and the
    out-of-band node next to it, and is halved until the bracket is at most
    BISECT_TOL_FACTOR grid steps wide, with one evaluator call per halving
    step for all ends still open.  The result is the midpoint of the last
    bracket, so it lies strictly between those two nodes.
    """
    tol = float(nodes[1] - nodes[0]) * BISECT_TOL_FACTOR
    k = np.tile(k, 2)
    sign = np.tile(sign, 2)
    t_in = nodes[np.concatenate([first, last])]
    t_out = nodes[np.concatenate([first - 1, last + 1])]
    while True:
        wide = np.nonzero(np.abs(t_out - t_in) > tol)[0]
        if wide.size == 0:
            break
        mid = 0.5 * (t_in[wide] + t_out[wide])
        v = sign[wide] * np.asarray(u.evaluate(mid, (1,))[0], dtype=float)
        inside = np.abs(levels_of(v) - k[wide]) <= 1
        t_in[wide[inside]] = mid[inside]
        t_out[wide[~inside]] = mid[~inside]
    ends = 0.5 * (t_in + t_out)
    return ends[: len(first)], ends[len(first) :]


def k_min_for_sup(sup: float) -> int:
    """Smallest k whose level floor 2^(k-1) is >= 1e-6 * sup; 0 for sup 0."""
    if sup == 0.0:
        return 0
    m, e = math.frexp(1e-6 * sup)
    return e if m == 0.5 else e + 1


def default_k_min(u) -> int:
    """k_min_for_sup of sup|u'|.

    The sup norm comes from a fixed fine probe so that the analyzed level
    range does not move when the grid is refined.
    """
    return k_min_for_sup(u.sup_norm((1,))[0])


def check_exit_budget(u, exits: int, eligible: int, what: str):
    """Raise CorpusConfigError when more than EXIT_FRACTION_LIMIT of the
    eligible nodes or cells (``what``) of u exit the window."""
    if eligible and exits > EXIT_FRACTION_LIMIT * eligible:
        raise CorpusConfigError(
            f"{exits} of {eligible} eligible {what} exit the window "
            f"({exits / eligible:.1%} > {EXIT_FRACTION_LIMIT:.0%}); "
            f"function {u.label!r} is not sufficiently localized in its window"
        )


def build_family_1d(u, k_min: int) -> SparseFamily1D:
    """Assemble the two-sign escape-interval family of u, one interval per
    seeded run, in (k, sign, z) order.

    Nodes whose interval would leave the window are excluded and recorded;
    more than EXIT_FRACTION_LIMIT of them is a corpus-configuration
    error (the window is too small for the function).
    """
    nodes = u.grid.nodes()
    d1 = np.asarray(u.d1, dtype=float)
    lev = levels_of(np.abs(d1))

    eligible_count = int(np.count_nonzero(lev >= k_min))
    unanalyzed = int(np.count_nonzero(lev > NO_LEVEL)) - eligible_count

    runs_found = [np.zeros((0, 4), dtype=np.int64)]  # rows (k, sign, first, last) of closed runs
    exit_nodes = []

    for sign in (1, -1):
        signed = np.where(sign * d1 > 0.0, lev, NO_LEVEL)
        k_top = int(np.max(signed))
        if k_top < k_min:
            continue
        levels = np.arange(k_min, k_top + 1)[:, None]  # one row per level
        runs = seeded_runs(signed[None], signed == levels, levels)
        exit_nodes.extend(runs.exit_index.tolist())
        k = levels[runs.line, 0]
        runs_found.append(np.column_stack([k, np.full_like(k, sign), runs.first, runs.last]))

    check_exit_budget(u, len(exit_nodes), eligible_count, "nodes")

    # the runs of one (k, sign) are disjoint, so sorting by first sorts by z
    runs = np.concatenate(runs_found, dtype=np.int64)
    k, sign, first, last = runs[np.lexsort((runs[:, 2], runs[:, 1], runs[:, 0]))].T
    z, y = _run_ends(u, nodes, k, sign, first, last)
    return SparseFamily1D(k, sign, z, y, u.grid, d1, k_min, exit_nodes, eligible_count, unanalyzed)


def _interval_integrals(u, family: SparseFamily1D):
    """The integrals of |u''| and of |u| over each interval of the family,
    by analytic quadrature with one evaluator call for both orders and the
    whole family."""
    return interval_integrals(lambda t: [np.abs(f) for f in u.evaluate(t, (2, 0))], family.z, family.y, u.grid.h)


def verify_pointwise_1d(u, family: SparseFamily1D):
    """Per-node ratio u'(x)^2 / sum over covering intervals of the product
    of interval averages of |u''| and |u|; the paper bound for the max is 128.

    Each node receives the products of its covering intervals in interval
    order, so the sums are those of a loop over the intervals.
    """
    nodes = family.nodes
    int_d2, int_u = _interval_integrals(u, family)
    length = family.y - family.z
    a2 = int_d2 / length
    a0 = int_u / length
    vanishing = np.flatnonzero((a2 <= 0.0) | (a0 < 0.0))
    if vanishing.size:
        i = vanishing[0]
        raise ConstructionError(
            f"interval {i} ({family.z[i]}, {family.y[i]}) has vanishing |u''| average; "
            "u' cannot traverse a dyadic band with u'' = 0"
        )
    i0, i1 = family.i0, family.i1
    denom = np.bincount(flat_ranges(i0, i1), weights=np.repeat(a2 * a0, i1 - i0), minlength=len(nodes))
    covered = denom > 0.0
    ratios = np.zeros(len(nodes))
    np.divide(family.d1**2, denom, out=ratios, where=covered)
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    return ratios, max_ratio


def coverage_report(family: SparseFamily1D):
    """(uncovered eligible non-exit node indices, covered mask)."""
    covered = np.zeros(len(family.nodes), dtype=bool)
    covered[flat_ranges(family.i0, family.i1)] = True
    should = levels_of(np.abs(family.d1)) >= family.k_min
    should[family.window_exit_nodes] = False
    uncovered = np.nonzero(should & ~covered)[0]
    return uncovered, covered
