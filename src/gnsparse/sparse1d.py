"""One-dimensional sparse interval coverings from dyadic level sets of u'.

For each sign s and level k, the nodes with 2^(k-1) <= s*u' < 2^k seed
maximal open intervals on which s*u' stays inside the widened band
[2^(k-2), 2^(k+1)).  Such an interval is fixed by the maximal run of
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
:mod:`gnsparse.sparse2d` shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, CorpusConfigError
from .grid import interval_integrals

BISECT_TOL_FACTOR = 1e-3  # endpoint tolerance, in grid steps
OVERLAP_LIMIT_1D = 3  # intervals of three adjacent levels at most cover a point
POINTWISE_SLACK = 0.02  # quadrature cushion on the pointwise and observation bounds
EXIT_FRACTION_LIMIT = 0.01  # share of eligible nodes (or 2D cells) that may exit the window


def level_index(v: float) -> int:
    """The unique k with 2^(k-1) <= v < 2^k."""
    if not (v > 0.0 and math.isfinite(v)):
        raise ValueError(f"level index needs a positive finite value, got {v}")
    return math.frexp(v)[1]


def level_floor(k: int) -> float:
    """2^(k-1), exact in binary floating point."""
    return math.ldexp(1.0, k - 1)


def level_band(k):
    """A level's own band [2^(k-1), 2^k) for level k (or each level of an
    integer array)."""
    return np.ldexp(1.0, k - 1), np.ldexp(1.0, k)


def band_edges(k):
    """The widened escape band [2^(k-2), 2^(k+1)) for level k (or each level
    of an integer array)."""
    return np.ldexp(1.0, k - 2), np.ldexp(1.0, k + 1)


@dataclass(frozen=True)
class EscapeInterval:
    z: float
    y: float
    k: int
    sign: int
    seed: float

    @property
    def length(self) -> float:
        return self.y - self.z

    def contains(self, x) -> bool:
        return self.z < x < self.y


class SparseFamily1D:
    """Escape intervals in (k, sign, z) order, the bookkeeping of the build,
    and the per-node covering counts fixed at build (``counts``) with their
    maximum (``max_overlap``)."""

    def __init__(self, intervals, nodes, d1, k_min, window_exit_nodes, eligible_count, unanalyzed_count):
        self.intervals = list(intervals)
        self.nodes = np.asarray(nodes, dtype=float)
        self.d1 = np.asarray(d1, dtype=float)
        self.k_min = k_min
        self.window_exit_nodes = list(window_exit_nodes)
        self.eligible_count = int(eligible_count)
        self.unanalyzed_count = int(unanalyzed_count)
        self.counts = np.zeros(len(self.nodes), dtype=np.int64)
        for i0, i1 in zip(*self.node_ranges()):
            self.counts[i0:i1] += 1
        self.max_overlap = int(self.counts.max(initial=0))

    def __len__(self):
        return len(self.intervals)

    def node_ranges(self):
        """Per interval, the index range [i0, i1) of the nodes strictly inside it."""
        z = np.array([iv.z for iv in self.intervals], dtype=float)
        y = np.array([iv.y for iv in self.intervals], dtype=float)
        return np.searchsorted(self.nodes, z, side="right"), np.searchsorted(self.nodes, y, side="left")


class SeededRuns(NamedTuple):
    """The in-band runs of one sign that hold a seed, along lines.

    A run that closes inside its line gives its line, its first and last
    in-band index and its first seed index.  A run that reaches an end of
    its line gives instead its seeds, each with its line.
    """

    line: np.ndarray
    first: np.ndarray
    last: np.ndarray
    seed: np.ndarray
    exit_line: np.ndarray
    exit_index: np.ndarray


def seeded_runs(g: np.ndarray, seeds: np.ndarray, k) -> SeededRuns:
    """Maximal runs along each row inside the widened band of the row's level.

    ``seeds`` is a boolean array with one row per line, True only at in-band
    entries.  ``g`` holds sign*u' samples and ``k`` the levels; both
    broadcast against ``seeds`` row-wise: ``g`` is one row per line or one
    row for all, ``k`` one level for all rows or one per row.  Only runs
    holding a seed are returned, in row-major order, as are exit seeds.
    """
    lo, hi = band_edges(np.reshape(k, (-1, 1)))
    in_band = np.zeros((seeds.shape[0], seeds.shape[1] + 2), dtype=np.int8)
    in_band[:, 1:-1] = (g >= lo) & (g < hi)
    step = np.diff(in_band, axis=1)
    line, first = np.nonzero(step == 1)
    last = np.nonzero(step == -1)[1] - 1
    seed_line, seed_index = np.nonzero(seeds)
    width = seeds.shape[1]
    run = np.searchsorted(line * width + first, seed_line * width + seed_index, side="right") - 1
    exits = ((first == 0) | (last == width - 1))[run]
    kept, head = np.unique(run[~exits], return_index=True)
    return SeededRuns(
        line[kept],
        first[kept],
        last[kept],
        seed_index[~exits][head],
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
    lo, hi = band_edges(np.tile(k, 2))
    sign = np.tile(sign, 2)
    t_in = nodes[np.concatenate([first, last])]
    t_out = nodes[np.concatenate([first - 1, last + 1])]
    while True:
        wide = np.nonzero(np.abs(t_out - t_in) > tol)[0]
        if wide.size == 0:
            break
        mid = 0.5 * (t_in[wide] + t_out[wide])
        v = sign[wide] * np.asarray(u.evaluate(mid, (1,))[0], dtype=float)
        inside = (v >= lo[wide]) & (v < hi[wide])
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


def resolved_k_min(u, min_cells: int = 4) -> int:
    """Smallest level floor at which every escape interval spans >= min_cells.

    Near the edge of a compact support the deepest level bands shrink below
    the cell size, so their interval endpoints (and with them the location
    of the worst pointwise ratio) jitter under refinement even though the
    bound itself holds with a wide margin.  Raising the floor to the levels
    the grid actually resolves gives per-level ratios that converge with h.
    Never returns less than default_k_min(u).
    """
    floor = default_k_min(u)
    family = build_family_1d(u, floor)
    threshold = min_cells * u.grid.h
    narrow = [iv.k for iv in family.intervals if iv.y - iv.z < threshold]
    while narrow:
        floor = max(narrow) + 1
        family = build_family_1d(u, floor)
        narrow = [iv.k for iv in family.intervals if iv.y - iv.z < threshold]
    return floor


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
    thr = level_floor(k_min)

    eligible = np.abs(d1) >= thr
    eligible_count = int(np.sum(eligible))
    unanalyzed = int(np.sum((np.abs(d1) > 0.0) & ~eligible))

    runs_found = [np.zeros((0, 5), dtype=np.int64)]  # rows (k, sign, first, last, seed) of closed runs
    exit_nodes = []

    for sign in (1, -1):
        g = sign * d1
        side = eligible & (g > 0.0)
        if not np.any(side):
            continue
        k_top = level_index(float(np.max(g[side])))
        levels = np.arange(k_min, k_top + 1)[:, None]  # one row per level
        lo, hi = level_band(levels)
        seeds = (g >= lo) & (g < hi)
        runs = seeded_runs(g[None], seeds, levels)
        exit_nodes.extend(runs.exit_index.tolist())
        k = levels[runs.line, 0]
        runs_found.append(np.column_stack([k, np.full_like(k, sign), runs.first, runs.last, runs.seed]))

    check_exit_budget(u, len(exit_nodes), eligible_count, "nodes")

    # the runs of one (k, sign) are disjoint, so sorting by first sorts by z
    runs = np.concatenate(runs_found, dtype=np.int64)
    k, sign, first, last, seed = runs[np.lexsort((runs[:, 2], runs[:, 1], runs[:, 0]))].T
    z, y = _run_ends(u, nodes, k, sign, first, last)
    intervals = [
        EscapeInterval(z=float(a), y=float(b), k=int(kk), sign=int(s), seed=float(nodes[i]))
        for a, b, kk, s, i in zip(z, y, k, sign, seed)
    ]
    return SparseFamily1D(intervals, nodes, d1, k_min, exit_nodes, eligible_count, unanalyzed)


def _interval_table(u, family: SparseFamily1D):
    """Per family interval: the interval, its node range [i0, i1), and the
    integrals of |u''| and of |u| over it, by analytic quadrature with one
    evaluator call for both orders and the whole family."""
    z = np.array([iv.z for iv in family.intervals], dtype=float)
    y = np.array([iv.y for iv in family.intervals], dtype=float)
    int_d2, int_u = interval_integrals(
        lambda t: [np.abs(f) for f in u.evaluate(t, (2, 0))], z, y, u.grid.h
    ).tolist()
    return zip(family.intervals, *family.node_ranges(), int_d2, int_u)


def verify_pointwise_1d(u, family: SparseFamily1D):
    """Per-node ratio u'(x)^2 / sum over covering intervals of the product
    of interval averages of |u''| and |u|; the paper bound for the max is 128.
    """
    nodes = family.nodes
    denom = np.zeros(len(nodes))
    for iv, i0, i1, int_d2, int_u in _interval_table(u, family):
        a2 = int_d2 / (iv.y - iv.z)
        a0 = int_u / (iv.y - iv.z)
        if a2 <= 0.0 or a0 < 0.0:
            raise ConstructionError(
                f"interval ({iv.z}, {iv.y}) has vanishing |u''| average; "
                "u' cannot traverse a dyadic band with u'' = 0"
            )
        denom[i0:i1] += a2 * a0
    covered = denom > 0.0
    ratios = np.zeros(len(nodes))
    np.divide(family.d1**2, denom, out=ratios, where=covered)
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    return ratios, max_ratio


def coverage_report(family: SparseFamily1D):
    """(uncovered eligible non-exit node indices, covered mask)."""
    covered = family.counts > 0
    should = np.abs(family.d1) >= level_floor(family.k_min)
    should[family.window_exit_nodes] = False
    uncovered = np.nonzero(should & ~covered)[0]
    return uncovered, covered


def observation_bounds_report(u, family: SparseFamily1D):
    """Run both observation bounds at every family seed with its own interval.

    Every analyzed non-exit node is interior to its own escape interval, and
    within one (k, sign) those intervals coincide, so checking each distinct
    interval against all its in-level interior nodes covers every node the
    family makes a claim about.  Returns (worst slack a, worst slack b,
    all_pass) where the worst slacks are max over nodes of lhs/rhs.
    """
    worst_a = 0.0
    worst_b = 0.0
    for iv, i0, i1, int_d2, int_u in _interval_table(u, family):
        bound_a = 4.0 * int_d2
        bound_b = 32.0 / iv.length**2 * int_u
        g = iv.sign * family.d1[i0:i1]
        lo, hi = level_band(iv.k)
        own = (g >= lo) & (g < hi)
        if not np.any(own):
            continue
        vmax = float(np.max(g[own]))
        worst_a = max(worst_a, vmax / bound_a)
        worst_b = max(worst_b, vmax / bound_b)
    return worst_a, worst_b, max(worst_a, worst_b) <= 1.0 + POINTWISE_SLACK


def factorized_bounds_report(u, family: SparseFamily1D):
    """The sum-form restatement: at every covered node x,
    |u'(x)| <= 4 * sum over covering P of int_P |u''|, and
    |u'(x)| <= 96 / |P|^2 * int_P |u| for every covering P.
    """
    sum_d2 = np.zeros(len(family.nodes))
    ok_b = True
    for iv, i0, i1, int_d2, int_u in _interval_table(u, family):
        sum_d2[i0:i1] += int_d2
        bound = 96.0 / iv.length**2 * int_u * (1.0 + POINTWISE_SLACK)
        if np.any(np.abs(family.d1[i0:i1]) > bound):
            ok_b = False
    covered = sum_d2 > 0.0
    ok_a = bool(np.all(np.abs(family.d1[covered]) <= 4.0 * sum_d2[covered] * (1.0 + POINTWISE_SLACK)))
    return ok_a, ok_b
