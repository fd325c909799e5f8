"""Plain per-item loops that the library's vectorized code is checked
against, and numerical helpers that only tests use.

Each loop does its work one set, one interval or one block at a time, the
way the library did before it handled whole families in one pass.  The
readers of a CellField's rearrangement (f*, f**, the distribution function)
and of a text report (interval records, slab masks) live here too, with the
1D observation bounds (a) and (b) and their sum form, which no report runs,
the per-space and per-Young-function bounds on T that the majorization
certificate implies, and the dyadic maximal operator T is contrasted with.
"""

from fractions import Fraction

import numpy as np

from gnsparse.errors import ConstructionError, EmptyRegionError
from gnsparse.grid import GridFunction1D
from gnsparse.norms import modular, norm_tolerance, space_norm
from gnsparse.spaces import SpaceDescriptor, YoungFunction
from gnsparse.sparse1d import (
    POINTWISE_SLACK,
    SeededRuns,
    _interval_integrals,
    build_family_1d,
    default_k_min,
    level_floor,
)
from gnsparse.testfunctions import TestFunctionSpec, profile_jet


def sets_of(cells):
    """The cell sets of a CellFamily, one index array per set."""
    return np.split(cells.index, cells.offsets[1:]) if len(cells) else []


def loop_interval_sets(z, y, centers):
    """Per interval (z[i], y[i]), the cells whose center lies strictly
    inside it, from one pair of searchsorted calls each; (sets, dropped)
    where intervals that trap no center are dropped and counted."""
    sets, dropped = [], 0
    for a, b in zip(z, y):
        i0 = int(np.searchsorted(centers, a, side="right"))
        i1 = int(np.searchsorted(centers, b, side="left"))
        if i1 <= i0:
            dropped += 1
            continue
        sets.append(np.arange(i0, i1, dtype=np.int64))
    return sets, dropped


def loop_counts(sets, n_cells):
    """Per cell, the number of sets holding it, one set at a time."""
    counts = np.zeros(n_cells, dtype=np.int64)
    for s in sets:
        counts[s] += 1
    return counts


def loop_sparse_operator(sets, values):
    """T f = sum over sets P of (mean_P f) chi_P, one np.mean per set."""
    v = np.asarray(values, dtype=float).ravel()
    out = np.zeros_like(v)
    for s in sets:
        out[s] += float(np.mean(v[s]))
    return out


# spaces and Young functions in which a passing majorization certificate is
# checked directly, by the norm engine
BOUND_SPACES = tuple(
    SpaceDescriptor.parse(text) for text in ("L:1", "L:2", "L:inf", "Lor:2,2", "Lor:3/2,1", "Orl:pow:2", "Orl:exp")
)
BOUND_YOUNGS = tuple(YoungFunction("pow", (Fraction(p),)) for p in ("1", "3/2", "2", "3")) + (YoungFunction("exp"),)


def space_bound(space, cells, f, tf):
    """||T f||_X against K ||f||_X in the one space X, within the space's
    norm tolerance, with ``tf`` = T f and K the overlap constant of the
    CellFamily ``cells``: (lhs, rhs, ok).  A zero T f passes."""
    lhs, rhs = space_norm(space, tf), cells.max_overlap * space_norm(space, f)
    return lhs, rhs, lhs <= rhs * (1.0 + norm_tolerance(space)) or lhs == 0.0


def modular_bound(young, cells, f, tf, slack=1e-6):
    """rho(T f / K) against rho(f) for the one Young function rho, within a
    relative ``slack``: (lhs, rhs, ok)."""
    K = cells.max_overlap
    lhs = modular(young, tf, scale=K) if K else 0.0
    rhs = modular(young, f)
    return lhs, rhs, lhs <= rhs * (1.0 + slack)


def dyadic_maximal_operator(values):
    """M f on 2^L cells: at each cell, the largest mean of |f| over the dyadic
    blocks of cells that hold it, from pairwise means level by level."""
    means = np.abs(np.asarray(values, dtype=float))
    if means.size & (means.size - 1):
        raise ValueError(f"{means.size} cells is not a power of 2")
    out, size = means.copy(), 1
    while means.size > 1:
        means, size = 0.5 * (means[0::2] + means[1::2]), 2 * size
        np.maximum(out, np.repeat(means, size), out=out)
    return out


def interval_table(u, family):
    """Per family interval: its row of the interval table, its node range
    [i0, i1), and the integrals of |u''| and of |u| over it."""
    int_d2, int_u = _interval_integrals(u, family)
    return zip(family.intervals, family.i0, family.i1, int_d2.tolist(), int_u.tolist())


def observation_bounds_report(u, family):
    """Run both observation bounds at every family seed with its own interval.

    Every analyzed non-exit node is interior to its own escape interval, and
    within one (k, sign) those intervals coincide, so checking each distinct
    interval against all its in-level interior nodes covers every node the
    family makes a claim about.  Returns (worst slack a, worst slack b,
    all_pass) where the worst slacks are max over nodes of lhs/rhs.
    """
    worst_a = 0.0
    worst_b = 0.0
    for iv, i0, i1, int_d2, int_u in interval_table(u, family):
        bound_a = 4.0 * int_d2
        bound_b = 32.0 / (iv.y - iv.z) ** 2 * int_u
        g = iv.sign * family.d1[i0:i1]
        k = int(iv.k)
        own = (g >= level_floor(k)) & (g < level_floor(k + 1))
        if not np.any(own):
            continue
        vmax = float(np.max(g[own]))
        worst_a = max(worst_a, vmax / bound_a)
        worst_b = max(worst_b, vmax / bound_b)
    return worst_a, worst_b, max(worst_a, worst_b) <= 1.0 + POINTWISE_SLACK


def factorized_bounds_report(u, family):
    """The sum-form restatement: at every covered node x,
    |u'(x)| <= 4 * sum over covering P of int_P |u''|, and
    |u'(x)| <= 96 / |P|^2 * int_P |u| for every covering P.
    """
    sum_d2 = np.zeros(len(family.nodes))
    ok_b = True
    for iv, i0, i1, int_d2, int_u in interval_table(u, family):
        sum_d2[i0:i1] += int_d2
        bound = 96.0 / (iv.y - iv.z) ** 2 * int_u * (1.0 + POINTWISE_SLACK)
        if np.any(np.abs(family.d1[i0:i1]) > bound):
            ok_b = False
    covered = sum_d2 > 0.0
    ok_a = bool(np.all(np.abs(family.d1[covered]) <= 4.0 * sum_d2[covered] * (1.0 + POINTWISE_SLACK)))
    return ok_a, ok_b


def loop_pointwise_1d(u, family):
    """verify_pointwise_1d's ratios, one interval slice at a time."""
    denom = np.zeros(len(family.nodes))
    for iv, i0, i1, int_d2, int_u in interval_table(u, family):
        a2 = int_d2 / (iv.y - iv.z)
        a0 = int_u / (iv.y - iv.z)
        if a2 <= 0.0 or a0 < 0.0:
            raise ConstructionError(f"interval ({iv.z}, {iv.y}) has vanishing |u''| average")
        denom[i0:i1] += a2 * a0
    ratios = np.zeros(len(family.nodes))
    np.divide(family.d1**2, denom, out=ratios, where=denom > 0.0)
    return ratios



def float_band(k, below, above):
    """The band [2^(k-1-below), 2^(k+above)) of level k, or of each level of
    an integer array as a column, from level_floor's scalar edges."""
    ks = np.reshape(k, (-1, 1)).tolist()
    lo = np.array([[level_floor(j - below)] for (j,) in ks])
    hi = np.array([[level_floor(j + 1 + above)] for (j,) in ks])
    return lo, hi


def nonzero_seeded_runs(g, seeds, k):
    """sparse1d.seeded_runs of the samples g, with the widened bands of
    float_band and (row, column) indices from 2-D np.nonzero."""
    lo, hi = float_band(k, 1, 1)
    in_band = np.zeros((seeds.shape[0], seeds.shape[1] + 2), dtype=np.int8)
    in_band[:, 1:-1] = (g >= lo) & (g < hi)
    step = np.diff(in_band, axis=1)
    line, first = np.nonzero(step == 1)
    last = np.nonzero(step == -1)[1] - 1
    seed_line, seed_index = np.nonzero(seeds)
    width = seeds.shape[1]
    run = np.searchsorted(line * width + first, seed_line * width + seed_index, side="right") - 1
    exits = ((first == 0) | (last == width - 1))[run]
    kept = np.unique(run[~exits])
    return SeededRuns(
        line[kept],
        first[kept],
        last[kept],
        seed_line[exits],
        seed_index[exits],
    )

def blocked_sup_norm(u, orders):
    """A GridFunction2D's sups over its probe lattice, scanned block by
    block through the evaluator."""
    x = np.linspace(u.grid.gx.a, u.grid.gx.b, u.SUP_PROBE + 1)
    y = np.linspace(u.grid.gy.a, u.grid.gy.b, u.SUP_PROBE + 1)
    partials = [u._axis_partial(j) for j in orders]
    sups = np.zeros(len(partials))
    for _, fields in u._blocks(x, y, partials):
        sups = np.maximum(sups, [np.max(np.abs(f)) for f in fields])
    return tuple(float(s) for s in sups)


def radial_profile_sup_norm(spec, orders):
    """The sups over the plane of the pure partials of a compactly supported
    radial spec u = P(r/w), one order at a time, from the cos^4 profile P on
    GridFunction1D.SUP_PROBE cells of s in [0, 1]: at each radius the sup
    over directions is |P| (order 0), |P'| / w (order 1) and
    max(|P''|, |P'/s|) / w^2 (order 2), where P'/s takes at s = 0 the limit
    -pi^2 A that the radial evaluator uses."""
    s = np.linspace(0.0, 1.0, GridFunction1D.SUP_PROBE + 1)
    w = spec.widths()[0]
    shape = TestFunctionSpec("smooth-bump", 0.0, 1.0, spec.amplitude)  # P, as a 1D profile
    sups = []
    for j in orders:
        (p,) = profile_jet(shape, s, (j,))
        peak = float(np.max(np.abs(p)))
        if j == 2:
            (p1,) = profile_jet(shape, s, (1,))
            slope = np.concatenate([[-np.pi**2 * spec.amplitude], p1[1:] / s[1:]])
            peak = max(peak, float(np.max(np.abs(slope))))
        sups.append(peak / w**j)
    return tuple(sups)


def fd_consistency_error(f) -> float:
    """Max deviation of analytic d1 from the central difference of values:
    the node samples in 1D, the center fields in 2D.

    Used by the O(h^2) refinement property: halving h quarters this number
    for smooth functions.
    """
    if f.dim == 1:
        h = f.grid.h
        (values,) = f.evaluate(f.grid.nodes(), (0,))
        fd = (values[2:] - values[:-2]) / (2.0 * h)
        return float(np.max(np.abs(f.d1[1:-1] - fd)))
    values, d1 = f.center_values(0), f.center_values(1)
    if f.axis == 1:
        h = f.grid.gx.h
        fd = (values[2:, :] - values[:-2, :]) / (2.0 * h)
        return float(np.max(np.abs(d1[1:-1, :] - fd)))
    h = f.grid.gy.h
    fd = (values[:, 2:] - values[:, :-2]) / (2.0 * h)
    return float(np.max(np.abs(d1[:, 1:-1] - fd)))


def quadrature_integral(f, region=None) -> float:
    """Composite trapezoid integral of node samples over a node-index range.

    ``f`` is a GridFunction1D or a pair ``(node_values, Grid1D)``.  ``region``
    is ``None`` for the whole window or a contiguous ``(i0, i1)`` node-index
    range with i0 < i1.
    """
    if isinstance(f, GridFunction1D):
        vals, grid = f.evaluate(f.grid.nodes(), (0,))[0], f.grid
    else:
        vals, grid = np.asarray(f[0], dtype=float), f[1]
    if region is None:
        i0, i1 = 0, len(vals) - 1
    else:
        i0, i1 = region
    if not i0 < i1:
        raise EmptyRegionError(f"degenerate node range ({i0}, {i1})")
    seg = vals[i0 : i1 + 1]
    return float(grid.h * (np.sum(seg) - 0.5 * (seg[0] + seg[-1])))


def quadrature_integral_2d(values, grid, region=None) -> float:
    """Product-trapezoid integral of 2D node samples over index ranges."""
    vals = np.asarray(values, dtype=float)
    if region is None:
        ri, rj = (0, vals.shape[0] - 1), (0, vals.shape[1] - 1)
    else:
        ri, rj = region
    if not (ri[0] < ri[1] and rj[0] < rj[1]):
        raise EmptyRegionError(f"degenerate node range {region}")
    sub = vals[ri[0] : ri[1] + 1, rj[0] : rj[1] + 1]
    wx = np.ones(sub.shape[0])
    wx[0] = wx[-1] = 0.5
    wy = np.ones(sub.shape[1])
    wy[0] = wy[-1] = 0.5
    return float(grid.cell_area * (wx @ sub @ wy))


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
    narrow = family.intervals.k[family.y - family.z < threshold]
    while narrow.size:
        floor = int(narrow.max()) + 1
        family = build_family_1d(u, floor)
        narrow = family.intervals.k[family.y - family.z < threshold]
    return floor


def star(f, t):
    """f*(t) of a CellField; right continuous, 0 beyond the support measure."""
    t = np.asarray(t, dtype=float)
    idx = np.searchsorted(f.breaks, t, side="right") - 1
    out = np.zeros(t.shape)
    inside = (idx >= 0) & (idx < len(f.heights))
    out[inside] = f.heights[idx[inside]]
    return out if out.shape else float(out)


def double_star(f, t):
    """f**(t) = (1/t) int_0^t f* of a CellField; ||f||_1 / t past the support."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("f** is defined for t > 0")
    idx = np.searchsorted(f.breaks, t, side="right") - 1
    idx = np.clip(idx, 0, len(f.heights))
    out = np.empty(t.shape)
    tail = idx >= len(f.heights)
    out[tail] = f.total_integral / t[tail]
    inner = ~tail
    i = idx[inner]
    partial = f.cum_integral[i] + (t[inner] - f.breaks[i]) * f.heights[i]
    out[inner] = partial / t[inner]
    return out if out.shape else float(out)


def distribution(f, s):
    """The measure of {|f| > s} for a CellField."""
    s = np.asarray(s, dtype=float)
    # heights ascend when reversed; count plateaus strictly above s
    idx = np.searchsorted(-f.heights, -s, side="left")
    out = f.breaks[idx]
    return out if out.shape else float(out)


def equimeasurable(a, b, rel_tol: float = 1e-9) -> bool:
    """Whether two CellFields share a distribution function.

    Compared at every plateau height of either field, which determines a
    step-valued distribution completely.
    """
    if a.is_zero and b.is_zero:
        return True
    probe = np.unique(np.concatenate([a.heights, b.heights]))
    probe = np.concatenate([[0.0], probe, probe * (1.0 - 1e-12)])
    scale = max(a.support_measure, b.support_measure)
    return bool(np.all(np.abs(distribution(a, probe) - distribution(b, probe)) <= rel_tol * scale))


def young_inverses_agree(a, b, rel_tol: float = 1e-9) -> bool:
    """Whether two Young functions have the same inverse, sampled on 49
    points of a log grid in [1e-6, 1e6] at ``rel_tol`` relative: the
    numerical counterpart of comparing their keys."""
    ss = np.logspace(-6.0, 6.0, 49)
    va, vb = a.inverse(ss), b.inverse(ss)
    return bool(np.all(np.abs(va - vb) <= rel_tol * np.maximum(va, vb)))


def loop_weak_lorentz_norm(f, P) -> float:
    """The Lor:P,inf norm sup t^(1/P) f**(t) of a CellField, one plateau at a
    time: the first plateau's right end, each later plateau's two ends and
    its interior critical point, and the support measure for the tail."""
    if f.is_zero:
        return 0.0
    a = float(1 / P)
    heights, breaks, cum = f.heights, f.breaks, f.cum_integral
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
    best = max(best, f.support_measure ** (a - 1.0) * f.total_integral)  # tail decreases: sup at s0
    return float(best)



def quadrature_lorentz_norm(f, P, p) -> float:
    """The Lor:P,p norm of a CellField for a finite p, with every interior
    plateau integral int t^(p/P - 1) f**(t)^p dt taken by 16-point
    Gauss-Legendre, one node at a time over all plateaus.

    f** = v + A/t has a pole at t = 0, so 16 nodes are exact only on pieces
    whose ends are close in ratio; each plateau [t0, t1] is split
    geometrically into ceil(log2(t1/t0)) pieces, none wider than a factor
    2.  The first plateau and the tail are the closed forms the library
    uses."""
    if f.is_zero:
        return 0.0
    a = float(1 / P)
    pf = float(p)
    heights, breaks, cum = f.heights, f.breaks, f.cum_integral
    alpha = pf * a
    acc = heights[0] ** pf * breaks[1] ** alpha / alpha
    if len(heights) > 1:
        A = cum[1:-1] - breaks[1:-1] * heights[1:]
        v = heights[1:]
        t0, t1 = breaks[1:-1], breaks[2:]
        pieces = np.maximum(1, np.ceil(np.log2(t1 / t0))).astype(np.int64)
        owner = np.repeat(np.arange(v.size), pieces)
        j = np.arange(owner.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        ratio = (t1 / t0)[owner] ** (1.0 / pieces[owner])
        s0 = t0[owner] * ratio**j
        s1 = np.where(j == pieces[owner] - 1, t1[owner], s0 * ratio)
        A, v = A[owner], v[owner]
        mid = 0.5 * (s0 + s1)
        half = 0.5 * (s1 - s0)
        for x, w in zip(*np.polynomial.legendre.leggauss(16)):
            ts = mid + half * x
            acc += w * float(np.sum(half * ts ** (alpha - 1.0) * (A / ts + v) ** pf))
    acc += f.total_integral**pf * f.support_measure ** (alpha - pf) / (pf - alpha)
    return float(acc ** (1.0 / pf))

def parse_intervals(text: str):
    """Recover the interval table, a record array with columns z, y, k and
    sign, from a structured-text report (or fragment)."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["interval"]:
            fields = dict(zip(parts[1::2], parts[2::2]))
            rows.append((float(fields["z"]), float(fields["y"]), int(fields["k"]), int(fields["sign"])))
    return np.rec.fromrecords(rows, dtype=[("z", float), ("y", float), ("k", np.int64), ("sign", np.int64)])


def rle_decode(text: str) -> np.ndarray:
    """The boolean grid of serialize.rle_encode's 'RxC:a,b,c,...' text."""
    shape_part, _, runs_part = text.partition(":")
    rows_text, _, cols_text = shape_part.partition("x")
    rows, cols = int(rows_text), int(cols_text)
    out = np.zeros(rows * cols, dtype=bool)
    pos = 0
    bit = False
    for token in runs_part.split(","):
        if token == "":
            continue
        length = int(token)
        if bit:
            out[pos : pos + length] = True
        pos += length
        bit = not bit
    if pos != out.size:
        raise ValueError(f"run lengths cover {pos} cells of {out.size}")
    return out.reshape(rows, cols)
