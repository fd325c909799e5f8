"""The sparse averaging operator T f = sum over sets P of (mean_P f) * chi_P.

Interval families (1D) and slab families (2D) rasterize to sets of grid
cells by the center-in-open-set rule; the operator, its overlap constant K,
and the norm and modular contraction checks all act on those cell sets, so
the comparisons are exact convex-combination arithmetic up to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegionError
from .norms import modular, norm_tolerance, space_norm

MODULAR_SLACK = 1e-6


class CellFamily:
    """Rasterized family: index arrays into a flattened cell grid.

    The sets are fixed once built, so the per-cell set counts (``counts``)
    and their maximum, the overlap constant K (``max_overlap``), are
    computed here once.
    """

    def __init__(self, sets, labels, n_cells: int, cell_measure: float, dropped: int = 0):
        self.sets = [np.asarray(s, dtype=np.int64) for s in sets]
        self.labels = list(labels)
        self.n_cells = int(n_cells)
        self.cell_measure = float(cell_measure)
        self.dropped = int(dropped)
        self.counts = np.zeros(self.n_cells, dtype=np.int64)
        for s in self.sets:
            if s.size == 0:
                raise EmptyRegionError("rasterized family contains an empty cell set")
            self.counts[s] += 1
        self.max_overlap = int(self.counts.max(initial=0))

    def __len__(self):
        return len(self.sets)

    @classmethod
    def from_intervals(cls, intervals, grid) -> "CellFamily":
        """Cells whose center lies strictly inside (z, y), per interval.

        Intervals that trap no cell center are dropped and counted; they
        carry no operator contribution at this resolution.
        """
        centers = grid.centers()
        sets, labels = [], []
        dropped = 0
        for iv in intervals:
            i0 = int(np.searchsorted(centers, iv.z, side="right"))
            i1 = int(np.searchsorted(centers, iv.y, side="left"))
            if i1 <= i0:
                dropped += 1
                continue
            sets.append(np.arange(i0, i1, dtype=np.int64))
            labels.append((iv.k, iv.sign))
        return cls(sets, labels, len(centers), grid.h, dropped)

    @classmethod
    def from_masks(cls, masks, labels, cell_measure: float) -> "CellFamily":
        sets, kept_labels = [], []
        dropped = 0
        n_cells = None
        for mask, label in zip(masks, labels):
            flat = np.asarray(mask, dtype=bool).ravel()
            n_cells = flat.size
            idx = np.nonzero(flat)[0]
            if idx.size == 0:
                dropped += 1
                continue
            sets.append(idx)
            kept_labels.append(label)
        if n_cells is None:
            n_cells = 0
        return cls(sets, kept_labels, n_cells, cell_measure, dropped)


def apply_sparse_operator(family: CellFamily, values) -> np.ndarray:
    """T f on cells."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size != family.n_cells:
        raise ValueError(f"expected {family.n_cells} cell values, got {v.size}")
    out = np.zeros_like(v)
    for s in family.sets:
        out[s] += float(np.mean(v[s]))
    return out


def operator_norm_check(space, family: CellFamily, values, tf):
    """||T|f|||_X versus K ||f||_X with K the exact cell overlap maximum.

    ``tf`` is T|f| on the family's cells.  Returns (lhs, rhs, K, ok).  Zero
    input is a vacuous pass.
    """
    K = family.max_overlap
    lhs = space_norm(space, tf, family.cell_measure)
    rhs = K * space_norm(space, values, family.cell_measure)
    ok = lhs <= rhs * (1.0 + norm_tolerance(space)) or lhs == 0.0
    return lhs, rhs, K, ok


def modular_contraction_check(young, family: CellFamily, values, tf):
    """rho(T|f| / K) <= rho(f) within slack; the convexity form of the bound.

    ``tf`` is T|f| on the family's cells.  Returns (lhs, rhs, ok).
    """
    K = family.max_overlap
    lhs = modular(young, tf / K, family.cell_measure) if K else 0.0
    rhs = modular(young, values, family.cell_measure)
    return lhs, rhs, lhs <= rhs * (1.0 + MODULAR_SLACK)
