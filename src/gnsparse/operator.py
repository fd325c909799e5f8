"""The sparse averaging operator T f = sum over sets P of (mean_P f) * chi_P.

Interval families (1D) and slab families (2D) rasterize to sets of grid
cells by the center-in-open-set rule; the operator, its overlap constant K,
and the norm and modular contraction checks all act on those cell sets, so
the comparisons are exact convex-combination arithmetic up to rounding.
T maps a CellField (which carries the cell measure) to a CellField.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegionError
from .norms import modular, norm_tolerance, space_norm
from .rearrangement import CellField

MODULAR_SLACK = 1e-6


def flat_ranges(starts, stops) -> np.ndarray:
    """The indices of the ranges [starts[i], stops[i]), concatenated in
    range order; an empty range adds nothing."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.maximum(np.asarray(stops, dtype=np.int64) - starts, 0)
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


class CellFamily:
    """Rasterized family: one flat index into a flattened cell grid.

    Set i holds the cells ``index[offsets[i] : offsets[i] + sizes[i]]``.
    The sets are fixed once built, so the per-cell set counts (``counts``)
    and their maximum, the overlap constant K (``max_overlap``), are
    computed here once.
    """

    def __init__(self, index, sizes, n_cells: int, dropped: int = 0):
        self.index = np.asarray(index, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if np.any(self.sizes <= 0):
            raise EmptyRegionError("rasterized family contains an empty cell set")
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.n_cells = int(n_cells)
        self.dropped = int(dropped)
        self.counts = np.bincount(self.index, minlength=self.n_cells)
        if self.counts.size > self.n_cells:
            raise ValueError(f"cell index {self.index.max()} out of range for {self.n_cells} cells")
        self.max_overlap = int(self.counts.max(initial=0))

    def __len__(self):
        return len(self.sizes)

    @classmethod
    def from_intervals(cls, intervals, grid) -> "CellFamily":
        """Cells whose center lies strictly inside (z, y), per interval.

        Intervals that trap no cell center are dropped and counted; they
        carry no operator contribution at this resolution.
        """
        centers = grid.centers()
        z = np.array([iv.z for iv in intervals], dtype=float)
        y = np.array([iv.y for iv in intervals], dtype=float)
        i0 = np.searchsorted(centers, z, side="right")
        i1 = np.searchsorted(centers, y, side="left")
        kept = i1 > i0
        return cls(flat_ranges(i0, i1), (i1 - i0)[kept], len(centers), np.count_nonzero(~kept))

    @classmethod
    def from_masks(cls, masks) -> "CellFamily":
        """The cells of each boolean mask; masks holding no cell are
        dropped and counted."""
        masks = list(masks)
        sets = [np.flatnonzero(mask) for mask in masks]
        sizes = np.array([s.size for s in sets], dtype=np.int64)
        index = np.concatenate(sets) if sets else np.zeros(0, dtype=np.int64)
        n_cells = np.size(masks[-1]) if masks else 0
        return cls(index, sizes[sizes > 0], n_cells, np.count_nonzero(sizes == 0))


def apply_sparse_operator(family: CellFamily, f: CellField) -> CellField:
    """T f on cells: each set's mean, added to its cells in set order."""
    v = f.values
    if v.size != family.n_cells:
        raise ValueError(f"expected {family.n_cells} cell values, got {v.size}")
    if not len(family):  # np.bincount with no weights at all counts in integers
        return CellField.of_nonnegative(np.zeros_like(v), f.cell_measure)
    means = np.add.reduceat(v[family.index], family.offsets) / family.sizes
    tf = np.bincount(family.index, weights=np.repeat(means, family.sizes), minlength=family.n_cells)
    return CellField.of_nonnegative(tf, f.cell_measure)


def operator_norm_check(space, family: CellFamily, f: CellField, tf: CellField):
    """||T f||_X versus K ||f||_X with K the exact cell overlap maximum.

    ``tf`` is T f on the family's cells.  Returns (lhs, rhs, K, ok).  Zero
    input is a vacuous pass.
    """
    K = family.max_overlap
    lhs = space_norm(space, tf)
    rhs = K * space_norm(space, f)
    ok = lhs <= rhs * (1.0 + norm_tolerance(space)) or lhs == 0.0
    return lhs, rhs, K, ok


def modular_contraction_check(young, family: CellFamily, f: CellField, tf: CellField):
    """rho(T f / K) <= rho(f) within slack; the convexity form of the bound.

    ``tf`` is T f on the family's cells.  Returns (lhs, rhs, ok).
    """
    K = family.max_overlap
    lhs = modular(young, tf, scale=K) if K else 0.0
    rhs = modular(young, f)
    return lhs, rhs, lhs <= rhs * (1.0 + MODULAR_SLACK)
