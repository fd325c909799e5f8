"""The sparse averaging operator T f = sum over sets P of (mean_P f) * chi_P,
and the majorization certificate that bounds it on every r.i. space.

Interval families (1D), given as arrays of interval ends, and slab families
(2D), given as boolean cell masks, rasterize to sets of grid cells by the
center-in-open-set rule, once per build, and keep the result as
``family.cells``: the overlap verdict, the operator and its overlap
constant K act on those cell sets.  T maps a CellField (which carries the
cell measure) to a CellField.  T's matrix sum_P |P|^-1 chi_P chi_P^T is
symmetric and nonnegative with row sums at most K, so T / K is doubly
substochastic: int_0^t (T f)* <= K int_0^t f* for every t.  That one
certificate bounds T in every r.i. space and contracts every modular, so
``modular_contraction_check`` is ``operator_norm_check`` by another name.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegionError
from .rearrangement import CellField

MAJORIZATION_SLACK = 1e-12


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

    def means(self, values) -> np.ndarray:
        """The mean of the flat cell array ``values`` over each set, each
        set's cells summed in order."""
        if not len(self):  # np.add.reduceat takes no empty offsets
            return np.zeros(0)
        return np.add.reduceat(values[self.index], self.offsets) / self.sizes

    def scatter(self, per_set) -> np.ndarray:
        """The flat cell array sum over sets i of per_set[i] * chi_(set i);
        each cell receives its sets' values in set order."""
        if not len(self):  # np.bincount with no weights at all counts in integers
            return np.zeros(self.n_cells)
        return np.bincount(self.index, weights=np.repeat(per_set, self.sizes), minlength=self.n_cells)

    @classmethod
    def from_intervals(cls, z, y, grid) -> "CellFamily":
        """Cells whose center lies strictly inside (z[i], y[i]), per
        interval i of the end arrays ``z`` and ``y``.

        Intervals that trap no cell center are dropped and counted; they
        carry no operator contribution at this resolution.
        """
        centers = grid.centers()
        i0 = np.searchsorted(centers, z, side="right")
        i1 = np.searchsorted(centers, y, side="left")
        kept = i1 > i0
        return cls(flat_ranges(i0, i1), (i1 - i0)[kept], len(centers), np.count_nonzero(~kept))

    @classmethod
    def from_masks(cls, masks, grid) -> "CellFamily":
        """The cells of each boolean mask over the cells [ix, iy] of a
        Grid2D; masks holding no cell are dropped and counted."""
        shape = (grid.gx.n, grid.gy.n)
        sets = []
        for mask in masks:
            if np.shape(mask) != shape:
                raise ValueError(f"mask of shape {np.shape(mask)} on a grid of {shape} cells")
            sets.append(np.flatnonzero(mask))
        sizes = np.array([s.size for s in sets], dtype=np.int64)
        index = np.concatenate(sets) if sets else np.zeros(0, dtype=np.int64)
        return cls(index, sizes[sizes > 0], shape[0] * shape[1], np.count_nonzero(sizes == 0))


def apply_sparse_operator(family: CellFamily, f: CellField) -> CellField:
    """T f on cells: each set's mean, added to its cells in set order."""
    v = f.values
    if v.size != family.n_cells:
        raise ValueError(f"expected {family.n_cells} cell values, got {v.size}")
    return CellField.of_nonnegative(family.scatter(family.means(v)), f.cell_measure)


def majorization_ratio(f: CellField, tf: CellField, K: int) -> float:
    """max over t = i mu of int_0^t (T f)* / (K int_0^t f*), for ``tf`` = T f
    on f's cells of measure mu: cumulative sums of the decreasingly sorted
    values, sorted here and not kept.  Both sides are linear in t between
    cell boundaries, so no other t exceeds this.  A zero f, or K = 0, gives 0.
    """
    rhs = np.sort(f.values)[::-1].cumsum()
    if not K or not rhs.any():
        return 0.0
    lhs = np.sort(tf.values)[::-1].cumsum()
    rhs *= K
    return float(np.max(np.divide(lhs, rhs, out=lhs)))


def operator_norm_check(family: CellFamily, f: CellField, tf: CellField):
    """The majorization certificate of T f by K f, as (ratio, ok).  It is
    ||T f||_X <= K ||f||_X in every r.i. space X (Calderon; Bennett-Sharpley,
    Interpolation of Operators, 1988, ch. 2-3), and rho(T f / K) <= rho(f)
    for every Young function rho (Hardy-Littlewood-Polya): one ratio
    certifies both.  ``tf`` is T f on the family's cells."""
    ratio = majorization_ratio(f, tf, family.max_overlap)
    return ratio, ratio <= 1.0 + MAJORIZATION_SLACK


modular_contraction_check = operator_norm_check  # the same certificate, read for the modular claim
