"""Decreasing rearrangement of a grid function with exact cell bookkeeping.

Cell values on a uniform grid make |f| a simple function, so f* is a right
continuous step function whose plateau widths are integer multiples of the
cell measure, and f**(t) = (1/t) * int_0^t f* is piecewise of the form
(A + v t)/t.  Everything downstream (Lorentz norms, equimeasurability
checks) evaluates these pieces in closed form.
"""

from __future__ import annotations

import numpy as np


class RearrangementProfile:
    """f* and f** of |f| given by cell values with a common cell measure."""

    def __init__(self, values, cell_measure: float):
        v = np.abs(np.asarray(values, dtype=float)).ravel()
        if cell_measure <= 0.0:
            raise ValueError("cell measure must be positive")
        v = np.sort(v[v > 0.0])[::-1]
        # merge equal-value runs into single plateaus
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        starts = np.flatnonzero(first)
        self.heights = v[starts]
        self.widths = np.diff(np.append(starts, v.size)).astype(float) * cell_measure
        self.cell_measure = float(cell_measure)
        self.breaks = np.concatenate([[0.0], np.cumsum(self.widths)])
        self.support_measure = float(self.breaks[-1])
        # integral of f* up to each break
        self.cum_integral = np.concatenate([[0.0], np.cumsum(self.heights * self.widths)])
        self.total_integral = float(self.cum_integral[-1])

    @property
    def is_zero(self) -> bool:
        return self.heights.size == 0

    def star(self, t):
        """f*(t); right continuous, 0 beyond the support measure."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        out = np.zeros(t.shape)
        inside = (idx >= 0) & (idx < len(self.heights))
        out[inside] = self.heights[idx[inside]]
        return out if out.shape else float(out)

    def double_star(self, t):
        """f**(t) = (1/t) int_0^t f*; equals ||f||_1 / t past the support."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("f** is defined for t > 0")
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.heights))
        out = np.empty(t.shape)
        tail = idx >= len(self.heights)
        out[tail] = self.total_integral / t[tail]
        inner = ~tail
        i = idx[inner]
        partial = self.cum_integral[i] + (t[inner] - self.breaks[i]) * self.heights[i]
        out[inner] = partial / t[inner]
        return out if out.shape else float(out)

    def distribution(self, s):
        """Measure of {|f| > s}."""
        s = np.asarray(s, dtype=float)
        # heights ascend when reversed; count plateaus strictly above s
        idx = np.searchsorted(-self.heights, -s, side="left")
        out = self.breaks[idx]
        return out if out.shape else float(out)


def equimeasurable(values_a, measure_a, values_b, measure_b, rel_tol: float = 1e-9) -> bool:
    """Whether two cell functions share a distribution function.

    Compared at every plateau height of either profile, which determines a
    step-valued distribution completely.
    """
    pa = RearrangementProfile(values_a, measure_a)
    pb = RearrangementProfile(values_b, measure_b)
    if pa.is_zero and pb.is_zero:
        return True
    probe = np.unique(np.concatenate([pa.heights, pb.heights]))
    probe = np.concatenate([[0.0], probe, probe * (1.0 - 1e-12)])
    da = pa.distribution(probe)
    db = pb.distribution(probe)
    scale = max(pa.support_measure, pb.support_measure)
    return bool(np.all(np.abs(da - db) <= rel_tol * scale))
