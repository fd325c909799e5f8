"""|f| on grid cells with its decreasing rearrangement, built once per field.

Every norm here is rearrangement invariant, so it reads f only through |f|
and f* (Bennett-Sharpley, Interpolation of Operators, ch. 2).  Cell values
on a uniform grid make |f| a simple function, so f* is a right continuous
step function whose plateau widths are integer multiples of the cell
measure, and f**(t) = (1/t) * int_0^t f* is piecewise of the form
(A + v t)/t; Lorentz norms evaluate these pieces in closed form.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class CellField:
    """|f| at the cells of a grid, each of measure ``cell_measure``.

    ``values`` is the flat array of |f|, taken once here.  The plateaus of
    f* (``heights``, ``widths``, ``breaks``, ``cum_integral``) and the
    numbers read from them come from one sort on the first read of any of
    them, and are kept; nothing else is cached.
    """

    def __init__(self, values, cell_measure: float):
        if not cell_measure > 0.0:
            raise ValueError(f"cell measure must be positive, got {cell_measure!r}")
        self.values = np.abs(np.asarray(values, dtype=float)).ravel()
        self.cell_measure = float(cell_measure)

    @classmethod
    def of_nonnegative(cls, values: np.ndarray, cell_measure: float) -> "CellField":
        """The field of a flat float array that has no negative entry, such as
        an average of a field, kept as it is: no copy through np.abs."""
        field = cls(values[:0], cell_measure)  # the constructor checks the measure
        field.values = values
        return field

    def positive(self) -> np.ndarray:
        """The positive values in cell order, a new array on every call."""
        return self.values[self.values > 0.0]

    @cached_property
    def _plateaus(self):
        v = np.sort(self.positive())[::-1]
        # merge equal-value runs into single plateaus
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        starts = np.flatnonzero(first)
        heights = v[starts]
        # a measure or integral beyond the largest float is inf here, with
        # no warning: the norms that read it raise NormRangeError
        with np.errstate(over="ignore"):
            widths = np.diff(np.append(starts, v.size)).astype(float) * self.cell_measure
            # integral of f* up to each break
            cum_integral = np.concatenate([[0.0], np.cumsum(heights * widths)])
            return heights, widths, np.concatenate([[0.0], np.cumsum(widths)]), cum_integral

    heights = property(lambda self: self._plateaus[0], doc="f* on each plateau, decreasing")
    widths = property(lambda self: self._plateaus[1], doc="the measure of each plateau")
    breaks = property(lambda self: self._plateaus[2], doc="0, then the right end of each plateau")
    cum_integral = property(lambda self: self._plateaus[3], doc="int_0^t f* at each break t")
    support_measure = property(lambda self: float(self.breaks[-1]), doc="the measure of {|f| > 0}")
    total_integral = property(lambda self: float(self.cum_integral[-1]), doc="int |f|")
    is_zero = property(lambda self: self.heights.size == 0, doc="whether f is 0 on every cell")
