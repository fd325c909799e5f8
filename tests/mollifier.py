"""Discrete mollification with the classical compactly supported kernel.

Only the tests use it: acceptance criterion 11 checks that mollifying
contracts every norm, and test_functions checks the kernel itself.
"""

from __future__ import annotations

import warnings

import numpy as np

from gnsparse.grid import GridFunction1D


class BoundaryContaminationWarning(UserWarning):
    """The support of the input reaches within l of the window boundary."""


def kernel_weights(l: float, h: float):
    """Samples of c*exp(-1/(1-(x/l)^2)) on the grid lattice, summing to 1.

    The normalization is discrete (sum * h = 1 before folding h into the
    weights), so convolution with the weights preserves mass exactly and is
    a convex combination of translates.
    """
    if l < 2.0 * h:
        raise ValueError(f"mollifier scale l = {l} must be >= 2h = {2.0 * h}")
    m = int(np.floor(l / h))
    if m * h >= l:
        m -= 1
    x = h * np.arange(-m, m + 1)
    t = x / l
    w = np.exp(-1.0 / (1.0 - t * t))
    w /= np.sum(w)
    return w


def mollify(u: GridFunction1D, l: float) -> GridFunction1D:
    """Convolve a sampled function with the scale-l kernel.

    Derivatives commute with convolution, so the result's d1/d2 are the
    convolved d1/d2 of the input; the evaluator interpolates linearly
    between nodes, so its node samples are the convolved arrays themselves
    (the result is a genuine grid-level object, no longer closed form).
    """
    grid = u.grid
    w = kernel_weights(l, grid.h)
    m = (len(w) - 1) // 2
    nodes = grid.nodes()
    samples = u.evaluate(nodes, (0, 1, 2))

    support = np.nonzero(np.abs(samples[0]) > 1e-14)[0]
    if support.size and (support[0] < m or support[-1] > grid.n - m):
        warnings.warn(
            f"support of {u.label!r} is within l = {l} of the window boundary; "
            "mollified values near the edge are truncated",
            BoundaryContaminationWarning,
            stacklevel=2,
        )

    fields = [np.convolve(arr, w, mode="same") for arr in samples]

    def evaluate(x, orders):
        for j in orders:
            if not 0 <= j < len(fields):
                raise ValueError(f"derivative order {j} not available")
        x = np.asarray(x, dtype=float)
        return [np.interp(x, nodes, fields[j]) for j in orders]

    return GridFunction1D(grid, evaluate, f"{u.label}*phi_{l:g}")
