"""Pruned grid search with golden-section polish.

Every optimum the package reports is found by grid_polish: solve a grid's
rows from the most promising bound on until no bound left can beat the best
row, then polish the bracket formed by that row's two grid neighbours with
golden_min. Callers minimize; a maximum is found by negating the objective
and its bounds, which is exact. The objectives here are piecewise-smooth with
kinks and jumps, so golden_min tracks every evaluation and returns the best
point seen; on a non-unimodal bracket it degrades to dense sampling near the
winner instead of silently converging to the wrong valley, and grid_polish
keeps the grid point whenever the polish does no better.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200
# A grid row or a solver's breakpoint is skipped only if its bound clears the
# best value by this much, relatively for a row (a price's cap already sits
# at or above its guarantee, bit for bit): above the rounding of m*KL
# (~1e-12 at m = 1e8) and of the binomial tail (revenue floors priced by
# binom_sf overshoot exact best responses by at most 5e-10 up to m = 3e7),
# so pruning never changes a result.
PRUNE_MARGIN = 1e-9


def golden_min(f: Callable[[float], float], a: float, b: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Shrink [a, b] to width tol, returning the best (x, f(x)) evaluated."""
    best_x, best_v = a, f(a)
    vb = f(b)
    if vb < best_v:
        best_x, best_v = b, vb
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        for x, v in ((c, fc), (d, fd)):
            if v < best_v:
                best_x, best_v = x, v
        if (b - a) <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return best_x, best_v


def grid_polish(f: Callable[[float], float], xs: Sequence[float],
                bounds: np.ndarray, tol: float) -> tuple[float, float, float]:
    """(x, f(x), grid minimum): the least f over the grid xs, polished by
    golden_min.

    bounds[i] must be a lower bound on f(xs[i]). Rows are solved by f(xs[i])
    one at a time from the lowest bound up, until every bound left clears
    the lowest value found by the relative PRUNE_MARGIN; the grid minimum
    and its index are then those of the full grid, and bounds of -inf solve
    every row. The bracket is the best index's two neighbours, sorted, so xs
    may ascend or descend; at an end of the grid the best point itself
    closes it. Ties go to the first best index and then to the grid point
    over the polish.
    """
    vals = np.full(len(xs), np.inf)
    best = np.inf
    for i in np.argsort(bounds, kind="stable"):
        if not bounds[i] <= best + PRUNE_MARGIN * abs(best):
            break
        vals[i] = f(xs[i])
        best = np.minimum(best, vals[i])
    i = int(np.argmin(vals))
    lo, hi = sorted((float(xs[max(i - 1, 0)]),
                     float(xs[min(i + 1, len(xs) - 1)])))
    x, v = golden_min(f, lo, hi, tol=tol)
    grid = float(vals[i])
    if grid <= v:
        return float(xs[i]), grid, grid
    return x, v, grid
