"""Pruned grid search with golden-section polish.

Every optimum the package reports is found by grid_polish: a best-first
search over cells of CELL grid rows and then rows, which solves rows from the
most promising bound on until no bound left can beat the best row, then
polishes the bracket formed by that row's two grid neighbours with
golden_min. Callers minimize; a maximum is found by negating the objective
and its bounds, which is exact. The objectives here are piecewise-smooth with
kinks and jumps, so golden_min tracks every evaluation and returns the best
point seen; on a non-unimodal bracket it degrades to dense sampling near the
winner instead of silently converging to the wrong valley, and grid_polish
keeps the grid point whenever the polish does no better.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200
# grid_polish skips a grid row only if its bound clears the best value by
# this much, relatively (a price's own cap sits at or above its guarantee
# bit for bit, a cell's cap, priced at another price, up to the rounding
# of the binomial tail): above that rounding (nature's one-point floors,
# priced by binom_sf, overshoot exact best responses over the 2048-row
# grid at m = 3e7 by at most 5.0e-10 at (1.3, 2.1) and 2.7e-10 at
# (1, 0.8)), so pruning never changes a result.
PRUNE_MARGIN = 1e-9
# Rows per grid_polish cell.
CELL = 16


def golden_min(f: Callable[[float], float], a: float, b: float,
               tol: float) -> tuple[float, float]:
    """Shrink [a, b] to width tol, returning the best interior (x, f(x))
    evaluated. The ends are never evaluated: grid_polish's bracket ends are
    grid points it has solved or ruled out."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_v = c, fc
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


def grid_polish(f: Callable[[float], float], xs: np.ndarray,
                bounds: Callable[[np.ndarray, np.ndarray], np.ndarray],
                tol: float) -> tuple[float, float, float]:
    """(x, f(x), grid minimum): the least f over the grid xs, polished by
    golden_min.

    bounds(first, last) must return, elementwise, a lower bound on f at every
    grid point from first to last. The grid is cut into cells of CELL
    consecutive rows, the last maybe short, and every cell's bound is priced
    in one call on its ends (xs[s], xs[e]); the rows of a cell the search
    refines are priced as one-point intervals (x, x). The search is best
    first: the cells are refined by falling promise, in batches of 1, 2, 4,
    ... cells per row call, whenever the next cell's bound is at or below
    every pending row's, and the pending rows are solved by f one at a time
    in (bound, index) order, until the next bound clears the lowest value
    found by the relative PRUNE_MARGIN. The grid minimum and its first index
    are then those of the full grid, and bounds of -inf solve every row in
    index order. Batches double so that a search refining every cell makes
    at most ceil(log2 cells) + 1 row calls; cell bounds that are their rows'
    least solve the rows in the stable order of all row bounds, as a walk
    over a sorted grid would. The bracket is the best index's two
    neighbours, sorted, so xs may ascend or descend; at an end of the grid
    the best point itself closes it. Ties go to the first best index and
    then to the grid point over the polish.
    """
    n = len(xs)
    vals = np.full(n, np.inf)
    starts = np.arange(0, n, CELL)
    cell_bounds = bounds(xs[starts], xs[np.minimum(starts + CELL - 1, n - 1)])
    # the cells by falling promise, the next one last
    cells = np.argsort(cell_bounds, kind="stable")[::-1].tolist()
    cell_bounds = cell_bounds.tolist()
    pending, batch = [], 1  # pending: a heap of (bound, row)
    best = limit = math.inf
    while True:
        if cells and (not pending or cell_bounds[cells[-1]] <= pending[0][0]):
            take = np.array(cells[-batch:]) * CELL
            del cells[-batch:]
            batch *= 2
            rows = (take[:, None] + np.arange(CELL)).ravel()
            rows = rows[rows < n]
            x = xs[rows]
            pending.extend(zip(bounds(x, x).tolist(), rows.tolist()))
            heapq.heapify(pending)
        elif pending and pending[0][0] <= limit:
            i = heapq.heappop(pending)[1]
            v = vals[i] = f(xs[i])
            if not v >= best:  # a NaN too, which then stops the search
                best = float(v)
                limit = best + PRUNE_MARGIN * abs(best)
        else:
            break
    i = int(np.argmin(vals))
    lo, hi = sorted((float(xs[max(i - 1, 0)]),
                     float(xs[min(i + 1, n - 1)])))
    x, v = golden_min(f, lo, hi, tol=tol)
    grid = float(vals[i])
    if grid <= v:
        return float(xs[i]), grid, grid
    return x, v, grid
