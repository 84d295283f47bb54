"""Grid search with golden-section polish.

Every optimum the package reports is found the same way: evaluate a grid,
take its best point, and polish the bracket formed by that point's two grid
neighbours with golden_min; grid_polish does all three. The objectives here
are piecewise-smooth with kinks and jumps, so golden_min tracks every
evaluation and returns the best point seen; on a non-unimodal bracket it
degrades to dense sampling near the winner instead of silently converging to
the wrong valley, and grid_polish keeps the grid point whenever the polish
does no better.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200


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
                vals: Sequence[float], tol: float,
                maximize: bool = False) -> tuple[float, float]:
    """Best (x, f(x)) from a grid xs with values vals, polished by golden_min.

    The bracket is the best index's two neighbours, sorted, so xs may ascend
    or descend; at an end of the grid the best point itself closes it. Ties
    go to the first best index and then to the grid point over the polish.
    """
    s = -1.0 if maximize else 1.0
    i = int(np.argmin(s * np.asarray(vals)))
    lo, hi = sorted((float(xs[max(i - 1, 0)]),
                     float(xs[min(i + 1, len(xs) - 1)])))
    x, v = golden_min(lambda z: s * f(z), lo, hi, tol=tol)
    if s * vals[i] <= v:
        return float(xs[i]), float(vals[i])
    return x, s * v
