import math

import numpy as np
import pytest

from rbl.optimize import CELL, PRUNE_MARGIN, golden_min, grid_polish


def _rows(xs, bounds):
    """grid_polish's bounds for per-row bounds on the grid xs: on each
    interval of grid points, the least row bound in it."""
    bounds = np.asarray(bounds, dtype=float)
    index = {x: i for i, x in enumerate(np.asarray(xs).tolist())}
    return lambda first, last: np.array(
        [bounds[index[a]:index[b] + 1].min()
         for a, b in zip(first.tolist(), last.tolist())])


def _free(first, last):
    """Bounds of -inf: every row is solved."""
    return np.full(first.size, -np.inf)


def _calls(f):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)
    return g, seen


def test_polish_beats_the_grid_inside_the_bracket():
    xs = np.linspace(0.0, 1.0, 11)
    f = lambda x: (x - 0.33) ** 2
    x, v, grid = grid_polish(f, xs, _rows(xs, f(xs)), 1e-12)
    assert x == pytest.approx(0.33, abs=1e-6)
    assert v < grid == f(xs[3])


def test_grid_point_wins_ties():
    # the polish finds the grid minimum again inside its bracket [1, 3]
    xs = np.linspace(0.0, 4.0, 5)
    f = lambda z: 1.0 if abs(z - 2.0) <= 0.5 else 1.0 + abs(z - 2.0)
    assert [f(x) for x in xs] == [3.0, 2.0, 1.0, 2.0, 3.0]
    assert grid_polish(f, xs, _free, 1e-9) == (2.0, 1.0, 1.0)


def test_grid_point_wins_on_a_non_unimodal_bracket():
    # a narrow dip at the grid point between two plateaus: the polish samples
    # only the plateaus and must not replace the grid point
    xs = np.array([0.0, 1.0, 2.0])
    f = lambda x: 0.0 if x == 1.0 else 5.0
    x, v, _ = grid_polish(f, xs, _rows(xs, [f(x) for x in xs]), 1e-9)
    assert (x, v) == (1.0, 0.0)


def _assert_polishes_inside(seen, lo, hi):
    # the polish's first two points are the golden sections of [lo, hi];
    # it never prices the bracket's ends, which the grid has already seen
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    assert seen[:2] == [hi - invphi * (hi - lo), lo + invphi * (hi - lo)]
    assert all(lo < x < hi for x in seen)


@pytest.mark.parametrize("i", [0, 4])
def test_edge_index_brackets_with_its_one_neighbour(i):
    # tight bounds: the grid solves only row i, at an end of the bracket
    xs = np.linspace(0.0, 4.0, 5)
    target = xs[i] + (0.3 if i == 0 else -0.3)
    f, seen = _calls(lambda x: abs(x - target))
    x, v, _ = grid_polish(f, xs, _rows(xs, np.abs(xs - target)), 1e-10)
    assert x == pytest.approx(target, abs=1e-9)
    lo, hi = sorted((xs[i], xs[i + 1 if i == 0 else i - 1]))
    assert seen[0] == xs[i]
    _assert_polishes_inside(seen[1:], lo, hi)


def test_descending_grid_brackets_like_an_ascending_one():
    f = lambda x: (x - 0.47) ** 2
    up = np.linspace(0.0, 1.0, 21)
    down = up[::-1]
    assert grid_polish(f, down, _rows(down, f(down)), 1e-12) == \
        grid_polish(f, up, _rows(up, f(up)), 1e-12)
    g, seen = _calls(f)
    grid_polish(g, down, _rows(down, f(down)), 1e-12)
    assert seen[0] == 0.45
    _assert_polishes_inside(seen[1:], 0.4, 0.5)


def test_maximize_matches_minimizing_the_negation():
    # the seller's searches minimize a negated objective; negation is exact,
    # so the argmax row's bracket is polished on the same values
    xs = np.linspace(-2.0, 2.0, 17)
    f = lambda x: np.sin(3.0 * x) + 0.1 * x
    vals = np.array([f(x) for x in xs])
    x, v, grid = grid_polish(lambda z: -f(z), xs, _rows(xs, -vals), 1e-12)
    assert -grid == vals.max() and -v >= vals.max()
    i = int(np.argmax(vals))
    lo, hi = sorted((xs[i - 1], xs[i + 1]))
    gx, gv = golden_min(lambda z: -f(z), lo, hi, tol=1e-12)
    assert (x, v) == (gx, gv)
    unpruned = grid_polish(lambda z: -f(z), xs, _free, 1e-12)
    assert unpruned == (x, v, grid)


@pytest.mark.parametrize("seed", range(20))
def test_result_is_never_worse_than_the_grid(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 10.0, 32))
    w = rng.normal(size=4)
    f = lambda x: w[0] * np.sin(x * (1 + abs(w[1]))) + w[2] * np.cos(3 * x) \
        + 0.01 * w[3] * x * x
    vals = np.array([f(x) for x in xs])
    for s in (1.0, -1.0):
        g = lambda x: s * f(x)
        x, v, grid = grid_polish(g, xs, _free, 1e-10)
        assert v == g(x)
        assert v <= grid == (s * vals).min()


def _recorded(n, seed):
    """A random objective on a grid of n rows, ascending or descending, with
    random valid bounds (each cell bound at most its rows' values, each row
    bound at most its value; ties, tight bounds and -inf included), a
    bounds callable that returns the cell bounds on its first call and the
    row bounds after it, and the lists of grid rows solved and of the row
    index arrays asked of it."""
    rng = np.random.default_rng(seed)
    vals = np.round(rng.normal(size=n), int(rng.integers(1, 4)))
    xs = np.sort(rng.uniform(0.0, 10.0, n))[::rng.choice([1, -1])]
    rows_lo = vals - rng.exponential(rng.choice([0.01, 0.3, 3.0]), n)
    rows_lo[rng.random(n) < 0.1] = -np.inf
    tight = rng.random(n) < 0.3
    rows_lo[tight] = vals[tight]
    cells = np.minimum.reduceat(vals, np.arange(0, n, CELL))
    cells -= rng.exponential(0.5, cells.size) * (rng.random(cells.size) < 0.7)
    grid = dict(zip(xs.tolist(), range(n)))
    solved, asked, priced = [], [], []

    def f(x):
        if x in grid:
            solved.append(grid[x])
            return vals[grid[x]]
        return 1.0 + math.sin(x)  # the polish, at interior points

    def bounds(first, last):
        i = np.array([grid[x] for x in first.tolist()], dtype=int)
        if not priced:
            priced.append(True)
            return cells[i // CELL]
        asked.append(i)
        return rows_lo[i]
    return xs, vals, f, cells, rows_lo, bounds, solved, asked


@pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 2048])
def test_valid_bounds_keep_the_unbounded_result(n):
    # any valid cell and row bounds give the (x, v, grid) of all -inf, whose
    # search solves every row in index order; the best-first search asks
    # for rows at most ceil(log2 cells) + 1 times, never for a row twice,
    # solves no row twice, and skips only rows whose cell bound, or row
    # bound once the cell is refined, clears the minimum
    for seed in range(20 if n < 2048 else 4):
        xs, vals, f, cells, rows_lo, bounds, solved, asked = _recorded(n, seed)
        free = grid_polish(f, xs, _free, 1e-10)
        assert solved[:n] == list(range(n))
        solved.clear()
        got = grid_polish(f, xs, bounds, 1e-10)
        assert got == free, (n, seed)
        assert len(asked) <= math.ceil(math.log2(cells.size)) + 1
        refined = sum((a.tolist() for a in asked), [])
        assert len(set(refined)) == len(refined)
        assert len(set(solved)) == len(solved)
        clear = vals.min() + PRUNE_MARGIN * abs(vals.min())
        for i in set(range(n)) - set(solved):
            assert (rows_lo[i] if i in refined
                    else cells[i // CELL]) > clear, (n, seed, i)


def test_unbounded_cells_are_all_refined_before_any_row():
    # bounds of -inf: batches of 1, 2, 4, ... cells, then rows 0..n-1
    n = 100
    asked, solved = [], []
    grid_polish(lambda x: solved.append(x) or 0.0, np.arange(float(n)),
                lambda first, last: asked.append(first) or _free(first, last),
                1e-9)
    assert [r.size for r in asked] == [7, 16, 32, 52]
    assert solved[:n] == list(range(n))


@pytest.mark.parametrize("n", [17, 33, 1024])
def test_cell_minima_solve_rows_in_global_bound_order(n):
    # cell bounds that are their rows' least bounds, as maximin passes:
    # the rows are solved in the stable argsort order of all row bounds,
    # as far as the search goes
    for seed in range(10):
        xs, vals, f, _, bounds, _, solved, _ = _recorded(n, seed)
        grid_polish(f, xs, _rows(xs, bounds), 1e-10)
        order = np.argsort(bounds, kind="stable").tolist()
        assert solved == order[:len(solved)], (n, seed)
    # a tie between a refined cell's row and the next cell's least bound:
    # the cell is refined first, so row 0 goes before row 17
    bounds = np.array([5.0] * 16 + [1.0] + [5.0] * 15)
    order = []
    grid_polish(lambda x: order.append(int(x)) or 10.0, np.arange(32.0),
                _rows(np.arange(32.0), bounds), 1e-9)
    assert order[:32] == np.argsort(bounds, kind="stable").tolist()


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 2048])
def test_bounds_price_the_cells_once_then_one_point_rows(n):
    # grid_polish cuts its own cells: bounds is called first, once, on the
    # ends (xs[s], xs[e]) of cells of 16 points that tile the grid, the last
    # one short, and after that only on one-point intervals (x, x), for
    # every row of the cells the search refines, each row at most once
    cells = [list(range(s, min(s + 16, n))) for s in range(0, n, 16)]
    for seed in range(10 if n < 2048 else 2):
        xs, _, f, _, _, bounds, _, _ = _recorded(n, seed)
        index = dict(zip(xs.tolist(), range(n)))
        calls = []
        grid_polish(f, xs, lambda first, last: calls.append(
            (first.copy(), last.copy())) or bounds(first, last), 1e-10)
        (first, last), *rows = calls
        assert first.tolist() == [xs[c[0]] for c in cells], (n, seed)
        assert last.tolist() == [xs[c[-1]] for c in cells], (n, seed)
        refined = []
        for first, last in rows:
            assert first.tolist() == last.tolist(), (n, seed)
            got = sorted(index[x] for x in first.tolist())
            assert got == sorted(sum((cells[i // 16] for i in got
                                      if i % 16 == 0), [])), (n, seed)
            refined += got
        assert len(set(refined)) == len(refined), (n, seed)
