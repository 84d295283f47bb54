import numpy as np
import pytest

from rbl.optimize import golden_min, grid_polish


def _calls(f):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)
    return g, seen


def test_polish_beats_the_grid_inside_the_bracket():
    xs = np.linspace(0.0, 1.0, 11)
    f = lambda x: (x - 0.33) ** 2
    x, v, grid = grid_polish(f, xs, f(xs), 1e-12)
    assert x == pytest.approx(0.33, abs=1e-6)
    assert v < grid == f(xs[3])


def test_grid_point_wins_ties():
    # the polish finds the grid minimum again inside its bracket [1, 3]
    xs = np.linspace(0.0, 4.0, 5)
    f = lambda z: 1.0 if abs(z - 2.0) <= 0.5 else 1.0 + abs(z - 2.0)
    assert [f(x) for x in xs] == [3.0, 2.0, 1.0, 2.0, 3.0]
    assert grid_polish(f, xs, np.full(5, -np.inf), 1e-9) == (2.0, 1.0, 1.0)


def test_grid_point_wins_on_a_non_unimodal_bracket():
    # a narrow dip at the grid point between two plateaus: the polish samples
    # only the plateaus and must not replace the grid point
    xs = np.array([0.0, 1.0, 2.0])
    f = lambda x: 0.0 if x == 1.0 else 5.0
    x, v, _ = grid_polish(f, xs, np.array([f(x) for x in xs]), 1e-9)
    assert (x, v) == (1.0, 0.0)


@pytest.mark.parametrize("i", [0, 4])
def test_edge_index_brackets_with_its_one_neighbour(i):
    # tight bounds: the grid solves only row i, at an end of the bracket
    xs = np.linspace(0.0, 4.0, 5)
    target = xs[i] + (0.3 if i == 0 else -0.3)
    f, seen = _calls(lambda x: abs(x - target))
    x, v, _ = grid_polish(f, xs, np.abs(xs - target), 1e-10)
    assert x == pytest.approx(target, abs=1e-9)
    lo, hi = sorted((xs[i], xs[i + 1 if i == 0 else i - 1]))
    assert min(seen) == lo and max(seen) == hi


def test_descending_grid_brackets_like_an_ascending_one():
    f = lambda x: (x - 0.47) ** 2
    up = np.linspace(0.0, 1.0, 21)
    down = up[::-1]
    assert grid_polish(f, down, f(down), 1e-12) == \
        grid_polish(f, up, f(up), 1e-12)
    g, seen = _calls(f)
    grid_polish(g, down, f(down), 1e-12)
    assert (min(seen), max(seen)) == (0.4, 0.5)


def test_maximize_matches_minimizing_the_negation():
    # the seller's searches minimize a negated objective; negation is exact,
    # so the argmax row's bracket is polished on the same values
    xs = np.linspace(-2.0, 2.0, 17)
    f = lambda x: np.sin(3.0 * x) + 0.1 * x
    vals = np.array([f(x) for x in xs])
    x, v, grid = grid_polish(lambda z: -f(z), xs, -vals, 1e-12)
    assert -grid == vals.max() and -v >= vals.max()
    i = int(np.argmax(vals))
    lo, hi = sorted((xs[i - 1], xs[i + 1]))
    gx, gv = golden_min(lambda z: -f(z), lo, hi, tol=1e-12)
    assert (x, v) == (gx, gv)
    unpruned = grid_polish(lambda z: -f(z), xs, np.full(xs.size, -np.inf),
                           1e-12)
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
        x, v, grid = grid_polish(g, xs, np.full(xs.size, -np.inf), 1e-10)
        assert v == g(x)
        assert v <= grid == (s * vals).min()
