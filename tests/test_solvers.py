import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

from rbl import optimize, solvers
from rbl.ambiguity import MeanMadSpec, make_two_point
from rbl.bundling import best_bundle_price
from rbl.errors import RobustBundlingError
from rbl.optimize import PRUNE_MARGIN, golden_min, grid_polish
from rbl.solvers import (
    U_FLOOR,
    maximin_bundling_value,
    maximin_certificate_lower,
    minimax_bundling_value,
    worst_case_alpha,
)
from rbl.sum_law import binom_sf, iid_two_point_sum, tail_prob


def iid_tail(spec, m, p, alpha):
    """P(sum of m i.i.d. two-point values >= p) through the solvers'
    binomial-survival route, at one alpha."""
    return float(solvers._tails(spec, m, p, np.array([1.0 - alpha]))[0])


@pytest.mark.parametrize("m", [1, 2, 5, 10])
def test_iid_tail_agrees_with_exact_law(half_spec, m):
    # binomial-survival route vs the explicit convolution; atoms are probed
    # with a +-1e-12 relative margin because the tail is discontinuous there
    # and the two routes build the support with different last-ulp rounding
    for alpha in (0.26, 0.5, 0.8):
        dist = make_two_point(half_spec, alpha)
        law = iid_two_point_sum(dist, m)
        probes = [0.0, float(law.support[-1]) + 1.0]
        probes += list(0.5 * (law.support[:-1] + law.support[1:]))
        for a in law.support:
            probes += [float(a) * (1.0 - 1e-12), float(a) * (1.0 + 1e-12)]
        if alpha in (0.5, 0.8):
            # dyadic points make every atom exact: on-atom pricing must
            # include the atom in both routes
            probes += [float(a) for a in law.support]
        for p in probes:
            want = tail_prob(law, float(p))
            got = iid_tail(half_spec, m, float(p), alpha)
            assert got == pytest.approx(want, abs=1e-12)


def test_worst_case_alpha_against_dense_grid(half_spec):
    # m=1, p=0.5: revenue is 0.5*(1-alpha) until x(alpha) reaches the price
    # at alpha=0.5, so the infimum 0.25 is approached from the left
    alpha, val = worst_case_alpha(half_spec, 1, 0.5)
    alphas = np.linspace(half_spec.alpha_min, 1.0 - 1e-9, 1_000_000)
    x = half_spec.mu - half_spec.d / (2.0 * alphas)
    rev = np.where(x >= 0.5, 0.5, 0.5 * (1.0 - alphas))
    assert val <= float(rev.min()) + 1e-9
    assert val == pytest.approx(0.25, abs=1e-6)
    assert alpha == pytest.approx(0.5, abs=1e-5)


def test_worst_case_alpha_guards(half_spec):
    with pytest.raises(RobustBundlingError, match="price must be nonnegative"):
        worst_case_alpha(half_spec, 1, -0.5)
    for p in (math.nan, math.inf):
        with pytest.raises(RobustBundlingError, match="nonnegative and finite"):
            worst_case_alpha(half_spec, 1, p)
    with pytest.raises(RobustBundlingError, match="need m >= 1"):
        worst_case_alpha(half_spec, 0, 0.5)
    assert worst_case_alpha(half_spec, 1, 0.0) == (half_spec.alpha_min, 0.0)


def test_maximin_m1_frozen(half_spec):
    rep = maximin_bundling_value(half_spec, 1)
    assert rep.value == pytest.approx(0.25, abs=1e-6)
    assert rep.certificate[1] == 0.75


@pytest.mark.parametrize("m", [1, 2, 4, 16])
def test_maximin_respects_ceiling_and_certificate(half_spec, m):
    rep = maximin_bundling_value(half_spec, m)
    lo, hi = rep.certificate
    assert lo <= rep.value <= hi + 1e-12
    assert rep.value <= half_spec.mu - half_spec.d / 2.0
    assert 0.0 <= rep.price <= m * half_spec.mu


def test_maximin_monotone_in_m(half_spec):
    vals = [maximin_bundling_value(half_spec, m).value for m in (1, 2, 4, 8)]
    assert vals == sorted(vals)


def test_maximin_price_survives_random_adversaries(half_spec, rng):
    # the reported value is a guarantee: no member may undercut it
    m = 64
    rep = maximin_bundling_value(half_spec, m)
    alphas = half_spec.alpha_min + (1.0 - half_spec.alpha_min - 1e-9) * rng.random(128)
    for a in alphas:
        rev = rep.price * iid_tail(half_spec, m, rep.price, float(a)) / m
        assert rev >= rep.value - 1e-9


def _scanned_guarantee(spec, m, p, n=100_000):
    """Lowest p P(sum >= p) / m over a dense alpha scan, geometric and linear
    in 1 - alpha, with exact integer binomial coefficients."""
    u_hi = 1.0 - spec.alpha_min
    u = np.concatenate([np.geomspace(u_hi, U_FLOOR, n),
                        np.linspace(u_hi, U_FLOOR, n)])
    alpha = 1.0 - u
    x = spec.mu - spec.d / (2.0 * alpha)
    y = spec.mu + spec.d / (2.0 * u)
    tail = np.zeros_like(u)
    for k in range(m + 1):
        sells = (m - k) * x + k * y >= p
        tail += np.where(sells, math.comb(m, k) * u ** k * alpha ** (m - k), 0.0)
    return float(np.min(p * tail / m))


@pytest.mark.parametrize("m,want", [(4, 0.5085188802), (10, 0.6281564309),
                                    (16, 0.6674566953)])
def test_maximin_small_m_is_a_guarantee(half_spec, m, want):
    # a grid inner search once missed adversaries here and overstated the
    # guarantee by up to 1.3e-3; the exact infimum sits at or below any scan
    rep = maximin_bundling_value(half_spec, m)
    scan = _scanned_guarantee(half_spec, m, rep.price)
    assert rep.value <= scan + 1e-12
    assert scan - rep.value < 1e-4
    assert rep.value == pytest.approx(want, abs=1e-9)


def _brute_worst_case(spec, m, p):
    """Unpruned inner infimum: the attained value at U_FLOOR and the limit
    P(Bin(m, u_k) >= k+1) at every crossing index k = 0..m whose breakpoint
    u_k lies in [U_FLOOR, 1 - alpha_min); ties go to the smallest u."""
    c = 2.0 * (p - m * spec.mu) / spec.d
    b = c + m
    k = np.arange(m + 1.0)
    sq = np.sqrt(b * b - 4.0 * c * k)
    u = 2.0 * k / (b + sq) if b > 0.0 else (b - sq) / (2.0 * c)
    inside = (u >= U_FLOOR) & (u < 1.0 - spec.alpha_min)
    us = np.concatenate([[U_FLOOR], u[inside]])
    tails = np.concatenate([solvers._tails(spec, m, p, np.array([U_FLOOR])),
                            binom.sf(k[inside], m, u[inside])])
    i = int(np.argmin(tails))
    return 1.0 - float(us[i]), float(p * tails[i] / m)


def test_worst_case_alpha_equals_unpruned_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu = float(rng.uniform(0.5, 2.0))
        spec = MeanMadSpec(mu, mu * float(rng.uniform(0.1, 1.9)))
        m = int(round(math.exp(rng.uniform(0.0, math.log(1500.0)))))
        if rng.random() < 0.5:
            p = float(rng.uniform(0.0, 1.05)) * m * mu
        else:  # near the guaranteed-sale price, where the answer is subtle
            sale = m * (mu - spec.d / 2.0)
            p = max(sale * (1.0 + float(rng.normal(0.0, 3.0 / math.sqrt(m)))), 1e-9)
        assert worst_case_alpha(spec, m, p) == _brute_worst_case(spec, m, p)


def _recording_search(grids, unpruned=False):
    """grid_polish, appending to grids the row values each call's grid
    solved (+inf where skipped); a row counts until the polish starts.
    unpruned: bounds patched to -inf, so every row is solved."""
    def search(f, xs, bounds, tol):
        rows, polishing = {}, []

        def row(x):
            v = f(x)
            if not polishing:
                assert x not in rows  # no row is solved twice
                rows[x] = v
            return v

        def golden(*args, **kwargs):
            polishing.append(True)
            return golden_min(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "golden_min", golden)
            out = grid_polish(row, xs, np.full(len(xs), -np.inf)
                              if unpruned else bounds, tol)
        grids.append(np.array([rows.get(x, np.inf) for x in xs]))
        return out
    return search


def _pruned_and_full(monkeypatch, solve_game):
    """Solve one game twice: through the pruned search, recording the grid
    values it solved, and with bounds patched to -inf so every row is solved.
    Returns (pruned grid, full grid, pruned report, unpruned report)."""
    grids = []
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "grid_polish", _recording_search(grids))
        pruned = repr(solve_game())
        mp.setattr(solvers, "grid_polish", _recording_search(grids, True))
        full = repr(solve_game())
    return grids[0], grids[1], pruned, full


def _rows_solved(monkeypatch, solve_game):
    """The grid rows one solve sends to its kernel, in grid order."""
    grids = []
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "grid_polish", _recording_search(grids))
        solve_game()
    return np.flatnonzero(np.isfinite(grids[0])).tolist()


def test_grid_pruning_keeps_the_argmax(monkeypatch):
    # the price grid skips prices whose cap is below a value already found;
    # at (1, 0.1), m = 16, the binding cap sits next to alpha_min
    for mu, d, m in ((1.0, 0.5, 7), (1.0, 0.8, 300), (1.3, 2.1, 1000),
                     (1.0, 0.1, 16), (1.0, 0.05, 100)):
        spec = MeanMadSpec(mu, d)
        ps = np.linspace(0.0, m * mu, 257)
        full = np.array([p * solvers._inner_infimum(spec, m, p)[1] / m
                         for p in ps])
        neg_got, neg_full, rep, rep_full = _pruned_and_full(
            monkeypatch, lambda: maximin_bundling_value(spec, m, 257))
        # the search sees the negated grid; negation is exact
        assert np.array_equal(-neg_full, full)
        got = -neg_got
        done = np.isfinite(got)
        assert not done.all()
        assert np.array_equal(got[done], full[done])
        assert np.argmax(got) == np.argmax(full)
        assert np.all(full[~done] < got.max())
        assert rep == rep_full


@pytest.mark.parametrize("mu", [1.0, 2.3])
def test_guarantee_caps_never_undercut_the_guarantee(mu):
    # bit for bit, no tolerance: a cap below its price's guarantee could
    # prune the argmax; small d/mu puts the binding cap next to alpha_min
    for r in (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.9):
        spec = MeanMadSpec(mu, mu * r)
        for m in (1, 2, 5, 16, 17, 100, 1000):
            ps = np.linspace(0.0, m * mu, 129)
            caps = solvers._guarantee_caps(spec, m, ps)
            exact = [worst_case_alpha(spec, m, p)[1] for p in ps]
            assert np.all(caps >= exact), (r, m)


def test_maximin_grid_rows_sent_to_the_kernel(monkeypatch):
    # a count guard instead of a timing test: the U_FLOOR tail alone as a
    # cap sent 287 of 1024 rows at (1, 0.5), m = 4
    for d in (0.5, 0.8):
        for m in (4, 10, 16, 100, 1000, 10_000):
            rows = _rows_solved(
                monkeypatch,
                lambda: maximin_bundling_value(MeanMadSpec(1.0, d), m))
            assert 0 < len(rows) <= 4, (d, m)


def test_maximin_calls_worst_case_alpha_once(monkeypatch):
    # a count guard: the grid and the polish price through _inner_infimum,
    # and worst_case_alpha runs only for the reported alpha
    calls, wca = [], solvers.worst_case_alpha
    monkeypatch.setattr(solvers, "worst_case_alpha",
                        lambda *args: calls.append(args) or wca(*args))
    for d, m in ((0.5, 4), (0.8, 100), (1.5, 10_000)):
        calls.clear()
        rep = maximin_bundling_value(MeanMadSpec(1.0, d), m)
        assert len(calls) == 1
        assert wca(*calls[0]) == (rep.alpha, rep.value)


def _kernel(spec, m, us):
    """The one-u best response mapped over an array: (prices, revenues)."""
    return np.array([solvers._best_response(spec, m, u) for u in us]).T


def test_minimax_grid_pruning_keeps_the_argmin(monkeypatch):
    # the nature grid skips rows whose revenue floor clears a value already
    # found; at (1, 1.9), m = 3 hundreds of rows lie on a plateau within the
    # margin of the minimum
    for mu, d, m in ((1.0, 0.8, 100), (1.0, 0.8, 10_000), (1.0, 1.5, 2049),
                     (1.3, 2.1, 1000), (1.0, 1.9, 3)):
        spec = MeanMadSpec(mu, d)
        us = solvers._u_grid(spec, solvers.ALPHA_GRID)
        full = _kernel(spec, m, us)[1]
        got, search_full, rep, rep_full = _pruned_and_full(
            monkeypatch, lambda: minimax_bundling_value(spec, m))
        assert np.array_equal(search_full, full)
        done = np.isfinite(got)
        assert np.array_equal(got[done], full[done])
        assert np.argmin(got) == np.argmin(full)
        assert got.min() == full.min()
        assert np.all(full[~done] > got.min())
        floors = solvers._revenue_floors(spec, m, us)
        assert np.all(floors <= full * (1.0 + PRUNE_MARGIN))
        assert rep == rep_full


def test_minimax_pruning_margin_holds_at_m_1e7(monkeypatch):
    # floors priced by binom_sf stay within the constant margin of the
    # kernel's rows at m = 1e7, and the report matches the unpruned grid's
    spec, m = MeanMadSpec(3.0, 0.15), 10**7
    us = solvers._u_grid(spec, solvers.ALPHA_GRID)
    full = _kernel(spec, m, us)[1]
    floors = solvers._revenue_floors(spec, m, us)
    assert np.all(floors <= full * (1.0 + PRUNE_MARGIN))
    got = repr(minimax_bundling_value(spec, m))
    rows = dict(zip(us.tolist(), full))

    def unpruned(f, xs, bounds, tol):
        # every row solved, from the kernel values above: a row has the same
        # bits however it is reached
        assert np.array_equal(bounds, floors)
        return grid_polish(lambda x: rows[x] if x in rows else f(x), xs,
                           np.full(xs.size, -np.inf), tol)

    monkeypatch.setattr(solvers, "grid_polish", unpruned)
    assert got == repr(minimax_bundling_value(spec, m))


def test_minimax_grid_rows_sent_to_the_kernel(monkeypatch):
    # a count guard instead of a timing test: weaker floors fail it
    for d, m in ((0.8, 100), (0.8, 1000), (0.8, 10_000), (1.5, 10_000)):
        rows = _rows_solved(
            monkeypatch, lambda: minimax_bundling_value(MeanMadSpec(1.0, d), m))
        assert 0 < len(rows) <= 32


def _nine_cut_floors(spec, m, us):
    """The revenue floors with every cut k = ceil(m u + z sigma) for
    z = -4..4 priced, repeats included."""
    x, gap = solvers._two_point(spec, us)
    sig = np.sqrt(m * us * (1.0 - us))
    z = np.arange(-4.0, 5.0)[:, None]
    k = np.clip(np.ceil(m * us + z * sig), 0.0, m)
    revs = (m * x + k * gap) * binom_sf(k - 1.0, m, us) / m
    return np.maximum(x, revs.max(axis=0))


def test_revenue_floors_send_the_nine_cut_rows(monkeypatch):
    # the floors price z = -4..0 and each distinct cut once; they must send
    # the kernel the rows the nine priced cuts send, to the same report
    calls, sf = [], solvers.binom_sf
    for (mu, d, m), n_rows in (((1.0, 0.8, 100), 1), ((1.0, 0.8, 10_000), 1),
                               ((1.0, 1.5, 10_000), 23), ((1.3, 2.1, 1000), 32),
                               ((1.0, 1.9, 3), 728), ((1.0, 0.1, 1000), 4),
                               ((3.0, 0.15, 10**6), 24)):
        spec = MeanMadSpec(mu, d)
        us = solvers._u_grid(spec, solvers.ALPHA_GRID)
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "binom_sf", lambda k, n, p: calls.append(
                np.broadcast_to(p, np.shape(k)).copy()) or sf(k, n, p))
            calls.clear()
            floors = solvers._revenue_floors(spec, m, us)
        # every row priced, by at most one Boost call per cut z = -4..0
        priced, per_row = np.unique(np.concatenate(calls), return_counts=True)
        assert priced.size == us.size and per_row.max() <= 5
        assert np.all(floors <= _nine_cut_floors(spec, m, us))
        reps = []
        got_rows = _rows_solved(monkeypatch, lambda: reps.append(
            repr(minimax_bundling_value(spec, m))))
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_revenue_floors", _nine_cut_floors)
            rows = _rows_solved(monkeypatch, lambda: reps.append(
                repr(minimax_bundling_value(spec, m))))
        assert reps[0] == reps[1]
        assert got_rows == rows and len(got_rows) == n_rows, (mu, d, m)


@pytest.mark.parametrize("n", [1, 3, 64, 10_000])
def test_pruned_min_matches_the_full_grid(n):
    # synthetic grids of n rows with bounds <= values, through grid_polish:
    # the pruned minimum and its argmin are the full grid's, every solved row
    # holds its value, no row is solved twice, a skipped row's bound clears
    # the minimum, and the result is the unpruned search's
    rng = np.random.default_rng(5)
    vals = rng.normal(size=n)
    xs = np.arange(n, dtype=float)
    cases = {
        "random": (vals - rng.exponential(0.3, n), vals),
        "ties": (np.round(vals, 1) - 0.2, np.round(vals, 1)),
        "all-equal bounds": (np.full(n, vals.min() - 1.0), vals),
        "tight": (vals, vals),
        # the maximin sign: negated guarantees, all <= 0
        "negative": (-np.abs(vals) - 0.1 * rng.random(n), -np.abs(vals)),
    }
    for name, (bounds, values) in cases.items():
        assert np.all(bounds <= values), name
        f = lambda x: float(np.interp(x, xs, values))
        grids = []
        out = _recording_search(grids)(f, xs, bounds, 1e-10)
        full_out = _recording_search(grids, unpruned=True)(f, xs, bounds, 1e-10)
        got, full = grids
        assert np.array_equal(full, values), name
        done = np.isfinite(got)
        assert np.array_equal(got[done], values[done]), name
        assert got.min() == values.min() == out[2], name
        assert np.argmin(got) == np.argmin(values), name
        best = got.min()
        margin = PRUNE_MARGIN * abs(best)
        assert np.all(bounds[~done] > best + margin), name
        assert out == full_out, name


def test_minimax_m1_frozen(half_spec):
    # alpha* = (1+sqrt(17))/8 balances selling low against skimming high
    rep = minimax_bundling_value(half_spec, 1)
    assert rep.value == pytest.approx(0.60961179679779, abs=1e-9)
    assert rep.alpha == pytest.approx((1.0 + np.sqrt(17.0)) / 8.0, abs=1e-9)


def test_minimax_alpha_resists_random_prices(half_spec, rng):
    # at the reported member no price does better than the reported value
    m = 32
    rep = minimax_bundling_value(half_spec, m)
    for p in m * half_spec.mu * rng.random(128):
        rev = p * iid_tail(half_spec, m, float(p), rep.alpha) / m
        assert rev <= rep.value + 1e-9


@pytest.mark.parametrize("m", [1, 3, 9, 33])
def test_best_response_agrees_with_law_route(half_spec, m):
    # windowed binomial search vs brute best price on the exact convolution
    for alpha in (0.3, 0.55, 0.97):
        dist = make_two_point(half_spec, alpha)
        law = iid_two_point_sum(dist, m)
        want = best_bundle_price(law).revenue / m
        _, got_v = solvers._best_response(half_spec, m, 1.0 - alpha)
        assert got_v == pytest.approx(want, rel=1e-12)


def _scalar_best_response(spec, m, u):
    """Through scipy.stats' binomial: the formula the kernel must reproduce
    bit for bit."""
    alpha = 1.0 - u
    x = spec.mu - spec.d / (2.0 * alpha)
    y = spec.mu + spec.d / (2.0 * u)
    gap = y - x
    sig = np.sqrt(m * u * (1.0 - u))
    lo = max(int(np.floor(m * u - solvers._WINDOW_SIGMAS * sig)), 0)
    hi = min(int(np.ceil(m * u + solvers._WINDOW_SIGMAS * sig)), m)
    ks = np.arange(lo, hi + 1)
    pmf = binom.pmf(ks, m, u)
    sf = np.cumsum(pmf[::-1])[::-1] + float(binom.sf(hi, m, u))
    s = m * x + ks * gap
    revs = s * sf
    j = int(np.argmax(revs))
    best_price, best_rev = float(s[j]), float(revs[j])
    if ks[0] > 0 and m * x > best_rev:
        best_price, best_rev = m * x, m * x
    return best_price, best_rev / m


def _assert_kernel_matches_scalar(spec, m, us):
    prices, revs = _kernel(spec, m, us)
    want = np.array([_scalar_best_response(spec, m, float(u)) for u in us])
    assert np.array_equal(prices, want[:, 0])
    assert np.array_equal(revs, want[:, 1])


_KERNEL_MS = [1, 4, 16, 100, 2048, 2049, 10_000]


@pytest.mark.parametrize("d", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("m", _KERNEL_MS)
def test_best_response_kernel_is_bitwise_scalar(m, d):
    spec = MeanMadSpec(1.0, d)
    rng = np.random.default_rng(m)
    us = np.concatenate([solvers._u_grid(spec, 129),
                         (1.0 - spec.alpha_min) * rng.random(8)])
    _assert_kernel_matches_scalar(spec, m, us)


@pytest.mark.parametrize("d", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("m", [1, 10, 100, 2048])
def test_best_response_window_matches_full_range(m, d):
    # every k in 0..m, each tail straight from binom.sf: the 40-sigma window
    # plus the mass beyond it loses nothing
    spec = MeanMadSpec(1.0, d)
    us = solvers._u_grid(spec, solvers.ALPHA_GRID)
    got = _kernel(spec, m, us)[1]
    ks = np.arange(m + 1)
    # blocks of rows of about 2^18 (row, k) terms each
    for rows in np.array_split(np.arange(us.size), max(1, us.size * m >> 18)):
        u = us[rows, None]
        x, gap = solvers._two_point(spec, u)
        want = np.max((m * x + ks * gap) * binom.sf(ks - 1, m, u), axis=1) / m
        assert got[rows] == pytest.approx(want, rel=1e-12, abs=0.0)


def _mp_best_response(spec, m, u, k_max):
    """Seller's best per-item revenue against Binomial(m, u) highs in 40-digit
    arithmetic, over prices with at most k_max highs."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        x = spec.mu - spec.d / (2 * (1 - u))
        y = spec.mu + spec.d / (2 * u)
        best, below = mpmath.mpf(0), mpmath.mpf(0)
        for k in range(k_max + 1):
            best = max(best, ((m - k) * x + k * y) * (1 - below))
            below += mpmath.binomial(m, k) * u**k * (1 - u) ** (m - k)
        return float(best / m)


def test_best_response_matches_mpmath_at_m_1e7():
    # m u = 2.26 here: the best price has a few highs, and k <= 200 leaves
    # out only prices that sell with probability below 1e-300
    spec, m = MeanMadSpec(3.0, 0.15), 10**7
    u = 1.0 - 0.999999773536994
    want = _mp_best_response(spec, m, u, 200)
    assert want == pytest.approx(2.92499998301527, rel=1e-14)
    got = solvers._best_response(spec, m, u)[1]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# every minimax row of the golden files and of perfbench's game-sweep
_MINIMAX_ROWS = [(1.0, 0.5, 1, 2048), (1.0, 0.5, 10, 2048), (1.0, 0.5, 100, 2048),
                 (1.0, 1.5, 1000, 256), (1.0, 0.8, 100, 2048),
                 (1.0, 0.8, 1000, 2048), (1.0, 0.8, 10_000, 2048),
                 (1.0, 1.5, 10_000, 2048)]


@pytest.mark.parametrize("mu, d, m, grid", _MINIMAX_ROWS)
def test_minimax_value_never_beats_selling_surely(mu, d, m, grid):
    # value * m = price * P(sale), so a value above price / m is a sale
    # probability above 1
    rep = minimax_bundling_value(MeanMadSpec(mu, d), m, alpha_grid=grid)
    assert rep.value * m <= rep.price * (1.0 + 1e-13)


def _decades():
    """Every decade at the ends of the double range, every 20th between."""
    return [e for e in range(-324, 309)
            if e < -270 or e > 280 or e % 20 == 0]


@pytest.mark.parametrize("ratio", [0.5, 1.5])
def test_solvers_are_scale_free_wherever_the_scale_is_accepted(ratio):
    # mu = 10^e, d = ratio * mu: a scale the solvers accept gives the
    # unit-scale value and certificate per mu; the others are rejected by
    # the one scale check, never answered with a warning or a wrong number
    m = 3
    base = (maximin_bundling_value(MeanMadSpec(1.0, ratio), m, price_grid=64),
            minimax_bundling_value(MeanMadSpec(1.0, ratio), m, alpha_grid=64))
    accepted = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in _decades():
            mu = 10.0 ** e
            try:
                spec = MeanMadSpec(mu, ratio * mu)
            except RobustBundlingError:
                continue
            try:
                reps = (maximin_bundling_value(spec, m, price_grid=64),
                        minimax_bundling_value(spec, m, alpha_grid=64))
            except RobustBundlingError as err:
                assert "leave double range" in str(err)
                continue
            accepted.append(e)
            for rep, want in zip(reps, base):
                assert rep.value / mu == pytest.approx(want.value, rel=1e-12)
                assert rep.certificate[0] / mu == pytest.approx(
                    want.certificate[0], rel=1e-12)
    # one unbroken run of decades, rejected only near the ends
    assert accepted == [e for e in _decades() if accepted[0] <= e <= accepted[-1]]
    assert accepted[0] <= -280 and accepted[-1] >= 290


def test_scale_check_rejects_what_once_came_out_wrong():
    # without the check, mu = d = 1e300 solved to NaN with warnings, and
    # mu = 9.9e-323 to maximin / mu = 0.5 against the true 0.1929
    for mu in (1e300, 9.9e-323):
        for solve in (maximin_bundling_value, minimax_bundling_value):
            with pytest.raises(RobustBundlingError, match="leave double range"):
                solve(MeanMadSpec(mu, mu), 3)
    with pytest.raises(RobustBundlingError, match="need m >= 1"):
        maximin_bundling_value(MeanMadSpec(1.0, 0.5), 0)


@pytest.mark.parametrize("m", [1, 2, 4, 16, 64])
def test_weak_duality_small_m(half_spec, m):
    lo = maximin_bundling_value(half_spec, m).value
    hi = minimax_bundling_value(half_spec, m).value
    assert hi >= lo - 1e-12


def test_minimax_climbs_toward_limit(half_spec):
    # d < mu: bundling helps, so the game value rises toward mu - d/2
    vals = [minimax_bundling_value(half_spec, m).value for m in (1, 4, 16)]
    limit = half_spec.mu - half_spec.d / 2.0
    assert vals[0] < vals[1] < vals[2] <= limit + 1e-9


def test_certificate_lower_is_sound(half_spec):
    for m in (64, 256, 1024):
        lo = maximin_certificate_lower(half_spec, m)
        val = maximin_bundling_value(half_spec, m).value
        assert lo <= val + 1e-12
    assert maximin_certificate_lower(half_spec, 10_000) >= 0.5
