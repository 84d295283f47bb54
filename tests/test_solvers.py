import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

from rbl import optimize, solvers
from rbl.ambiguity import MeanMadSpec, make_two_point
from rbl.bundling import best_bundle_price
from rbl.errors import RobustBundlingError
from rbl.optimize import CELL, PRUNE_MARGIN, golden_min, grid_polish
from rbl.solvers import (
    U_FLOOR,
    maximin_bundling_value,
    maximin_certificate_lower,
    minimax_bundling_value,
    worst_case_alpha,
)
from rbl.sum_law import binom_sf, iid_two_point_sum, tail_prob


def _crossing(spec, m, p, u):
    """The fewest highs k in 0..m whose support point m*x + k*(y-x) reaches
    p for u = 1 - alpha, or m + 1 if none does; p and u broadcast against
    each other. The ceil is nudged so the inclusive boundary holds exactly in
    floats, and the index never falls as p rises."""
    x, gap = solvers._two_point(spec, u)
    k = np.clip(np.ceil((p - m * x) / gap), 0.0, m + 1.0)
    for _ in range(2):
        k = np.where((k > 0) & (m * x + (k - 1.0) * gap >= p), k - 1.0, k)
    for _ in range(2):
        k = np.where((k <= m) & (m * x + k * gap < p), k + 1.0, k)
    return k


def _tails(spec, m, p, u):
    """P(sum >= p) for u = 1 - alpha, sum of m i.i.d. two-point values, at
    any p and u (broadcast against each other): a Binomial(m, u) survival at
    the crossing index."""
    return binom_sf(_crossing(spec, m, p, u) - 1.0, m, u)


def iid_tail(spec, m, p, alpha):
    """P(sum of m i.i.d. two-point values >= p) through the solvers'
    binomial-survival route, at one alpha."""
    return float(_tails(spec, m, p, np.array([1.0 - alpha]))[0])


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


def _limits(spec, m, p):
    """(k, u, tail) at every crossing index k = 0..m whose breakpoint u_k
    lies in (0, 1 - alpha_min), with the limit P(Bin(m, u_k) >= k+1) by
    scipy's binom.sf with its edge masks, and (c, b) of the breakpoint
    quadratic. From d = mu up, b = c + m is formed as 2 (p - m (mu - d/2)) /
    d, whose mu - d/2 is exact."""
    c = 2.0 * (p - m * spec.mu) / spec.d
    b = (2.0 * (p - m * (spec.mu - spec.d / 2.0)) / spec.d
         if spec.d >= spec.mu else c + m)
    k = np.arange(m + 1.0)
    sq = np.sqrt(b * b - 4.0 * c * k)
    u = 2.0 * k / (b + sq) if b > 0.0 else (b - sq) / (2.0 * c)
    inside = (u > 0.0) & (u < 1.0 - spec.alpha_min)
    return k[inside], u[inside], binom.sf(k[inside], m, u[inside]), (c, b)


def _reaches(spec, m, p):
    """Whether some member's all-low sum m x(u) reaches p: p < m (mu - d/2),
    in rationals."""
    return 2 * Fraction(p) < m * (2 * Fraction(spec.mu) - Fraction(spec.d))


def _unpruned_infimum(spec, m, p):
    """(u, tail) over the whole family, u in (0, 1 - alpha_min), with no
    pruning: (0.0, 0.0) where no all-low sum reaches p, as the tail falls to
    0 with u, and where b is within its rounding of 0, 2^-50 m (mu/d + 1)
    below d = mu; otherwise the least of 1.0 at u_0 = b/c, up to which
    every member sells surely, and every limit of _limits; ties go to the
    smallest u."""
    _, u, tails, (c, b) = _limits(spec, m, p)
    slop = 0.0 if spec.d >= spec.mu else 2.0**-50 * m * (spec.mu / spec.d + 1.0)
    if b >= -slop or not _reaches(spec, m, p):
        return 0.0, 0.0
    us = np.concatenate([[b / c], u])
    tails = np.concatenate([[1.0], tails])
    i = int(np.argmin(tails))
    return float(us[i]), float(tails[i])


def _brute_worst_case(spec, m, p):
    """worst_case_alpha's (alpha, value) from the unpruned infimum."""
    u, tail = _unpruned_infimum(spec, m, p)
    return 1.0 - u, float(p * tail / m)


# Prices at (1, 0.5) just below the maximin price, where every in-range
# breakpoint tail is 1.0 or within 1e-11 of it: the infimum is the sure
# sale's 1.0 at u_0 ("one"), a breakpoint at 1 - tiny ("tiny"), or one whose tail is
# 1 - 2^-53 ("ulp"). That breakpoint is k = 0, the low end of the run.
_NEAR_ONE = ((10**4, 7122.550680540299, "one"),
             (10**4, 7493.028748422021, "tiny"),
             (10**4, 7490.832238138138, "ulp"),
             (10**5, 71247.00460997722, "one"),
             (10**5, 74993.1850024529, "tiny"),
             (10**5, 74990.64076159269, "ulp"),
             (10**6, 712496.4578612968, "one"),
             (10**6, 749992.838222473, "tiny"),
             (10**6, 749990.835516365, "ulp"))


def _near_one_kind(spec, m, p):
    """Which of _NEAR_ONE's cases the unpruned infimum at p is."""
    u, tail = _unpruned_infimum(spec, m, p)
    if tail == 1.0:
        return "one"
    if tail == 1.0 - 2.0**-53:
        return "ulp"
    return "tiny" if 1.0 - 1e-11 < tail < 1.0 - 2.0**-52 else None


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
        if p <= m * mu:
            assert worst_case_alpha(spec, m, p) == _brute_worst_case(spec, m, p)
        else:  # past maximin's prices: the infimum itself
            assert solvers._inner_infimum(spec, m, p) == _unpruned_infimum(
                spec, m, p)
    spec = MeanMadSpec(1.0, 0.5)
    for m, p, kind in _NEAR_ONE:
        assert _near_one_kind(spec, m, p) == kind
        assert worst_case_alpha(spec, m, p) == _brute_worst_case(spec, m, p)


def _reach(spec, m):
    """The least float at or above m (mu - d/2), in rationals: from there
    on no member's all-low sum reaches the price."""
    exact = m * (Fraction(spec.mu) - Fraction(spec.d) / 2)
    p = float(exact)
    return p if p >= exact else math.nextafter(p, math.inf)


def test_worst_case_alpha_answers_only_maximins_prices(monkeypatch):
    # worst_case_alpha is maximin's own evaluation, on the prices maximin
    # posts: m mu itself is one, the next float up is not
    for mu, r, m in ((1.0, 0.5, 1), (1.0, 0.5, 1000), (2.3, 0.3, 300),
                     (1.0, 1e-6, 10_000), (1.0, 1.5, 19)):
        spec = MeanMadSpec(mu, mu * r)
        top = m * mu
        # m mu, and the least price no all-low sum reaches, and the floats
        # either side of it
        reach = _reach(spec, m)
        for p in (top, math.nextafter(reach, 0.0), reach,
                  math.nextafter(reach, math.inf)):
            assert worst_case_alpha(spec, m, p) == _brute_worst_case(spec, m, p)
        for p in (math.nextafter(top, math.inf), math.inf, math.nan, -0.5):
            with pytest.raises(RobustBundlingError,
                               match=r"price must be in \[0, m\*mu\]") as err:
                worst_case_alpha(spec, m, p)
            assert "\n" not in str(err.value)

    def unreachable(*args):
        raise AssertionError("walked before m was checked")

    # past about m = 1e12 one high at U_FLOOR no longer reaches m mu:
    # rejected before the walk
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "_inner_infimum", unreachable)
        for p in (0.0, 0.5):
            with pytest.raises(RobustBundlingError, match="too large"):
                worst_case_alpha(MeanMadSpec(1.0, 0.5), 2 * 10**12, p)
    # with bounds of 1, which rule no k out, the walk prices every in-range
    # k once, one survival call each
    ks, sf = [], solvers._binom_sf
    monkeypatch.setattr(solvers, "_binom_sf",
                        lambda k, n, u: ks.append(k) or sf(k, n, u))
    monkeypatch.setattr(solvers, "_lower_tail_bound", lambda m, k, u: 1.0)
    spec, m = MeanMadSpec(1.0, 0.5), 1000
    for p in (700.0, 749.999999):
        ks.clear()
        assert solvers._inner_infimum(spec, m, p) == _unpruned_infimum(
            spec, m, p)
        assert sorted(ks) == _limits(spec, m, p)[0].tolist()


def test_worst_case_alpha_values_a_sale_above_the_sure_price_at_0(
        monkeypatch):
    # from the sure price of the limit member u -> 0, m (mu - d/2), no
    # member's all-low sum reaches p and the tail falls to 0 with u: the
    # answer is the limit point (1.0, 0.0), with no survival call; next to m
    # mu the walk priced every in-range k, 4.1 s at (1, 0.5), m = 1e6
    def unreachable(*args):
        raise AssertionError("survival call above the sure sale")

    monkeypatch.setattr(solvers, "_binom_sf", unreachable)
    for mu, r, m in ((1.0, 0.5, 1), (1.0, 0.5, 10**6), (2.3, 0.3, 300),
                     (1.0, 1e-6, 10_000), (1.0, 1.99999, 19),
                     (1.0, 2.0 - 1e-11, 100)):
        spec = MeanMadSpec(mu, mu * r)
        top, sure = m * mu, _reach(spec, m)
        for p in (sure, math.nextafter(sure, math.inf), (sure + top) / 2.0,
                  top):
            assert sure <= p <= top
            assert worst_case_alpha(spec, m, p) == (1.0, 0.0)


def test_worst_case_alpha_is_0_from_the_50_digit_sure_price_up():
    # within 64 ulps either side of the 50-digit m (mu - d/2), every price at
    # or above it is valued at 0.0. Below d = mu, b = c + m rounds by up to
    # about 2^-51 m (mu/d + 1): a b < 0 there once valued the float next
    # above at 8.5e-6 at (2.887, 9.22e-8), m = 2155
    rng = np.random.default_rng(43)
    specs = [(1.0, 0.5, 100), (1.0, 1.5, 19), (2.3, 0.3, 300),
             (1.0, 1e-6, 10_000), (1.0, 2.0 - 1e-11, 100),
             (2.8867638828083697, 9.222974654037165e-08, 2155)]
    for _ in range(40):
        mu = math.exp(rng.uniform(-3.0, 3.0))
        specs.append((mu, mu * math.exp(rng.uniform(math.log(1e-8),
                                                    math.log(1.98))),
                      int(math.exp(rng.uniform(0.0, math.log(1e6))))))
    above = 0
    for mu, d, m in specs:
        spec = MeanMadSpec(mu, d)
        with mpmath.workdps(50):
            edge = m * (mpmath.mpf(mu) - mpmath.mpf(d) / 2)
        p = float(edge)
        for _ in range(64):
            p = math.nextafter(p, 0.0)
        for _ in range(129):
            if mpmath.mpf(p) >= edge and p <= m * mu:
                above += 1
                assert worst_case_alpha(spec, m, p) == (1.0, 0.0), (mu, d, m, p)
            p = math.nextafter(p, math.inf)
    assert above >= 64 * len(specs)


def test_walk_equals_the_unpruned_infimum():
    # the walk from both ends of the in-range run, bit for bit, at prices
    # spread over grid cells, on and next to the support points
    rng = np.random.default_rng(25)
    cases = [(mu, r, m) for mu in (1.0, 2.3, 1e-3)
             for r, m in ((0.5, 7), (0.8, 300), (0.1, 16), (0.1, 32),
                          (0.05, 100), (1.5, 2000), (0.5, 10**5))]
    cases += [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 1.9)),
               int(rng.integers(1, 1500))) for _ in range(12)]

    def check(spec, m, p):
        want = _unpruned_infimum(spec, m, p)
        assert solvers._inner_infimum(spec, m, p) == want, (spec, m, p)

    for mu, r, m in cases:
        spec = MeanMadSpec(mu, mu * r)
        n = 8 if m == 10**5 else 40
        ps = np.linspace(0.0, m * mu, int(rng.choice([257, 1024])))
        js = list(rng.integers(1, ps.size, n // 2))
        # the cells around m (mu - d/2), where the run's start u_0 falls to 0
        edge = _reach(spec, m)
        j = int(np.searchsorted(ps, edge))
        js += [j, j + 1] if j < ps.size - 1 else [j]
        for j in js:
            lo, hi = float(ps[j - 1]), float(ps[j])
            probes = list(lo + (hi - lo) * rng.random(n // 4)) + [hi]
            probes += [p for p in (math.nextafter(edge, 0.0), edge,
                                   math.nextafter(edge, math.inf))
                       if lo <= p <= hi]
            for p in probes:
                check(spec, m, p)
    # prices between the sure sale at u = 1e-12, m x(1e-12), up to which a
    # floor at u = 1e-12 sold surely, and m (mu - d/2), valued at 0.0 while
    # nature's u stopped at 1e-12: here the run starts at u_0 < 1e-12, and
    # the guarantee is tiny but above 0
    for mu, r, m in ((1.0, 0.5, 1000), (2.3, 0.3, 300), (1.0, 1.5, 19),
                     (1.0, 2.0 - 1e-11, 100), (1.0, 0.1, 100)):
        spec = MeanMadSpec(mu, mu * r)
        edge = _reach(spec, m)
        sure = m * float(solvers._two_point(spec, 1e-12)[0])
        probes = np.linspace(sure, edge, 9)[1:-1].tolist()
        for p in probes:
            u, tail = _unpruned_infimum(spec, m, p)
            assert 0.0 < u < 1e-12 and tail > 0.0, (mu, r, m, p)
            check(spec, m, p)
    # no breakpoint in range at p = 0, and nothing to walk past m mu
    for mu, r, m in ((1.0, 0.5, 7), (2.3, 0.1, 1000)):
        spec = MeanMadSpec(mu, mu * r)
        assert _limits(spec, m, 0.0)[0].size == 0
        check(spec, m, 0.0)
    for mu, r, m, f in ((1.0, 0.5, 1000, 1.5), (2.3, 0.3, 300, 2.0),
                        (1.0, 1e-12, 300, 1.2)):
        spec = MeanMadSpec(mu, mu * r)
        assert _unpruned_infimum(spec, m, f * m * mu) == (0.0, 0.0)
        check(spec, m, f * m * mu)
    # tails near 1 at large m
    spec = MeanMadSpec(1.0, 0.5)
    for m, p, kind in _NEAR_ONE:
        check(spec, m, p)


def test_walk_sends_ties_to_the_sure_sale(monkeypatch):
    # ties go to the smallest u, however many k the walk prices: the sure
    # sale at u_0, then the smallest k. Real tails tie too rarely to probe,
    # so the survival calls are set by hand, and bounds of 1 rule no k out
    spec, m = MeanMadSpec(1.0, 0.5), 100
    p = maximin_bundling_value(spec, m).price
    k, u, _, (c, b) = _limits(spec, m, p)
    assert k[0] == 0.0 and k.size > 3
    monkeypatch.setattr(solvers, "_lower_tail_bound", lambda m, k, u: 1.0)
    # every limit 1.0: each ties the sure sale
    monkeypatch.setattr(solvers, "_binom_sf", lambda j, n, v: 1.0)
    assert solvers._inner_infimum(spec, m, p) == (b / c, 1.0)
    # limits of 0.5 from the run's third k up: the smallest such k wins
    monkeypatch.setattr(solvers, "_binom_sf",
                        lambda j, n, v: 0.5 if j >= k[2] else 1.0)
    assert solvers._inner_infimum(spec, m, p) == (u[2], 0.5)


def _scaled_to(target, m):
    """The bound E with E (1 + delta) == target in floats."""
    slack = 1.0 + solvers._lower_tail_slack(m)
    e = target / slack
    for e in (e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)):
        if e * slack == target:
            return e
    raise AssertionError(target)


def _hand_bounds(monkeypatch, bound):
    """Patch _lower_tail_bound to bound(k): hand-made bounds, which must
    not peak inside a run, as real ones do not."""
    monkeypatch.setattr(solvers, "_lower_tail_bound",
                        lambda m, k, u: bound(k))


def test_walk_stops_only_strictly_below_its_thresholds(monkeypatch):
    # runs whose bounds sit on a stop threshold, or under it by Boost's
    # relative error on the lower tail, about 4e-17 m: the walk must go on
    # and price the k, which here wins. Real bounds are loose but at k = 0,
    # so the bounds are set by hand: from the low end of the run up to the
    # winner, then 0.0
    spec = MeanMadSpec(1.0, 0.5)
    # the sure sale's 1.0 is best until the winner is priced: the threshold
    # is 2^-54
    for m, p, kind in _NEAR_ONE:
        if kind != "one":
            k, u, tails, _ = _limits(spec, m, p)
            i = int(np.argmin(tails))
            for e in (_scaled_to(2.0**-54, m), 2.0**-54 * (1.0 - 4e-17 * m)):
                _hand_bounds(monkeypatch, lambda j: e if j <= k[i] else 0.0)
                assert solvers._inner_infimum(spec, m, p) == (u[i], tails[i])
    # a breakpoint is best, the runner-up priced first: the threshold is
    # (1 - its tail) - 2^-52. Bounds of 1.0 from the runner-up's end of
    # the run to it, then the bound on the threshold up to the best, then
    # 0.0: every k between them, a loser, is priced on the threshold
    for m in (16, 100, 1000):
        p = maximin_bundling_value(spec, m).price
        k, u, tails, _ = _limits(spec, m, p)
        i, j = np.argsort(tails, kind="stable")[:2]
        assert tails[i] < tails[j] < 1.0 - 2.0**-52, m
        cut = (1.0 - tails[j]) - 2.0**-52
        side = 1.0 if k[j] < k[i] else -1.0
        for e in (_scaled_to(cut, m), cut * (1.0 - 4e-17 * m)):
            _hand_bounds(monkeypatch, lambda h: (
                1.0 if side * (h - k[j]) <= 0.0
                else e if side * (h - k[i]) <= 0.0 else 0.0))
            assert solvers._inner_infimum(spec, m, p) == (u[i], tails[i])


def test_lower_tail_bound_holds_and_peaks_at_a_runs_ends():
    # _lower_tail_bound at u_k lowered by 2^-48, as the walk takes it, on
    # every in-range k of seeded runs: scaled by 1 + delta it bounds Boost's
    # lower tail 1 - sf(k, m, u_k), and no bound inside the run is above
    # both its ends. delta = -c/m on [0.3, 3] or just above 1, d/mu
    # log-uniform on [1e-8, 1.98], m log-uniform up to 1e5
    rng = np.random.default_rng(39)
    runs = 0
    for i in range(300):
        mu = math.exp(rng.uniform(-3.0, 3.0))
        spec = MeanMadSpec(mu, mu * math.exp(
            rng.uniform(math.log(1e-8), math.log(1.98))))
        m = int(math.exp(rng.uniform(0.0, math.log(1e5))))
        delta = (rng.uniform(0.3, 3.0) if i % 2 else 1.0 + math.exp(
            rng.uniform(math.log(1e-12), math.log(1e-2))))
        p = m * mu - delta * m * spec.d / 2.0
        if p < 0.0:
            continue
        k, u, *_ = _limits(spec, m, p)
        if k.size == 0:
            continue
        runs += 1
        bounds = np.array([
            solvers._lower_tail_bound(m, kj, uj * (1.0 - 2.0**-48))
            for kj, uj in zip(k.tolist(), u.tolist())])
        lower = 1.0 - solvers._binom_sf(k, m, u)
        slack = 1.0 + solvers._lower_tail_slack(m)
        assert np.all(lower <= bounds * slack), (spec, m, p)
        assert bounds[1:-1].max(initial=0.0) <= max(bounds[0], bounds[-1]), (
            spec, m, p)
    assert runs >= 200, runs


def test_one_breakpoint_has_the_array_bits():
    # the walk prices each breakpoint in Python floats: the same bits as
    # _breakpoints, on both branches of its sign test and where c is within
    # 1e-8 of -m, across its callers' domain c <= 0 (p in [0, m mu]), where
    # the discriminant is never negative; and with b as _quadratic forms it
    # from d = mu up, next to d = 2 mu too
    rng = np.random.default_rng(29)
    cases = [(float(c), float(c + m), float(rng.integers(0, m + 1)))
             for m in (1, 7, 1000, 10**6)
             for c in m * np.concatenate([rng.uniform(-3.0, 0.0, 200),
                                          [-1.0, 0.0]])]
    cases += [(float(c), float(c + 1000), float(k))
              for c in -1000 * (1 + np.linspace(-1e-8, 1e-8, 201))
              for k in (0, 1, 999, 1000)]
    for d in (1.0, 1.5, 2.0 - 1e-9, 2.0 - 1e-11):
        for m in (1, 19, 1000):
            for p in np.linspace(0.0, m, 41).tolist():
                c, b = solvers._quadratic(MeanMadSpec(1.0, d), m, p)
                cases += [(c, b, float(k)) for k in (0, 1, m)]
    c, b, k = (np.array(v) for v in zip(*cases))
    want = solvers._breakpoints(c, b, k)
    got = np.array([solvers._breakpoint(*case) for case in cases])
    assert not np.isnan(want).any()
    assert (b <= 0.0).any() and (b > 0.0).any()
    assert np.array_equal(got, want)


def test_crossing_index_never_falls_as_the_price_rises():
    # float for float, on and next to the support points
    for mu, r, m in ((1.0, 0.5, 7), (2.3, 0.1, 32), (1e-3, 1.5, 10**5)):
        spec = MeanMadSpec(mu, mu * r)
        for u in (U_FLOOR, 0.3, 1.0 - spec.alpha_min):
            x, gap = solvers._two_point(spec, u)
            s = m * x + np.arange(m + 1.0)[:: max(m // 50, 1)] * gap
            ps = np.sort(np.concatenate([s, np.nextafter(s, -np.inf),
                                         np.nextafter(s, np.inf)]))
            k = _crossing(spec, m, ps, np.float64(u))
            assert np.all(np.diff(k) >= 0.0), (mu, r, m, u)


def test_maximin_prices_over_the_whole_family_bit_for_bit(monkeypatch):
    # every price maximin evaluates gets the infimum over the whole family,
    # u in (0, 1 - alpha_min), bit for bit, and every price it caps from m
    # (mu - d/2) up a cap of 0.0, down to d/mu = 1e-14; next to d = 2 mu a
    # floor at u = 1e-12 once made such specs exit 2
    seen, capped = [], []
    inner, caps = solvers._inner_infimum, solvers._guarantee_caps

    def record_inner(spec, m, p):
        seen.append((p, inner(spec, m, p)))
        return seen[-1][1]

    def record_caps(spec, m, ps):
        out = caps(spec, m, ps)
        capped.extend(zip(ps.tolist(), out.tolist()))
        return out

    monkeypatch.setattr(solvers, "_inner_infimum", record_inner)
    monkeypatch.setattr(solvers, "_guarantee_caps", record_caps)
    rng = np.random.default_rng(31)
    specs = [(1.0, 0.5, 100), (1.0, 1e-14, 1000), (1.0, 1e-4, 10_000),
             (1.0, 2.0 - 3e-12, 19)]
    specs += [(math.exp(rng.uniform(-3.0, 3.0)),
               math.exp(rng.uniform(math.log(1e-14), math.log(1.98))),
               int(round(math.exp(rng.uniform(0.0, math.log(3e3))))))
              for _ in range(60)]
    branches = set()
    for mu, r, m in specs:
        spec = MeanMadSpec(mu, mu * r)
        seen.clear()
        capped.clear()
        maximin_bundling_value(spec, m)
        for p, got in seen:
            assert got == _unpruned_infimum(spec, m, p), (mu, r, m, p)
        reach = _reach(spec, m)
        for p, cap in capped:
            assert p < reach or cap == 0.0, (mu, r, m, p)
            branches.add(p >= reach)
    assert branches == {False, True}


def test_maximin_rejects_an_m_whose_one_high_misses_m_mu(monkeypatch):
    # past about m = 1e12 one high at U_FLOOR no longer reaches m mu in
    # floats, and both orders of play accept one m range (_check_scale); the
    # check comes before L(m)
    def unreachable(*args):
        raise AssertionError("L(m) priced before m was checked")

    monkeypatch.setattr(solvers, "maximin_certificate_lower", unreachable)
    with pytest.raises(RobustBundlingError, match="too large"):
        maximin_bundling_value(MeanMadSpec(1.0, 0.5), 2 * 10**12)


def _free(first, last):
    """grid_polish bounds of -inf: every row is solved."""
    return np.full(first.size, -np.inf)


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
            if unpruned:
                bounds = _free
            out = grid_polish(row, xs, bounds, tol)
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
    # and on seeded specs, where the search prunes on cell caps priced at
    # each cell's first price and not at its rows
    rng = np.random.default_rng(3434)
    for i in range(64):
        mu = float(np.exp(rng.uniform(-3.0, 3.0)))
        r = float(np.exp(rng.uniform(np.log(1e-6), np.log(1.98))))
        m = (int(rng.integers(1, 5)) if i % 4 == 0
             else int(np.exp(rng.uniform(0.0, np.log(3e4)))))
        spec = MeanMadSpec(mu, mu * r)
        *_, rep, rep_full = _pruned_and_full(
            monkeypatch, lambda: maximin_bundling_value(spec, m, 257))
        assert rep == rep_full, (mu, r, m)


@pytest.mark.parametrize("mu", [1.0, 2.3])
def test_guarantee_caps_never_undercut_the_guarantee(mu):
    # bit for bit, no tolerance: a cap below its price's guarantee could
    # prune the argmax; small d/mu puts the binding cap next to alpha_min
    for r in (0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 1.9):
        spec = MeanMadSpec(mu, mu * r)
        for m in (1, 2, 5, 16, 17, 100, 1000):
            ps = np.linspace(0.0, m * mu, 129)
            caps = ps * solvers._guarantee_caps(spec, m, ps) / m
            exact = [worst_case_alpha(spec, m, p)[1] for p in ps]
            assert np.all(caps >= exact), (r, m)
            # and the trivial cap: a tail is <= 1
            assert np.all(ps / m >= exact), (r, m)


def _cap_cases(rng, n, m_top):
    """n seeded (spec, m): mu = e^U(-3, 3), d/mu log-uniform on [1e-8,
    1.99] and m log-uniform on [1, m_top]."""
    for _ in range(n):
        mu = math.exp(rng.uniform(-3.0, 3.0))
        r = math.exp(rng.uniform(math.log(1e-8), math.log(1.99)))
        yield MeanMadSpec(mu, mu * r), int(math.exp(rng.uniform(0.0, math.log(m_top))))


def test_guarantee_caps_are_exact():
    # _guarantee_caps' claim, bit for bit: up to m mu nature's answer sits
    # at an end of its in-range breakpoints, so a price's cap is the tail
    # infimum _inner_infimum computes there. Prices uniform on [0, m mu] and
    # within 1e-9 to 0.5 relative of m mu take m up to 3e5; p = m mu, where
    # c = 0 and every in-range breakpoint is priced, takes m up to 3e4
    rng = np.random.default_rng(38)
    cases = []
    for spec, m in _cap_cases(rng, 350, 3e5):
        top = m * spec.mu
        cases += [(spec, m, rng.uniform(0.0, top)),
                  (spec, m, top * (1.0 - math.exp(
                      rng.uniform(math.log(1e-9), math.log(0.5)))))]
    cases += [(spec, m, m * spec.mu) for spec, m in _cap_cases(rng, 300, 3e4)]
    for spec, m, p in cases:
        tail = solvers._inner_infimum(spec, m, p)[1]
        cap = solvers._guarantee_caps(spec, m, np.array([p]))
        assert cap[0] == tail, (spec, m, p)


def _maximin_bounds(monkeypatch, spec, m):
    """(ps, cell caps, row caps, report): the price grid of one maximin
    solve and the caps its search gets, per cell of CELL rows (its first
    bounds call) and per row, un-negated; every row's cap is priced here,
    after the solve, as a one-point interval."""
    got, calls = [], []

    def search(f, xs, bounds, tol):
        got.append((np.array(xs), bounds))
        return grid_polish(f, xs, lambda first, last: calls.append(
            bounds(first, last)) or calls[-1], tol)

    with monkeypatch.context() as mp:
        mp.setattr(solvers, "grid_polish", search)
        rep = maximin_bundling_value(spec, m)
    ps, bounds = got[0]
    return ps, -calls[0], -bounds(ps, ps), rep


def _cell_cap_specs():
    """Seeded (mu, d, m), d/mu log-uniform on [1e-6, 1.98]: three per m up
    to 1e4, two at 1e6 and one at 1e7; and the maximin price in the top
    cell at (1, 1e-4), m = 1e4."""
    rng = np.random.default_rng(34)
    specs = [(float(np.exp(rng.uniform(-3.0, 3.0))),
              float(np.exp(rng.uniform(np.log(1e-6), np.log(1.98)))), m)
             for m, n in ((1, 3), (2, 3), (3, 3), (4, 3), (16, 3), (100, 3),
                          (10_000, 3), (10**6, 2), (10**7, 1))
             for _ in range(n)]
    return [(mu, mu * r, m) for mu, r, m in specs] + [(1.0, 1e-4, 10_000)]


def test_cell_caps_never_undercut_a_rows_guarantee(monkeypatch):
    # a cell's cap is ps[e] times the tail cap at its first price ps[s]: the
    # exact infimum does not rise with p, and here no rounding undercuts it
    # (the search needs only caps above guarantees less PRUNE_MARGIN). Up to
    # m = 1e4 every row of every cell is priced; at 1e6 and 1e7 the first
    # and last rows of the cell holding the maximin price, its neighbours
    # and the cell holding m L(m), where the caps sit closest to the rows'
    # guarantees
    tight = 0
    for mu, d, m in _cell_cap_specs():
        spec = MeanMadSpec(mu, d)
        ps, cells, rows, rep = _maximin_bounds(monkeypatch, spec, m)
        assert cells.size == -(-ps.size // CELL)
        if m <= 10_000:
            check = range(cells.size)
            offsets = range(CELL)
        else:
            best = np.searchsorted(ps, rep.price)
            above = np.searchsorted(ps / m, rep.certificate[0], "right")
            check = sorted({j for j in (best // CELL - 1, best // CELL,
                                        best // CELL + 1, above // CELL)
                            if 0 <= j < cells.size})
            offsets = (0, CELL - 1)
        for j in check:
            for i in sorted({min(j * CELL + o, ps.size - 1) for o in offsets}):
                g = worst_case_alpha(spec, m, ps[i])[1]
                assert cells[j] >= g and rows[i] >= g, (mu, d, m, i)
                tight += g > 0.0 and cells[j] <= g * (1.0 + 1e-3)
    assert tight >= 10, tight


def test_maximin_grid_rows_sent_to_the_kernel(monkeypatch):
    # a count guard instead of a timing test: the U_FLOOR tail alone as a
    # cap sent 287 of 1024 rows at (1, 0.5), m = 4, and caps from k = 0..8
    # and m-8..m up to 19 at d/mu = 0.235, m = 32; caps priced at the ends
    # of each price's in-range breakpoints are its exact guarantee
    for mu in (1.0, 2.3, 1e-3):
        for r in np.linspace(0.05, 1.9, 11):
            for m in (1, 2, 4, 8, 16, 32, 100, 1000, 10_000):
                rows = _rows_solved(
                    monkeypatch, lambda: maximin_bundling_value(
                        MeanMadSpec(mu, mu * float(r)), m))
                assert len(rows) == 1, (mu, r, m)


def test_maximin_caps_cell_starts_and_refined_rows_only(monkeypatch):
    # a count guard: a solve prices one tail cap per cell of CELL prices,
    # at its first price, and exact caps only for the rows of the cells its
    # search refines: at most 64 + 48 prices here, where capping every price
    # above m L(m) priced 272 to 539
    sizes, caps = [], solvers._guarantee_caps
    monkeypatch.setattr(solvers, "_guarantee_caps", lambda spec, m, ps: (
        sizes.append(ps.size) or caps(spec, m, ps)))
    for d in (0.5, 0.8):
        for m in (100, 1000, 10_000):
            sizes.clear()
            maximin_bundling_value(MeanMadSpec(1.0, d), m)
            assert sizes[0] <= solvers.PRICE_GRID // CELL, (d, m)
            assert sum(sizes) <= 64 + 48, (d, m, sizes)


def test_maximin_never_calls_worst_case_alpha(monkeypatch):
    # a count guard: the grid and the polish price through _inner_infimum,
    # and the reported alpha is the polish's own answer at the reported
    # price, the bits worst_case_alpha gives there
    calls, wca = [], solvers.worst_case_alpha
    monkeypatch.setattr(solvers, "worst_case_alpha",
                        lambda *args: calls.append(args) or wca(*args))
    for d, m in ((0.5, 4), (0.8, 100), (1.5, 10_000)):
        spec = MeanMadSpec(1.0, d)
        rep = maximin_bundling_value(spec, m)
        assert not calls
        assert wca(spec, m, rep.price) == (rep.alpha, rep.value)


def _record_evaluations(monkeypatch):
    """A list that gets, per maximin evaluation, (p, calls): the k each of
    its survival calls priced, one list per call. Survival calls outside an
    evaluation, such as the grid caps', are not recorded."""
    evals, inside = [], []
    sf, inner = solvers._binom_sf, solvers._inner_infimum

    def priced(k, n, u):
        if inside:
            evals[-1][1].append(np.atleast_1d(k).tolist())
        return sf(k, n, u)

    def evaluation(*args):
        evals.append((args[2], []))
        inside.append(True)
        try:
            return inner(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solvers, "_binom_sf", priced)
    monkeypatch.setattr(solvers, "_inner_infimum", evaluation)
    return evals


def test_maximin_prices_no_breakpoint_twice(monkeypatch):
    # a count guard: an evaluation prices each breakpoint once, makes no
    # survival call for zero k, and at m = 100 and 1000 here makes one
    # survival call, for one k. At m = 1e4 and 1e5 the tails near the
    # maximin price are 1.0 but the winner's, and an upper-tail screen priced
    # up to 56,246 k in one evaluation; the lower-tail walk prices at most one
    evals = _record_evaluations(monkeypatch)
    for d in (0.5, 0.8):
        for m in (100, 1000, 10_000, 100_000):
            evals.clear()
            maximin_bundling_value(MeanMadSpec(1.0, d), m)
            ks = [sum(calls, []) for _, calls in evals]
            assert all(len(set(k)) == len(k) for k in ks), (d, m)
            assert all(c for _, calls in evals for c in calls), (d, m)
            if m < 10_000:
                assert all(len(calls) == len(k) == 1
                           for (_, calls), k in zip(evals, ks)), (d, m)
            else:
                assert max(map(len, ks)) <= 64, (d, m)


def test_maximin_evaluation_makes_at_most_one_survival_call(monkeypatch):
    # a count guard: the polish evaluates dozens of prices beyond the grid
    # rows, and each evaluation prices at most one breakpoint
    evals = _record_evaluations(monkeypatch)
    for d in (0.5, 0.8):
        for m in (100, 1000, 10_000):
            evals.clear()
            rows = _rows_solved(
                monkeypatch,
                lambda: maximin_bundling_value(MeanMadSpec(1.0, d), m))
            assert len(evals) > len(rows) + 30, (d, m)
            assert all(len(calls) <= 1 for _, calls in evals), (d, m)


def test_maximin_at_m_1e7_peaks_under_16_mb():
    # nature's answer walks its breakpoints with O(1) state: an O(m) screen
    # per price peaked at 236.5 MB here
    import tracemalloc

    tracemalloc.start()
    try:
        maximin_bundling_value(MeanMadSpec(1.0, 0.5), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_maximin_prices_few_breakpoints_next_to_m_mu(monkeypatch):
    # a count guard: at small d/mu the maximin price sits in the top grid
    # cell, next to m mu, where c and with it every bound vanish; each
    # evaluation there prices at most 64 breakpoints (bounds taken at the
    # cell's top, m mu, made a solve at d/mu = 5.5e-6, m = 2e5, walk every
    # k at every price and take 17 s). No evaluation sits at m mu itself,
    # which prices every in-range k: the polish never prices its bracket's
    # ends, and the top row's cap rules it out
    evals = _record_evaluations(monkeypatch)
    for mu, r, m in ((1.0, 1e-4, 10_000), (6.75, 5.5e-6, 20_000)):
        evals.clear()
        maximin_bundling_value(MeanMadSpec(mu, mu * r), m)
        top = m * mu
        assert any(top - top / solvers.PRICE_GRID < p < top
                   for p, _ in evals), (r, m)
        assert all(p != top for p, _ in evals), (r, m)
        assert all(sum(map(len, calls)) <= 64 for p, calls in evals), (r, m)


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
        floors = solvers._cell_floors(spec, m, us, us)
        assert np.all(floors <= full * (1.0 + PRUNE_MARGIN))
        assert rep == rep_full


def _cell_floor_specs():
    """(mu, d, m, cells to check): a seeded sweep, mu = e^U(-3, 3), d/mu
    log-uniform on [1e-3, 1.98], m log-uniform up to 10^6 (every cell), and
    four specs at m = 10^7 and 3 10^7, where best responses scan up to 10^5
    k: there the cells whose rows have m u_hi <= 10^4, the small-u plateau
    where the one-high price earns about d/2, and six more at random."""
    rng = np.random.default_rng(20261020)
    every = np.arange(solvers.ALPHA_GRID // optimize.CELL)
    out = []
    for _ in range(12):
        mu = float(np.exp(rng.uniform(-3.0, 3.0)))
        r = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.98))))
        out.append((mu, mu * r, int(np.exp(rng.uniform(0.0, np.log(1e6)))),
                    every))
    for mu, d, m in ((3.0, 0.15, 10**7), (1.0, 1.5, 10**7),
                     (1.0, 0.8, 3 * 10**7), (0.2, 0.39, 3 * 10**7)):
        u_hi = solvers._u_grid(MeanMadSpec(mu, d), solvers.ALPHA_GRID)[
            every * optimize.CELL]
        cheap = every[m * u_hi <= 1e4]
        out.append((mu, d, m, np.union1d(cheap, rng.choice(every, 6))))
    return out


def test_cell_floors_never_exceed_a_best_response():
    # a cell floor bounds the best response at every row of its cell, up
    # to PRUNE_MARGIN (the survival calls' own rounding); at m <= 10 also
    # at 64 points between each pair of cell ends. Both a floor with u_lo
    # and u_hi swapped and one without the (u_lo/u_hi)^k factor fail here
    dense = [(1.0, 0.5, 1), (1.0, 1.9, 3), (2.3, 0.4, 10), (1.0, 1.98, 2),
             (0.05, 0.001, 7), (1.0, 1.2, 5)]
    for mu, d, m, cells in _cell_floor_specs() + [
            (mu, d, m, None) for mu, d, m in dense]:
        spec = MeanMadSpec(mu, d)
        us = solvers._u_grid(spec, solvers.ALPHA_GRID)
        floors = solvers._cell_floors(spec, m, us[::optimize.CELL],
                                      us[optimize.CELL - 1::optimize.CELL])
        assert floors.size == us.size // optimize.CELL
        for j in range(floors.size) if cells is None else cells:
            rows = us[j * optimize.CELL:(j + 1) * optimize.CELL]
            if m <= 10:
                rows = np.concatenate((rows, np.geomspace(
                    rows[-1], rows[0], 66)[1:-1]))
            best = _kernel(spec, m, rows)[1]
            assert np.all(floors[j] <= best * (1.0 + PRUNE_MARGIN)), (
                mu, d, m, j)


def test_minimax_pruning_margin_holds_at_m_1e7(monkeypatch):
    # floors priced by binom_sf stay within the constant margin of the
    # kernel's rows at m = 1e7, and the report matches the unpruned grid's
    spec, m = MeanMadSpec(3.0, 0.15), 10**7
    us = solvers._u_grid(spec, solvers.ALPHA_GRID)
    full = _kernel(spec, m, us)[1]
    floors = solvers._cell_floors(spec, m, us, us)
    assert np.all(floors <= full * (1.0 + PRUNE_MARGIN))
    got = repr(minimax_bundling_value(spec, m))
    rows = dict(zip(us.tolist(), full))

    def unpruned(f, xs, bounds, tol):
        # every row solved, from the kernel values above: a row has the same
        # bits however it is reached
        assert np.array_equal(bounds(xs, xs), floors)
        return grid_polish(lambda x: rows[x] if x in rows else f(x), xs,
                           _free, tol)

    monkeypatch.setattr(solvers, "grid_polish", unpruned)
    assert got == repr(minimax_bundling_value(spec, m))


def test_minimax_grid_rows_sent_to_the_kernel(monkeypatch):
    # a count guard instead of a timing test: weaker floors fail it, and
    # weaker cell floors price the one-point floors of more rows (every
    # row's when each cell is refined); at (1, 0.8) three cells are refined.
    # Without the small-u plateau form the cells at (1, 1.3), m = 1e4 and
    # (1, 1.9), m = 10 priced 2032 and 2048
    priced, floors = [], solvers._cell_floors
    monkeypatch.setattr(solvers, "_cell_floors", lambda spec, m, hi, lo: (
        np.array_equal(hi, lo) and priced.append(hi.size)
        or floors(spec, m, hi, lo)))
    for d, m, most in ((0.8, 100, 48), (0.8, 1000, 48), (0.8, 10_000, 48),
                       (1.5, 10_000, 240), (1.3, 10_000, 112), (1.9, 10, 16)):
        priced.clear()
        rows = _rows_solved(
            monkeypatch, lambda: minimax_bundling_value(MeanMadSpec(1.0, d), m))
        assert 0 < len(rows) <= 32
        assert sum(priced) <= most, (d, m)


# the unpatched floors: _nine_cut_floors stands in for solvers._cell_floors
_CELL_FLOORS = solvers._cell_floors


def _nine_cut_floors(spec, m, u_hi, u_lo):
    """The cell floors, but on one-point intervals u the floor with every
    cut k = ceil(m u + z sigma) for z = -4..4 priced, repeats included."""
    if not np.array_equal(u_hi, u_lo):
        return _CELL_FLOORS(spec, m, u_hi, u_lo)
    us = u_lo
    x, gap = solvers._two_point(spec, us)
    sig = np.sqrt(m * us * (1.0 - us))
    z = np.arange(-4.0, 5.0)[:, None]
    k = np.clip(np.ceil(m * us + z * sig), 0.0, m)
    revs = (m * x + k * gap) * binom_sf(k - 1.0, m, us) / m
    return np.maximum(x, revs.max(axis=0))


def test_revenue_floors_send_the_nine_cut_rows(monkeypatch):
    # the one-point floors price z = -4..0, a repeated cut again; they must
    # send the kernel the rows the nine priced cuts send, to the same report
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
            floors = solvers._cell_floors(spec, m, us, us)
        # every row priced, by one Boost call per cut z = -4..0
        priced, per_row = np.unique(np.concatenate(calls), return_counts=True)
        assert priced.size == us.size and per_row.max() <= 5
        assert np.all(floors <= _nine_cut_floors(spec, m, us, us))
        reps = []
        got_rows = _rows_solved(monkeypatch, lambda: reps.append(
            repr(minimax_bundling_value(spec, m))))
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "_cell_floors", _nine_cut_floors)
            rows = _rows_solved(monkeypatch, lambda: reps.append(
                repr(minimax_bundling_value(spec, m))))
        assert reps[0] == reps[1]
        # n_rows: the rows the search sent when it priced every row's floor
        assert got_rows == rows and 0 < len(got_rows) <= n_rows, (mu, d, m)


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
        # on xs = 0..n-1, an interval's bound is the least row bound in it
        least = lambda first, last, b=bounds: np.array(
            [b[int(i):int(j) + 1].min() for i, j in zip(first, last)])
        out = _recording_search(grids)(f, xs, least, 1e-10)
        full_out = _recording_search(grids, unpruned=True)(
            f, xs, least, 1e-10)
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


def test_minimax_price_is_the_searchs_own_best_response(monkeypatch):
    # the reported price is the one the search's own evaluation at its u
    # returned, bit for bit, with no best response priced after the search
    calls, searched, br = [], [], solvers._best_response

    def search(*args):
        out = grid_polish(*args)
        searched.append((out[0], len(calls)))
        return out

    monkeypatch.setattr(solvers, "_best_response",
                        lambda *args: calls.append(args[2]) or br(*args))
    monkeypatch.setattr(solvers, "grid_polish", search)
    for mu, d, m in ((1.0, 0.5, 1), (1.0, 0.8, 100), (1.0, 0.8, 10_000),
                     (1.3, 2.1, 1000), (1.0, 1.9, 3), (3.0, 0.15, 10**6)):
        spec = MeanMadSpec(mu, d)
        calls.clear()
        searched.clear()
        rep = minimax_bundling_value(spec, m)
        [(u_best, n)] = searched
        assert len(calls) == n and u_best in calls, (mu, d, m)
        assert (rep.price, rep.value) == br(spec, m, u_best), (mu, d, m)
        assert rep.alpha == 1.0 - u_best


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


def _bare_window(m, p):
    """The 40-sigma window of Binomial(m, p) alone, without the reach of 40
    whole k below the mean that solvers._window adds where sigma < 1."""
    sig = math.sqrt(m * p * (1.0 - p))
    return (max(math.floor(m * p - 40.0 * sig), 0),
            min(math.ceil(m * p + 40.0 * sig), m))


def test_best_response_reaches_below_a_narrow_window():
    # at tiny d/mu with u next to 1 - alpha_min sigma is below one, and the
    # 40-sigma window around m u starts at k = 999, past k = 997, which
    # earns 0.99999999999; with the sure sale m x alone the response was
    # 0.999999998
    spec, m, u = MeanMadSpec(1.0, 2e-15), 1000, 1.0 - 5e-7
    lo, hi = _bare_window(m, u)
    x, gap = solvers._two_point(spec, u)
    s = m * x + np.arange(lo, hi + 1.0) * gap
    assert lo > 0 and np.max(s * binom.sf(np.arange(lo - 1, hi), m, u)) < m * x
    # the best support point straight from binom.sf over all of 0..m: the
    # same price, and the same revenue up to the window's summed masses
    ks = np.arange(m + 1)
    revs = (m * x + ks * gap) * binom.sf(ks - 1, m, u)
    price, rev = solvers._best_response(spec, m, u)
    assert price == m * x + np.argmax(revs) * gap and np.argmax(revs) == 997
    assert rev == pytest.approx(np.max(revs) / m, rel=4e-16, abs=0.0)
    assert rev == 0.9999999999939985


def test_best_response_sells_surely_where_the_window_rounds_below():
    # at d/mu = 1e-15 every window price is within a few ulps of the sure
    # price m x, and the window's best, 9999.999999999985 after summing its
    # masses, rounds below m x = 9999.999999999993, which sells surely
    spec, m, u = MeanMadSpec(1.0, 1e-15), 10_000, 0.25
    x, _ = solvers._two_point(spec, u)
    assert _bare_window(m, u)[0] > 0
    assert solvers._best_response(spec, m, u) == (m * x, m * x / m)


@pytest.mark.parametrize("grid", [1, 0, -4, 2.5])
def test_solver_grids_need_two_points(grid):
    # price_grid = 1 once reported 0.0, below its own certificate lower end
    # 0.28125, and 0 raised numpy's bare ValueError
    spec = MeanMadSpec(1.0, 0.5)
    with pytest.raises(RobustBundlingError, match="need price_grid >= 2"):
        maximin_bundling_value(spec, 2, price_grid=grid)
    with pytest.raises(RobustBundlingError, match="need alpha_grid >= 2"):
        minimax_bundling_value(spec, 2, alpha_grid=grid)
    rep = maximin_bundling_value(spec, 2, price_grid=2)
    assert rep.certificate[0] <= rep.value <= rep.certificate[1]


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


# L(m) read in floats sits above the exact L by at most 4.97e-16 relative
# (48 mpmath-checked cases); a value may fall below L by no more than this.
_L_LAST_BITS = 2.0 ** -50


@pytest.mark.parametrize("mu, d, m, value", [
    (0.20553130618534515, 6.275722636608855e-07, 479, 0.2050972),
    (0.6914827122874277, 1.6112251402347166e-05, 1765, 0.6906765),
])
def test_maximin_prices_ls_own_price_where_the_grid_misses_it(mu, d, m, value):
    # the guarantee's peak is narrower than a grid step here, and the search
    # alone reported 0.2050242 and 0.6906504, below L
    spec = MeanMadSpec(mu, d)
    r = maximin_bundling_value(spec, m)
    lower, p_l = solvers._certificate_best(spec, m)
    assert lower == r.certificate[0] == maximin_certificate_lower(spec, m)
    assert r.price == p_l and r.value == pytest.approx(value, abs=5e-8)
    assert r.value >= lower
    assert (r.alpha, r.value) == worst_case_alpha(spec, m, p_l)
    # p_L = mu (k - sqrt(k E(k - K)+)) at L's argmax k, K ~ Bin(m, 1 - q)
    q = spec.alpha_min
    k = np.arange(m + 1)
    cdf = binom.cdf(k, m, 1.0 - q)
    short = np.concatenate(([0.0], np.cumsum(cdf[:-1])))
    terms = (np.sqrt(k) - np.sqrt(short)) ** 2
    top = int(np.argmax(terms))
    assert mu * terms[top] / m == pytest.approx(lower, rel=1e-12)
    assert p_l == pytest.approx(mu * (top - math.sqrt(top * short[top])),
                                rel=1e-12)


def test_maximin_never_reports_below_its_lower_end():
    # tiny d/mu, where the peak is narrower than a grid step: 6 of 1,224
    # random solves fell below L before L's own price was a candidate
    rng = np.random.default_rng(20261020)
    for _ in range(500):
        mu = math.exp(rng.uniform(-3.0, 3.0))
        d = mu * math.exp(rng.uniform(math.log(1e-6), math.log(1e-4)))
        m = int(math.exp(rng.uniform(math.log(300.0), math.log(3000.0))))
        r = maximin_bundling_value(MeanMadSpec(mu, d), m)
        assert r.value >= r.certificate[0] * (1.0 - _L_LAST_BITS), (mu, d, m)
