"""The family-wide lower certificate L(m), solvers.maximin_certificate_lower,
against independent recomputations: a 40-digit mpmath pass, the single-item
closed form, the guaranteed-sale chain it replaced, the full range of k,
exact products of non-identical members, and both solvers' values."""

import math

import mpmath
import numpy as np
import pytest

from rbl import solvers
from rbl.ambiguity import MeanMadSpec
from rbl.concentration import guaranteed_sale_chain
from rbl.sum_law import binom_window
from rbl.solvers import (
    maximin_bundling_value,
    maximin_certificate_lower,
    minimax_bundling_value,
)

# d/mu from 0.05 to 1.9, at three means
_SPECS = [(1.0, 0.05), (1.0, 0.5), (1.0, 0.8), (1.0, 1.5), (2.3, 0.4),
          (0.7, 0.91), (1.0, 1.9)]


def _bare_window(m, p):
    """The 40-sigma window of Binomial(m, p) alone, without the reach of 40
    whole k below the mean that solvers._window adds where sigma < 1."""
    sig = math.sqrt(m * p * (1.0 - p))
    return (max(math.floor(m * p - 40.0 * sig), 0),
            min(math.ceil(m * p + 40.0 * sig), m))


def _mp_bound(mu, d, m):
    """(L, price) at 40 digits over k = 0..m: binomial masses by recurrence,
    E(k - K)+ = sum_{i<k} (k - i) P(K = i), the price mu (k - sqrt(k E))."""
    with mpmath.workdps(40):
        mu, d = mpmath.mpf(mu), mpmath.mpf(d)
        u = 1 - d / (2 * mu)
        pmf = [(1 - u) ** m]
        for i in range(m):
            pmf.append(pmf[-1] * (m - i) / (i + 1) * u / (1 - u))
        best, price = mpmath.mpf(0), mpmath.mpf(0)
        cdf = short = mpmath.mpf(0)
        for k in range(1, m + 1):
            cdf += pmf[k - 1]
            short += cdf  # E(k - K)+ = sum_{i<k} P(K <= i)
            term = (mpmath.sqrt(k) - mpmath.sqrt(short)) ** 2
            if term > best:
                best, price = term, k - mpmath.sqrt(k * short)
        return mu * best / m, mu * price


@pytest.mark.parametrize("mu, d", _SPECS)
def test_bound_matches_mpmath(mu, d):
    spec = MeanMadSpec(mu, d)
    for m in (1, 2, 3, 5, 10, 37, 100, 1000):
        want = float(_mp_bound(mu, d, m)[0])
        assert maximin_certificate_lower(spec, m) == pytest.approx(
            want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu, d", _SPECS)
def test_bound_at_m_1_is_the_single_item_revenue(mu, d):
    # one item: the robust posted-price revenue (sqrt(mu) - sqrt(d/2))^2;
    # the two forms round apart by up to 2 ulps, at (0.7, 0.91)
    want = (math.sqrt(mu) - math.sqrt(d / 2.0)) ** 2
    got = maximin_certificate_lower(MeanMadSpec(mu, d), 1)
    assert abs(got - want) <= 2.0 * math.ulp(want)


def test_bound_is_never_below_the_guaranteed_sale_chain():
    # the chain, clipped at zero, scanned densely over its whole eps range
    for mu, d in _SPECS:
        spec = MeanMadSpec(mu, d)
        hi = 1.0 - spec.alpha_min
        eps = np.linspace(hi * 1e-6, hi * (1.0 - 1e-6), 1024)
        for m in (1, 2, 4, 10, 100, 1000, 10_000, 100_000):
            chain = max(0.0, max(guaranteed_sale_chain(spec, m, float(e))
                                 for e in eps))
            assert maximin_certificate_lower(spec, m) >= chain


def test_window_of_k_equals_the_full_range(monkeypatch):
    # a window far wider than 0..m is the plain pass over every k; at
    # m = 1e4 the 40-sigma window is a strict part of it for every spec
    ms = (1, 2, 7, 64, 100, 1000, 2500, 10_000)
    windowed = {(mu, d, m): maximin_certificate_lower(MeanMadSpec(mu, d), m)
                for mu, d in _SPECS for m in ms}
    for mu, d in _SPECS:
        u = 1.0 - MeanMadSpec(mu, d).alpha_min
        half = solvers._WINDOW_SIGMAS * math.sqrt(10_000 * u * (1.0 - u))
        assert 10_000 * u - half > 1.0 or 10_000 * u + half < 9_999.0
    monkeypatch.setattr(solvers, "_WINDOW_SIGMAS", 1e9)
    for (mu, d, m), got in windowed.items():
        assert maximin_certificate_lower(MeanMadSpec(mu, d), m) == got


def test_window_below_one_sigma_reaches_40_k_below_the_mean(monkeypatch):
    # below one sigma the 40-sigma window can start a k below the mean of K;
    # L reaches 40 whole k below it, as the best response does, so P(K < lo)
    # is not dropped. A window from k = 999,999 at (1, 1e-9), m = 1e6 read
    # L = 0.99999900, 7.1e-7 above the sum over every k; at d = 1e-6 it read
    # 0.9985863214142389 at m = 100 and 0.9998293567197992 at m = 1e4
    specs = [(1.0, 1e-9, 10**6), (1.0, 1e-6, 100), (1.0, 1e-6, 10**4),
             (1.0, 1e-6, 10**5), (2.3, 2.3e-7, 3000), (1.0, 1e-9, 1000),
             (1.0, 5e-8, 10**6), (1.0, 1e-4, 1000)]
    for mu, d, m in specs:
        u = 1.0 - MeanMadSpec(mu, d).alpha_min
        assert m * u * (1.0 - u) < 1.0 and _bare_window(m, u)[0] > 0
    got = {s: maximin_certificate_lower(MeanMadSpec(*s[:2]), s[2])
           for s in specs}
    for mu, d, m in ((1.0, 1e-6, 100), (1.0, 1e-9, 1000)):
        assert got[mu, d, m] == pytest.approx(
            float(_mp_bound(mu, d, m)[0]), rel=1e-13, abs=0.0)
    assert got[1.0, 1e-6, 100] == 0.9985862864376267
    assert got[1.0, 1e-6, 10**4] == 0.9998293564995926
    monkeypatch.setattr(solvers, "_WINDOW_SIGMAS", 1e9)
    for (mu, d, m), want in got.items():
        assert repr(maximin_certificate_lower(MeanMadSpec(mu, d), m)) == (
            repr(want)), (mu, d, m)


def _random_member(mu, d, rng):
    """Support and masses of a random member: a two-point member, or a
    low+mu member (x, mu, y) with masses (a, 1 - a - c, c), often next to
    the Bernoulli{0, mu} limit a = d/(2 mu), c -> 0."""
    q = d / (2.0 * mu)
    kind = rng.integers(4)
    if kind == 0:
        alpha = q + (1.0 - q) * rng.random()
    elif kind == 1:
        alpha = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0) * (1.0 - q)
    if kind < 2:
        return (np.array([max(mu - d / (2.0 * alpha), 0.0),
                          mu + d / (2.0 * (1.0 - alpha))]),
                np.array([alpha, 1.0 - alpha]))
    c = 10.0 ** rng.uniform(-6.0, -1.0) * (1.0 - q)
    a = q if kind == 2 else q + (1.0 - q - c) * rng.random()
    return (np.array([max(mu - d / (2.0 * a), 0.0), mu, mu + d / (2.0 * c)]),
            np.array([a, 1.0 - a - c, c]))


def test_no_product_of_members_sells_below_the_bound_at_its_price():
    # exact sum laws by enumeration of every profile; members differ slot
    # by slot, so this checks the bound off the i.i.d. family
    rng = np.random.default_rng(20261019)
    margins = []
    for mu, d in ((1.0, 0.5), (1.0, 0.8), (1.0, 1.5), (2.3, 0.4), (1.0, 0.05)):
        spec = MeanMadSpec(mu, d)
        for m in range(1, 7):
            bound = maximin_certificate_lower(spec, m)
            price = float(_mp_bound(mu, d, m)[1])
            for _ in range(150):
                support, probs = np.zeros(1), np.ones(1)
                for _ in range(m):
                    s, p = _random_member(mu, d, rng)
                    support = np.add.outer(support, s).ravel()
                    probs = np.multiply.outer(probs, p).ravel()
                revenue = price * probs[support >= price].sum() / m
                assert revenue >= bound
                margins.append(revenue / bound - 1.0)
    # the products near Bernoulli{0, mu} come close: the check has teeth
    assert min(margins) < 1e-3


@pytest.mark.parametrize("mu, d", _SPECS)
def test_certificate_lower_never_exceeds_either_solver(mu, d):
    # at m = 1, L is the game value itself: the polished maximin may sit an
    # ulp below it
    spec = MeanMadSpec(mu, d)
    for m in (1, 2, 5, 16, 100, 1000):
        lower = maximin_certificate_lower(spec, m)
        for rep in (maximin_bundling_value(spec, m),
                    minimax_bundling_value(spec, m)):
            assert rep.certificate[0] == lower
            tie = 1e-15 * rep.value if m == 1 else 0.0
            assert lower <= rep.value + tie


def _full_window_terms(spec, m):
    """(L, terms, lo): L(m) over the whole 40-sigma window of k, reaching at
    least 40 whole k below the mean, every mass priced by one binom_window
    call, and its terms from k = lo on."""
    q = spec.alpha_min
    lo, hi = _bare_window(m, 1.0 - q)
    if lo > 0:
        lo = max(min(lo, math.floor(m * (1.0 - q) - 40.0)), 0)
    pmf, _ = binom_window(m - hi, m - lo, m, q)
    cdf = pmf[::-1].cumsum()
    shortfall = np.concatenate(([0.0], cdf[:-1].cumsum()))
    terms = (np.sqrt(np.arange(lo, hi + 1.0)) - np.sqrt(shortfall)) ** 2
    return spec.mu * float(terms.max()) / m, terms, lo


def _stop_specs():
    """2,400 seeded (mu, d, m): m = 1 and 2, m log-uniform up to 10^5 and
    a few up to 10^6; d/mu log-uniform on [1e-9, 1e-3] (near 0), on
    [1e-3, 1.9], and 2 - d/mu on [1e-7, 0.1] (near 2)."""
    rng = np.random.default_rng(20261021)
    out = []
    for i in range(2400):
        mu = float(np.exp(rng.uniform(-3.0, 3.0)))
        kind = i % 3
        if kind == 0:
            r = float(10.0 ** rng.uniform(-9.0, -3.0))
        elif kind == 1:
            r = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.9))))
        else:
            r = 2.0 - float(10.0 ** rng.uniform(-7.0, -1.0))
        top = 1e6 if i % 40 == 0 else 1e5
        m = (int(rng.integers(1, 3)) if i % 5 == 0
             else int(np.exp(rng.uniform(0.0, np.log(top)))))
        out.append((mu, mu * r, m))
    return out


def _large_m_specs():
    """24 seeded (mu, d, m), six at each m in 10^7, 10^8, 10^9 and 10^10:
    d/mu log-uniform on [1e-9, 1e-3], on [1e-3, 1.9] and 2 - d/mu on
    [1e-7, 0.1], two of each."""
    rng = np.random.default_rng(20261020)
    out = []
    for m in (10**7, 10**8, 10**9, 10**10):
        for i in range(6):
            mu = float(np.exp(rng.uniform(-3.0, 3.0)))
            kind = i % 3
            if kind == 0:
                r = float(10.0 ** rng.uniform(-9.0, -3.0))
            elif kind == 1:
                r = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.9))))
            else:
                r = 2.0 - float(10.0 ** rng.uniform(-7.0, -1.0))
            out.append((mu, mu * r, m))
    return out


def test_stopped_bound_keeps_the_full_window_bits(monkeypatch):
    # L(m) prices masses only up to a closed-form stop past the mean M of
    # K: the budgeted Jensen cap J(k) (1 + 16 (hi/M) delta), J(k) = (sqrt(k)
    # - sqrt(k - M))^2, is below t0, a floor on the float term at k0 =
    # ceil(M), for every k past k*. Every priced term keeps its bits, so L
    # equals the full-window pass bit for bit, up to m = 1e10. Count guard:
    # one binom_window call, from the window's low end to that stop. And
    # the stop's two claims hold on the float terms of the full window: the
    # term at k0 is at least t0, and every term past the stop below it. The
    # stop covers the windows below one sigma too, which reach 40 k below
    # the mean, to 0 in some: P(K < lo) is then below e^-55 as at 40 sigma
    calls, window = [], solvers.binom_window
    monkeypatch.setattr(solvers, "binom_window", lambda *args: (
        calls.append(args[:2]) or window(*args)))
    argmax_past_mean = stopped = narrow = large = 0
    for mu, d, m in _stop_specs() + _large_m_specs():
        spec = MeanMadSpec(mu, d)
        calls.clear()
        got = maximin_certificate_lower(spec, m)
        want, terms, lo = _full_window_terms(spec, m)
        assert repr(got) == repr(want), (mu, d, m)
        q = spec.alpha_min
        mean = m * (1.0 - q) * (1.0 + 2.0 ** -50)
        argmax_past_mean += lo + int(terms.argmax()) >= mean
        narrow += m * q * (1.0 - q) < 1.0 and _bare_window(m, 1.0 - q)[0] > 0
        hi = lo + terms.size - 1
        k0 = math.ceil(mean)
        slack = solvers._lower_tail_slack(m)
        w = (1.0 + math.sqrt(m * q * (1.0 - q))) * (1.0 + slack)
        root = math.sqrt(k0) - math.sqrt(w) - 2.0 ** -48 * math.sqrt(k0)
        stop = hi
        if root > 0.0:
            t0 = root * root * (1.0 - 2.0 ** -50)
            s = mean * math.sqrt((1.0 + 16.0 * hi / mean * slack) / t0)
            stop = min(hi, max(k0 + 1, math.floor(
                ((s + mean / s) / 2.0) ** 2) + 1))
            assert terms[k0 - lo] >= t0, (mu, d, m)
            assert np.all(terms[stop + 1 - lo:] < t0), (mu, d, m)
        assert [(m - b, m - a) for a, b in calls] == [(lo, stop)], (mu, d, m)
        stopped += stop < hi
        large += stop < hi and m >= 10**7
    assert argmax_past_mean >= 100 and narrow >= 100, (argmax_past_mean,
                                                        narrow)
    assert stopped >= 400 and large >= 12, (stopped, large)
