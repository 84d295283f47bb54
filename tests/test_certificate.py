"""The family-wide lower certificate L(m), solvers.maximin_certificate_lower,
against independent recomputations: a 40-digit mpmath pass, the single-item
closed form, the guaranteed-sale chain it replaced, the full range of k,
exact products of non-identical members, and both solvers' values."""

import math
import tracemalloc

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
# d/mu next to 2, where a running sum of masses read L up to 9.6e-5 off, and
# 5.1e-6 high at (1, 1.999999999995395), m = 19; the solvers are not run here
_NEAR_TWO = [(1.0, 2.0 - 1e-6), (1.0, 2.0 - 1e-9), (1.0, 2.0 - 1e-11),
             (1.0, 1.999999999995395)]


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


@pytest.mark.parametrize("mu, d", _SPECS + _NEAR_TWO)
def test_bound_matches_mpmath(mu, d):
    spec = MeanMadSpec(mu, d)
    for m in (1, 2, 3, 5, 10, 19, 37, 100, 1000):
        want = float(_mp_bound(mu, d, m)[0])
        assert maximin_certificate_lower(spec, m) == pytest.approx(
            want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu, d", _SPECS)
def test_bound_at_m_1_is_the_single_item_revenue(mu, d):
    # one item: the robust posted-price revenue (sqrt(mu) - sqrt(d/2))^2,
    # here as (mu - d/2)^2 / (sqrt(mu) + sqrt(d/2))^2: the difference of
    # square roots cancels, 16 ulps from the exact value at (1, 1.9), and
    # this form does not; the two computed forms round up to 2 ulps apart
    want = (mu - d / 2.0) ** 2 / (math.sqrt(mu) + math.sqrt(d / 2.0)) ** 2
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


def _every_k(spec, m):
    """(L, price) from the first largest of solvers._certificate_terms over
    every k in 1..m: what the search over k must find."""
    k = np.arange(1.0, m + 1.0)
    terms = solvers._certificate_terms(spec, m, k)
    i = int(np.argmax(terms))
    return (spec.mu * float(terms[i]) / m,
            spec.mu * math.sqrt(k[i] * float(terms[i])))


def test_window_of_k_equals_the_full_range():
    # the search over k keeps the bits of a pass over every k, L and its
    # price both, up to m = 1e4, where K's 40-sigma window is a strict part
    # of 0..m for every spec
    for mu, d in _SPECS:
        spec = MeanMadSpec(mu, d)
        for m in (1, 2, 7, 64, 100, 1000, 2500, 10_000):
            got = solvers._certificate_best(spec, m)
            assert got == _every_k(spec, m), (mu, d, m)


def test_window_below_one_sigma_reaches_40_k_below_the_mean():
    # below one sigma the 40-sigma window of K can start a k below its mean;
    # a pass over such a window from k = 999,999 at (1, 1e-9), m = 1e6 read
    # L = 0.99999900, 7.1e-7 above the sum over every k. The identity prices
    # each E(k - K)+ from the whole law, so no mass below a window is lost:
    # at d = 1e-6, L reads 0.9985862864376267 at m = 100 and
    # 0.9998293564995926 at m = 1e4, the bits of the sum over every k
    specs = [(1.0, 1e-9, 10**6), (1.0, 1e-6, 100), (1.0, 1e-6, 10**4),
             (1.0, 1e-6, 10**5), (2.3, 2.3e-7, 3000), (1.0, 1e-9, 1000),
             (1.0, 5e-8, 10**6), (1.0, 1e-4, 1000)]
    for mu, d, m in specs:
        u = 1.0 - MeanMadSpec(mu, d).alpha_min
        assert m * u * (1.0 - u) < 1.0 and _bare_window(m, u)[0] > 0
        want = _full_window_terms(MeanMadSpec(mu, d), m)
        assert maximin_certificate_lower(MeanMadSpec(mu, d), m) == (
            pytest.approx(want, rel=1e-13, abs=0.0)), (mu, d, m)
    for mu, d, m in ((1.0, 1e-6, 100), (1.0, 1e-9, 1000)):
        assert maximin_certificate_lower(MeanMadSpec(mu, d), m) == (
            pytest.approx(float(_mp_bound(mu, d, m)[0]), rel=1e-13, abs=0.0))
    assert maximin_certificate_lower(MeanMadSpec(1.0, 1e-6), 100) == (
        0.9985862864376267)
    assert maximin_certificate_lower(MeanMadSpec(1.0, 1e-6), 10**4) == (
        0.9998293564995926)


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
    """L(m) by running sums of masses over the whole 40-sigma window of k,
    reaching at least 40 whole k below the mean, every mass priced by one
    binom_window call."""
    q = spec.alpha_min
    lo, hi = _bare_window(m, 1.0 - q)
    if lo > 0:
        lo = max(min(lo, math.floor(m * (1.0 - q) - 40.0)), 0)
    pmf, _ = binom_window(m - hi, m - lo, m, q)
    cdf = pmf[::-1].cumsum()
    shortfall = np.concatenate(([0.0], cdf[:-1].cumsum()))
    terms = (np.sqrt(np.arange(lo, hi + 1.0)) - np.sqrt(shortfall)) ** 2
    return spec.mu * float(terms.max()) / m


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


def test_search_finds_the_first_largest_term_of_every_k():
    # on 2,400 seeded specs, d/mu from 1e-9 to 2 - 1e-7 and m up to 1e6, the
    # search's L and price are the first argmax over every k, bit for bit;
    # where d/mu <= 1.9, L is also within 1e-13 of the running-sum pass
    # over K's 40-sigma window, reaching 40 whole k below its mean
    compared = 0
    for mu, d, m in _stop_specs():
        spec = MeanMadSpec(mu, d)
        got = solvers._certificate_best(spec, m)
        assert got == _every_k(spec, m), (mu, d, m)
        if d / mu <= 1.9:
            want = _full_window_terms(spec, m)
            assert got[0] == pytest.approx(want, rel=1e-13, abs=0.0), (
                mu, d, m)
            compared += 1
    assert compared >= 1500, compared


def test_search_prices_few_k_at_large_m(monkeypatch):
    # count guard: every term costs one pmf evaluation, and up to m = 1e10
    # the search prices at most 250 k (10 steps of 17 and a last 17), in
    # under 1 MB of traced memory
    priced, pmf = [], solvers._binom_pmf
    monkeypatch.setattr(solvers, "_binom_pmf", lambda k, n, p: (
        priced.append(np.size(k)) or pmf(k, n, p)))
    for mu, d, m in _large_m_specs():
        spec = MeanMadSpec(mu, d)
        priced.clear()
        tracemalloc.start()
        lower = maximin_certificate_lower(spec, m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert 0.0 < lower <= mu - d / 2.0, (mu, d, m)
        assert sum(priced) <= 250 and peak < 2**20, (mu, d, m, priced, peak)
