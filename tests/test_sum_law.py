import numpy as np
import pytest

from rbl.ambiguity import MeanMadSpec, make_pareto_member, make_two_point
from rbl.errors import LengthMismatch, TooManyFactors
from rbl.sum_law import (
    iid_two_point_sum,
    product_sum,
    sample_sum,
    tail_prob,
)


def test_m1_law_is_the_member(half_spec):
    dist = make_two_point(half_spec, 0.5)
    law = iid_two_point_sum(dist, 1)
    assert list(law.support) == [0.5, 1.5]
    assert list(law.probs) == [0.5, 0.5]


@pytest.mark.parametrize("m", [2, 7, 64, 513])
@pytest.mark.parametrize("alpha", [0.25, 0.4, 0.9])
def test_iid_sum_moments(half_spec, m, alpha):
    dist = make_two_point(half_spec, alpha)
    law = iid_two_point_sum(dist, m)
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.mean() == pytest.approx(m * half_spec.mu, rel=1e-12)
    # support is the arithmetic progression m*x + k*(y - x)
    gaps = np.diff(law.support)
    assert np.allclose(gaps, dist.y - dist.x, rtol=1e-12)
    assert law.support[0] == pytest.approx(m * dist.x, rel=1e-12)


def test_product_sum_frozen_example(half_spec):
    # two factors, masses (1/2, 1/2) x (1/4, 3/4); sums worked out by hand
    a = make_two_point(half_spec, 0.5)        # points 0.5, 1.5
    b = make_two_point(half_spec, 0.25)       # points 0, 4/3
    law = product_sum([a, b])
    assert np.allclose(law.support, [0.5, 1.5, 0.5 + 4.0 / 3.0, 1.5 + 4.0 / 3.0],
                       rtol=1e-15)
    assert np.allclose(law.probs, [0.125, 0.125, 0.375, 0.375], rtol=1e-15)


@pytest.mark.parametrize("m", [2, 5, 12])
def test_product_route_agrees_with_iid_route(half_spec, m):
    dist = make_two_point(half_spec, 0.37)
    a = iid_two_point_sum(dist, m)
    b = product_sum([dist] * m)
    assert np.allclose(a.support, b.support, rtol=1e-12)
    assert np.allclose(a.probs, b.probs, rtol=1e-12, atol=1e-15)


def test_product_sum_guards(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    other = make_two_point(MeanMadSpec(1.0, 0.8), 0.5)
    with pytest.raises(ValueError):
        product_sum([d0, other])
    with pytest.raises(TooManyFactors):
        product_sum([d0] * 21)


@pytest.mark.parametrize("alpha", [0.3, 0.999, 1.0 - 1e-12])
def test_large_m_log_space_path(half_spec, alpha):
    # the deviance-form weights keep total mass within 1e-10 out to m = 1e6
    dist = make_two_point(half_spec, alpha)
    law = iid_two_point_sum(dist, 1_000_000)
    assert np.all(np.isfinite(law.probs))
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert law.mean() == pytest.approx(1e6 * half_spec.mu, rel=1e-9)
    assert law.log_probs is not None


@pytest.mark.parametrize("m,tol", [(37, 5e-13), (1000, 5e-11)])
def test_log_weights_against_exact_rationals(m, tol):
    # oracle: exact big-integer pmf at the float value of alpha, logs taken
    # with integer-aware math.log (the m=1000 tolerance is the oracle's own
    # log-of-bignum rounding, not the kernel's)
    import math
    from fractions import Fraction

    from rbl.sum_law import _log_weights

    for a_f in (0.3, 0.77):
        a = Fraction(a_f)
        lp = _log_weights(m, a_f)
        for k in range(m + 1):
            p = math.comb(m, k) * a ** (m - k) * (1 - a) ** k
            ref = math.log(p.numerator) - math.log(p.denominator)
            assert abs(lp[k] - ref) <= tol


def test_tail_prob_inclusive_at_support(half_spec):
    dist = make_two_point(half_spec, 0.5)
    law = iid_two_point_sum(dist, 3)
    assert tail_prob(law, float(law.support[0])) == pytest.approx(1.0)
    assert tail_prob(law, float(law.support[-1])) == pytest.approx(
        float(law.probs[-1]))
    assert tail_prob(law, float(law.support[-1]) + 1e-9) == 0.0
    assert tail_prob(law, 0.0) == 1.0
    # halfway between two atoms only the upper ones count
    mid = 0.5 * (law.support[1] + law.support[2])
    assert tail_prob(law, float(mid)) == pytest.approx(float(law.probs[2:].sum()))


def test_sampling_is_seed_deterministic(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    a = sample_sum([d0], m=16, seed=11, n=500)
    b = sample_sum([d0], m=16, seed=11, n=500)
    c = sample_sum([d0], m=16, seed=12, n=500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_worker_count_does_not_change_draws(half_spec):
    d0 = make_pareto_member(half_spec, 2.0)
    a = sample_sum([d0], m=64, seed=3, n=4000, workers=1)
    b = sample_sum([d0], m=64, seed=3, n=4000, workers=4)
    assert np.array_equal(a, b)


def test_sampling_member_count_guard(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    with pytest.raises(LengthMismatch):
        sample_sum([d0, d0], m=3, seed=0, n=100)


def test_sampling_matches_exact_law(half_spec):
    # empirical mean within 5 sigma of the exact one
    d0 = make_two_point(half_spec, 0.4)
    m, n = 32, 20_000
    draws = sample_sum([d0], m=m, seed=5, n=n)
    law = iid_two_point_sum(d0, m)
    exact_mean = law.mean()
    var = float(((law.support - exact_mean) ** 2 * law.probs).sum())
    assert abs(draws.mean() - exact_mean) <= 5.0 * np.sqrt(var / n)


def test_sampling_heterogeneous_members(half_spec):
    members = [make_two_point(half_spec, a) for a in (0.3, 0.5, 0.7, 0.9)]
    draws = sample_sum(members, m=4, seed=9, n=2000)
    law = product_sum(members)
    lo, hi = float(law.support[0]), float(law.support[-1])
    assert draws.shape == (2000,)
    assert np.all(draws >= lo - 1e-12) and np.all(draws <= hi + 1e-12)
    assert abs(draws.mean() - law.mean()) <= 0.1
