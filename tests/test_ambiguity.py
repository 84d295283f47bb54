import math
import random

import mpmath
import numpy as np
import pytest

from rbl.ambiguity import (
    MeanMadSpec,
    make_pareto_member,
    make_three_point,
    make_two_point,
    pareto_induced_mad,
    verify_membership,
)
from rbl.errors import RobustBundlingError


@pytest.mark.parametrize("mu,d", [(1.0, 0.0), (1.0, 2.0), (1.0, -0.1),
                                  (0.0, 0.5), (-1.0, 0.5), (2.0, 4.0),
                                  # 2*mu overflows; d/(2 mu) is lost against 1
                                  (1e308, 1e308), (1.0, 1e-17)])
def test_spec_rejects_degenerate_moments(mu, d):
    with pytest.raises(RobustBundlingError, match=r"2\*mu"):
        MeanMadSpec(mu, d)


@pytest.mark.parametrize("mu,d", [(1e-310, 5e-311), (1.0, 1e-310),
                                  (5e-324, 5e-324)])
def test_spec_rejects_subnormal_moments(mu, d):
    with pytest.raises(RobustBundlingError, match="leave double range"):
        MeanMadSpec(mu, d)
    # the least normal double is still a scale
    tiny = 2.2250738585072014e-308
    assert MeanMadSpec(2.0 * tiny, tiny).alpha_min == 0.25


def test_spec_check_eps_is_the_one_range_check():
    # guaranteed_sale_price and failure_coefficient both raise this message
    spec = MeanMadSpec(1.0, 0.5)
    for eps in (1e-9, 0.2, 0.7499):
        spec.check_eps(eps)
    for eps in (0.0, 0.75, -0.1, float("nan")):
        with pytest.raises(RobustBundlingError) as err:
            spec.check_eps(eps)
        assert str(err.value) == f"need 0 < eps < 0.75, got {eps!r}"


def test_spec_feasible_strictly_inside():
    spec = MeanMadSpec(2.0, 3.9999)
    assert spec.alpha_min == pytest.approx(3.9999 / 4.0)


def test_alpha_min_formula(half_spec, wide_spec):
    assert half_spec.alpha_min == 0.25
    assert wide_spec.alpha_min == 0.75


@pytest.mark.parametrize("mu,d", [(1.0, 0.5), (1.0, 1.5), (3.0, 2.0), (0.7, 1.2)])
def test_two_point_moments_exact(mu, d):
    spec = MeanMadSpec(mu, d)
    for alpha in np.linspace(spec.alpha_min, 1.0 - 1e-9, 23):
        dist = make_two_point(spec, float(alpha))
        assert dist.mean() == pytest.approx(mu, rel=1e-12)
        assert dist.mad_about(mu) == pytest.approx(d, rel=1e-12)
        assert dist.x >= 0.0
        # spread floor: the two support points always sit at least 2d apart
        assert dist.y - dist.x >= 2.0 * d - 1e-12


def test_two_point_low_point_hits_zero_at_boundary(half_spec):
    dist = make_two_point(half_spec, half_spec.alpha_min)
    assert dist.x == 0.0


@pytest.mark.parametrize("alpha", [0.2499999, 0.0, -0.1, 1.0, 1.5])
def test_two_point_alpha_range(half_spec, alpha):
    with pytest.raises(RobustBundlingError, match=r"outside \["):
        make_two_point(half_spec, alpha)


def test_two_point_high_point_must_be_a_double():
    spec = MeanMadSpec(1e300, 5e299)
    assert math.isfinite(make_two_point(spec, 1.0 - 1e-8).y)
    with pytest.raises(RobustBundlingError, match="high point"):
        make_two_point(spec, 0.999999999999)


def test_two_point_inverse_cdf(half_spec):
    dist = make_two_point(half_spec, 0.5)
    q = dist.inverse_cdf(np.array([0.0, 0.25, 0.4999, 0.5, 0.75, 1.0 - 1e-12]))
    assert np.all(q[:3] == dist.x)
    assert np.all(q[3:] == dist.y)


def test_three_point_acceptance_member(half_spec):
    dist = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    assert dist.mean() == pytest.approx(1.0, abs=1e-15)
    assert dist.mad_about(1.0) == pytest.approx(0.5, abs=1e-15)
    rep = verify_membership(dist, half_spec, tol=1e-12)
    assert rep.ok


def test_three_point_validation(half_spec):
    with pytest.raises(RobustBundlingError, match="sum to 1"):
        make_three_point(half_spec, (0.0, 1.0, 2.0), (0.3, 0.5, 0.3))
    with pytest.raises(RobustBundlingError, match=r"support must lie in \[0"):
        make_three_point(half_spec, (-1.0, 1.0, 3.0), (0.25, 0.5, 0.25))
    # every other check is false on NaN, so these once built a member whose
    # Monte Carlo sums were NaN or inf
    for points, probs in (((math.nan, 1.0, 2.0), (0.25, 0.5, 0.25)),
                          ((0.0, 1.0, math.inf), (0.25, 0.5, 0.25)),
                          ((0.0, 1.0, 2.0), (0.25, math.nan, 0.25))):
        with pytest.raises(RobustBundlingError, match="must be finite"):
            make_three_point(half_spec, points, probs)


def test_three_point_inverse_cdf(half_spec):
    # an exact cumulative boundary maps to the upper atom, as for two points
    dist = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    q = dist.inverse_cdf(np.array([0.1, 0.24, 0.25, 0.5, 0.74, 0.75, 0.9]))
    assert list(q) == [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]


def test_pareto_induced_mad_frozen_values():
    # 2 mu (a-1)^(a-1) / a^a at a=2 gives mu/2; a=1.5 was computed once and frozen
    assert pareto_induced_mad(1.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert pareto_induced_mad(1.0, 1.5) == pytest.approx(0.769800358919501,
                                                         rel=1e-12)
    assert pareto_induced_mad(3.0, 2.0) == pytest.approx(1.5, rel=1e-15)


def test_pareto_member_matches_spec(half_spec):
    dist = make_pareto_member(half_spec, 2.0)
    rep = verify_membership(dist, half_spec, tol=1e-9)
    assert rep.ok
    assert dist.scale == pytest.approx(0.5)  # mu (a-1)/a


def test_pareto_member_rejects_wrong_mad(half_spec):
    with pytest.raises(RobustBundlingError, match="induces MAD"):
        make_pareto_member(MeanMadSpec(1.0, 0.6), 2.0)


@pytest.mark.parametrize("a", [1.0, 0.5, 2.5, 3.0])
def test_pareto_shape_window(a):
    spec = MeanMadSpec(1.0, pareto_induced_mad(1.0, 1.8))
    with pytest.raises(RobustBundlingError, match=r"outside \(1, 2\]"):
        make_pareto_member(spec, a)


def _pareto_members(count):
    # mean() rounds mu*(a-1)/a back up by a/(a-1), an ulp off mu for some
    rng = random.Random(5)
    for _ in range(count):
        mu, a = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(1.05, 2.0)
        yield make_pareto_member(MeanMadSpec(mu, pareto_induced_mad(mu, a)), a)


def test_pareto_mad_matches_mpmath():
    members = list(_pareto_members(60))
    assert sum(dist.mean() != dist.spec.mu for dist in members) >= 5
    with mpmath.workdps(40):
        for dist in members:
            a, xm = mpmath.mpf(dist.a), mpmath.mpf(dist.scale)
            for center in (dist.spec.mu, 3.0 * dist.spec.mu):
                c = mpmath.mpf(center)
                # E|X - c| = int_xm^c F + int_c^inf (1 - F), F = 1 - (xm/x)^a
                want = (mpmath.quad(lambda x: 1 - (xm / x) ** a, [xm, c])
                        + xm ** a * c ** (1 - a) / (a - 1))
                got = dist.mad_about(center)
                assert abs(got - want) <= 1e-15 * want, (dist, center)


def test_pareto_inverse_cdf_moments(half_spec, rng):
    # integrate the quantile function: mean back within Monte Carlo error
    dist = make_pareto_member(half_spec, 2.0)
    u = rng.random(400_000)
    draws = dist.inverse_cdf(u)
    assert np.all(draws >= dist.scale)
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_membership_detects_mismatch(half_spec):
    other = make_two_point(MeanMadSpec(1.0, 0.8), 0.5)
    rep = verify_membership(other, half_spec, tol=1e-9)
    assert not rep.ok
    assert rep.mad_error > 1e-3


def test_two_point_quantile_mean_consistency(half_spec):
    # quadrature of the quantile function reproduces the mean
    dist = make_two_point(half_spec, 0.6)
    u = (np.arange(200_000) + 0.5) / 200_000
    assert dist.inverse_cdf(u).mean() == pytest.approx(1.0, abs=1e-5)
