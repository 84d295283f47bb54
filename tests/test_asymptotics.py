import numpy as np
import pytest

from rbl import asymptotics
from rbl.ambiguity import MeanMadSpec
from rbl.asymptotics import (
    ratio_bound_chain,
    ratio_empirical,
    regret_bound_chain,
    regret_empirical,
    schedule_eps_gamma,
    second_point_limit,
    variance_boundary_member,
    xi_gap,
)
from rbl.errors import RobustBundlingError
from rbl.solvers import maximin_bundling_value


def test_schedule():
    assert schedule_eps_gamma(10_000) == pytest.approx(0.1, rel=1e-15)
    assert schedule_eps_gamma(10 ** 8) == pytest.approx(0.01, rel=1e-12)
    vals = [schedule_eps_gamma(m) for m in (10, 100, 10_000, 10 ** 6)]
    assert vals == sorted(vals, reverse=True)


def test_second_point_limit_frozen(half_spec):
    # lambda = 1: (1 - e^-1)(mu + 0 * d/2)
    assert second_point_limit(half_spec, 1.0) == pytest.approx(
        0.6321205588285577, rel=1e-13)
    with pytest.raises(RobustBundlingError, match="need lambda > 0"):
        second_point_limit(half_spec, 0.0)
    with pytest.raises(RobustBundlingError, match="need lambda > 0"):
        second_point_limit(half_spec, -2.0)
    # at lam = inf the formula is 0 * inf, a NaN with a RuntimeWarning
    for lam in (np.inf, np.nan):
        with pytest.raises(RobustBundlingError, match="need lambda > 0 and finite"):
            second_point_limit(half_spec, lam)


@pytest.mark.parametrize("chain", [
    lambda spec: ratio_bound_chain(spec, 0, 0.1),
    lambda spec: regret_bound_chain(spec, 0, 0.1, 0.1),
])
def test_bound_chains_reject_m_zero(half_spec, chain):
    # once a ZeroDivisionError from the guaranteed-sale chain
    with pytest.raises(RobustBundlingError, match="need m >= 1"):
        chain(half_spec)


@pytest.mark.parametrize("d", [0.5, 1.5])
def test_second_point_limit_endpoints(d):
    spec = MeanMadSpec(1.0, d)
    assert abs(second_point_limit(spec, 1e-3) - (1.0 - d / 2.0)) <= 1e-2
    assert abs(second_point_limit(spec, 1e3) - d / 2.0) <= 1e-3


def test_xi_gap_frozen(wide_spec):
    res = xi_gap(wide_spec)
    assert res["gamma"] == pytest.approx(8.0 / 33.0, rel=1e-12)
    assert res["xi0"] == pytest.approx(0.5, rel=1e-12)
    assert res["xi1"] == pytest.approx(7.835935108662095e-4, rel=1e-9)
    assert res["xi"] == res["xi1"]
    assert res["xi"] > 0.0


@pytest.mark.parametrize("d", [1.01, 1.1, 1.25, 4.0 / 3.0, 1.5, 1.9])
def test_xi1_closed_form_is_the_infimum(d):
    # below d = 4 mu / 3 the gap rises and then falls in 1/lam, from 4 mu / 3
    # on it only falls; either way a dense scan out to lam = 1e12 never dips
    # below min(g(tau0) - (mu - d/2), d - mu)
    spec = MeanMadSpec(1.0, d)
    res = xi_gap(spec)
    lam = np.geomspace(res["tau0"], 1e12, 200_000)
    scan = asymptotics._g(spec, lam) - (spec.mu - d / 2.0)
    assert scan.min() >= res["xi1"]
    assert res["xi1"] == min(scan[0], d - spec.mu)


def test_xi_gap_range_guards():
    with pytest.raises(RobustBundlingError, match=r"need mu < d < 2\*mu"):
        xi_gap(MeanMadSpec(1.0, 0.5))  # needs d > mu
    with pytest.raises(RobustBundlingError, match="0.99 headroom constant"):
        xi_gap(MeanMadSpec(1.0, 1.99))  # blocked by the 0.99 margin constant


def test_variance_boundary_member(half_spec):
    # E[X^2] - mu^2 of the feasibility-boundary member, closed form d mu^2/(2mu-d)
    g = variance_boundary_member(half_spec)
    assert g == pytest.approx(1.0 / 3.0, rel=1e-12)
    a0 = half_spec.alpha_min
    y = half_spec.mu + half_spec.d / (2.0 * (1.0 - a0))
    direct = (1.0 - a0) * y * y - half_spec.mu ** 2
    assert g == pytest.approx(direct, rel=1e-12)


def test_ratio_chain_frozen_m1e4(half_spec):
    chain = ratio_bound_chain(half_spec, 10_000, 0.1)
    assert set(chain) == {"lower", "upper"}
    assert chain["lower"] == pytest.approx(0.54260, abs=5e-4)
    assert chain["upper"] == pytest.approx(0.79787, abs=5e-4)
    assert chain["lower"] <= chain["upper"]


@pytest.mark.parametrize("mu,d", [(1.0, 0.5), (1.0, 0.8), (1.0, 1.5),
                                  (2.3, 0.4)])
@pytest.mark.parametrize("m", [2, 3, 4, 16, 100, 10_000])
def test_ratio_upper_matches_a_dense_gamma_scan(mu, d, m):
    spec = MeanMadSpec(mu, d)
    g = variance_boundary_member(spec)
    gam = np.linspace(1e-6, 1.0 - 1e-6, 200_001)
    bracket = 1.0 - g / ((gam * mu) ** 2 * m)
    ok = bracket > 0.0
    scan = ((2.0 * mu - d) / (2.0 * mu) / ((1.0 - gam[ok]) * bracket[ok])).min(
        initial=np.inf)
    upper = ratio_bound_chain(spec, m, 0.1 * (1.0 - spec.alpha_min))["upper"]
    if np.isinf(scan):
        assert upper == np.inf
    else:
        assert upper <= scan * (1.0 + 1e-14)
        assert upper == pytest.approx(scan, rel=1e-8)


def test_ratio_upper_is_infinite_from_c_one(wide_spec):
    # g = 3 at (1, 1.5), so c = g/(mu^2 m) = 3/m reaches 1 at m = 3
    assert variance_boundary_member(wide_spec) == 3.0
    assert ratio_bound_chain(wide_spec, 2, 0.1)["upper"] == np.inf
    assert ratio_bound_chain(wide_spec, 3, 0.1)["upper"] == np.inf
    assert np.isfinite(ratio_bound_chain(wide_spec, 4, 0.1)["upper"])
    # just below c = 1 the best gamma nears 1 and the bound grows without end
    near = ratio_bound_chain(MeanMadSpec(1.0, 1.5 - 1e-9), 3, 0.1)["upper"]
    assert 1e6 < near < np.inf


def test_ratio_chain_tightens_far_out(half_spec):
    # the bracket closes onto 1 - d/(2 mu) only at very large m
    m = 10 ** 8
    chain = ratio_bound_chain(half_spec, m, schedule_eps_gamma(m))
    assert chain["lower"] == pytest.approx(0.70998, abs=5e-3)
    assert chain["upper"] - 0.75 < 0.01
    assert chain["lower"] <= 0.75 <= chain["upper"]
    m2 = 10 ** 12
    chain2 = ratio_bound_chain(half_spec, m2, schedule_eps_gamma(m2))
    assert abs(chain2["lower"] - 0.75) <= 0.05
    assert abs(chain2["upper"] - 0.75) <= 0.05


def test_regret_chain_frozen_m1e4(half_spec):
    chain = regret_bound_chain(half_spec, 10_000, 0.1, 0.1)
    assert chain["upper"] == pytest.approx(0.45740, abs=5e-4)
    assert chain["lower"] == pytest.approx(0.147, abs=5e-3)
    assert chain["lower"] <= 0.25 <= chain["upper"]


def test_regret_chain_tightens_far_out(half_spec):
    m = 10 ** 12
    s = schedule_eps_gamma(m)
    chain = regret_bound_chain(half_spec, m, s, s)
    assert abs(chain["upper"] - 0.25) <= 0.05
    assert abs(chain["lower"] - 0.25) <= 0.05


def test_regret_chain_gamma_guard(half_spec):
    for gamma in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(RobustBundlingError, match="need 0 < gamma < 1"):
            regret_bound_chain(half_spec, 100, 0.1, gamma)


def test_ratio_empirical_oracle_mode(half_spec):
    rep = ratio_empirical(half_spec, 2)
    assert rep.mode == "oracle"
    # regression pin at the default grid; refining can only lower the value
    assert rep.value == pytest.approx(0.5518, abs=2e-3)
    coarse = ratio_empirical(half_spec, 2, grid=128)
    assert rep.value <= coarse.value + 1e-9


def test_ratio_empirical_mu_upper_mode(half_spec):
    rep = ratio_empirical(half_spec, 16)
    want = maximin_bundling_value(half_spec, 16).value / half_spec.mu
    assert rep.mode == "mu_upper"
    assert rep.value == pytest.approx(want, rel=1e-9)


def test_regret_empirical_modes(half_spec):
    rep2 = regret_empirical(half_spec, 2)
    assert rep2.mode == "oracle"
    assert rep2.value == pytest.approx(0.375, abs=1e-3)
    rep = regret_empirical(half_spec, 16)
    want = half_spec.mu - maximin_bundling_value(half_spec, 16).value
    assert rep.mode == "mu_upper"
    assert rep.value == pytest.approx(want, rel=1e-9)
