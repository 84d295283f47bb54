import numpy as np
import pytest

from rbl.ambiguity import MeanMadSpec, make_two_point
from rbl.bundling import (
    best_bundle_price,
    guaranteed_sale_price,
    separate_sale_revenue,
)
from rbl.errors import RobustBundlingError
from rbl.sum_law import iid_two_point_sum, tail_prob


def test_best_price_m1_closed_form(half_spec):
    # single item: charge x and always sell, or charge y and sell w.p. 1-alpha
    for alpha in np.linspace(half_spec.alpha_min, 0.999, 17):
        dist = make_two_point(half_spec, float(alpha))
        law = iid_two_point_sum(dist, 1)
        got = best_bundle_price(law)
        want = max(dist.x, (1.0 - dist.alpha) * dist.y)
        assert got.revenue == pytest.approx(want, rel=1e-14)


def test_best_price_frozen_m1_point(half_spec):
    got = best_bundle_price(iid_two_point_sum(make_two_point(half_spec, 0.5), 1))
    assert got.price == 1.5
    assert got.revenue == 0.75


def test_best_price_brute_force(half_spec):
    law = iid_two_point_sum(make_two_point(half_spec, 0.37), 6)
    got = best_bundle_price(law)
    revs = [p * tail_prob(law, float(p)) for p in law.support]
    assert got.revenue == pytest.approx(max(revs), rel=1e-14)
    # only support points can be optimal: nudging any price up loses the atom
    assert got.price in law.support


def test_best_price_tie_takes_lowest(half_spec):
    # two atoms engineered to give equal revenue; the cheaper price wins
    from rbl.sum_law import SumLaw
    law = SumLaw(support=np.array([1.0, 2.0]), probs=np.array([0.5, 0.5]))
    got = best_bundle_price(law)  # 1.0 * 1.0 == 2.0 * 0.5
    assert got.revenue == 1.0
    assert got.price == 1.0


def test_guaranteed_sale_price_frozen(half_spec):
    # (1-eps)^2 m (mu - d/(2(1-eps))) at eps=0.1, m=1000 comes out exactly 585
    assert guaranteed_sale_price(half_spec, 1000, 0.1) == pytest.approx(
        585.0, abs=1e-9)
    # threshold per item at eps=0.2 used by the Monte Carlo checks
    assert guaranteed_sale_price(half_spec, 10_000, 0.2) / 10_000 == \
        pytest.approx(0.44, rel=1e-12)


def test_guaranteed_sale_price_eps_window(half_spec):
    for eps in (0.0, -0.1, 0.75, 0.9, 1.0):
        with pytest.raises(RobustBundlingError, match="need 0 < eps < "):
            guaranteed_sale_price(half_spec, 10, eps)
    assert guaranteed_sale_price(half_spec, 10, 0.7499) > 0.0


def test_guaranteed_sale_price_must_be_a_double():
    spec = MeanMadSpec(1e307, 5e306)
    assert guaranteed_sale_price(spec, 10, 0.2) == pytest.approx(4.4e307)
    with pytest.raises(RobustBundlingError, match="not a finite double"):
        guaranteed_sale_price(spec, 100, 0.2)


def test_guaranteed_sale_price_always_sells(half_spec):
    # at the worst member the sum still clears the price with the stated slack
    m, eps = 200, 0.2
    p = guaranteed_sale_price(half_spec, m, eps)
    for alpha in np.linspace(half_spec.alpha_min, 0.999999, 9):
        law = iid_two_point_sum(make_two_point(half_spec, float(alpha)), m)
        assert tail_prob(law, p) > 0.0


def test_separate_sale_revenue(half_spec):
    dist = make_two_point(half_spec, 0.5)
    assert separate_sale_revenue(dist, 2) == pytest.approx(1.5, rel=1e-15)
    assert separate_sale_revenue(dist, 7) == pytest.approx(7 * 0.75, rel=1e-15)


def test_second_point_revenue_frozen(half_spec):
    # m=2, alpha=1/2: price (m-1)x + y = 2, sell prob 1 - alpha^2 = 3/4
    law = iid_two_point_sum(make_two_point(half_spec, 0.5), 2)
    assert 2.0 * tail_prob(law, 2.0) / 2 == pytest.approx(0.75, rel=1e-15)


@pytest.mark.parametrize("m", [1, 2, 5, 17])
@pytest.mark.parametrize("alpha", [0.26, 0.5, 0.93])
def test_second_point_revenue_cross_route(half_spec, m, alpha):
    # the exact convolution priced at its second atom (m-1) x + y sells
    # unless every item draws low: per item ((m-1) x + y)(1 - alpha^m) / m
    dist = make_two_point(half_spec, alpha)
    law = iid_two_point_sum(dist, m)
    p = (m - 1) * dist.x + dist.y
    want = p * -np.expm1(m * np.log(alpha)) / m
    assert p * tail_prob(law, p) / m == pytest.approx(want, rel=1e-13)
