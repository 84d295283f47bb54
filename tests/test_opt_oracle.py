import numpy as np
import pytest

from rbl.ambiguity import MeanMadSpec, make_two_point
from rbl.bundling import best_bundle_price, separate_sale_revenue
from rbl.errors import RobustBundlingError
from rbl.opt_oracle import (
    MenuMechanism,
    bid_lattice,
    menu_revenue,
    menu_to_tables,
    opt_deterministic,
    verify_truthful,
)
from rbl.sum_law import iid_two_point_sum


def test_lattice_enumerates_profiles(half_spec):
    members = [make_two_point(half_spec, a) for a in (0.3, 0.6)]
    lat = bid_lattice(members)
    assert lat.values.shape == (4, 2)
    assert lat.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # row index bit i selects the high point of item i
    assert list(lat.values[0]) == [members[0].x, members[1].x]
    assert list(lat.values[3]) == [members[0].y, members[1].y]
    assert lat.probs[0] == pytest.approx(0.3 * 0.6)


def test_m1_oracle_closed_form_bitwise(half_spec):
    for alpha in np.linspace(half_spec.alpha_min, 1.0 - 1e-9, 50):
        dist = make_two_point(half_spec, float(alpha))
        got = opt_deterministic([dist], 1).revenue
        assert got == max(dist.x, (1.0 - dist.alpha) * dist.y)


def test_m2_oracle_beats_both_baselines(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    res = opt_deterministic([d0], 2)
    bundle = best_bundle_price(iid_two_point_sum(d0, 2)).revenue
    separate = separate_sale_revenue(d0, 2)
    assert res.revenue >= bundle - 1e-12
    assert res.revenue >= separate - 1e-12
    assert res.revenue >= 1.5


def test_m2_witness_is_truthful(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    res = opt_deterministic([d0], 2)
    lat = bid_lattice([d0, d0])
    z, pi = menu_to_tables(res.witness, lat)
    rep = verify_truthful(z, pi, lat)
    assert rep.ok
    assert rep.worst_ic_gap <= 1e-9
    assert rep.worst_ir_gap <= 1e-9


def test_verify_truthful_flags_violations(half_spec):
    members = [make_two_point(half_spec, 0.5)]
    lat = bid_lattice(members)
    # charging above the low value breaks participation for the low type
    z = np.array([[1], [1]])
    pi = np.array([1.0, 1.0])
    rep = verify_truthful(z, pi, lat)
    assert not rep.ok
    assert rep.worst_ir_gap > 0.4
    assert rep.first_violation == (0, 0)
    # cheaper allocation elsewhere breaks incentive compatibility
    pi2 = np.array([0.2, 1.2])
    rep2 = verify_truthful(z, np.array(pi2), lat)
    assert not rep2.ok
    assert rep2.worst_ic_gap >= 1.0 - 1e-12


def test_menu_revenue_matches_expectation(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    menu = MenuMechanism(m=1, entries=((0, 0.0), (1, d0.y)))
    got = menu_revenue(menu, [d0])
    assert got == pytest.approx((1.0 - d0.alpha) * d0.y, rel=1e-15)


def test_symmetric_agrees_with_full(rng):
    for _ in range(6):
        mu = 0.5 + 1.5 * rng.random()
        d = mu * (0.1 + 1.8 * rng.random())
        spec = MeanMadSpec(mu, d)
        alpha = spec.alpha_min + (1.0 - spec.alpha_min) * 0.98 * rng.random()
        dist = make_two_point(spec, float(alpha))
        m = int(rng.integers(1, 4))
        full = opt_deterministic([dist], m, symmetric=False)
        sym = opt_deterministic([dist], m, symmetric=True)
        assert sym.revenue == pytest.approx(full.revenue, rel=1e-12)
        assert sym.symmetric and not full.symmetric


def test_symmetric_witness_stays_truthful(half_spec):
    d0 = make_two_point(half_spec, 0.4)
    res = opt_deterministic([d0], 3, symmetric=True)
    lat = bid_lattice([d0] * 3)
    z, pi = menu_to_tables(res.witness, lat)
    assert verify_truthful(z, pi, lat).ok


def test_heterogeneous_oracle_runs(half_spec):
    dists = [make_two_point(half_spec, a) for a in (0.3, 0.7)]
    res = opt_deterministic(dists, 2)
    # selling one high point alone is always available as a menu
    floor = max((1.0 - d.alpha) * d.y for d in dists)
    assert res.revenue >= floor - 1e-12
    assert res.revenue <= sum(half_spec.mu for _ in dists) + 1e-9


def test_oracle_guards(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    with pytest.raises(RobustBundlingError, match="full menu enumeration caps"):
        opt_deterministic([d0], 4)
    with pytest.raises(RobustBundlingError, match="size-based menus cap"):
        opt_deterministic([d0], 5, symmetric=True)
    with pytest.raises(RobustBundlingError, match="need m >= 1"):
        opt_deterministic([d0], 0)
    with pytest.raises(RobustBundlingError, match="got 2 members for m=3 items"):
        opt_deterministic([d0, d0], 3)
    other = make_two_point(half_spec, 0.7)
    with pytest.raises(RobustBundlingError, match="needs identical items"):
        opt_deterministic([d0, other], 2, symmetric=True)


def test_symmetric_m4_within_cap(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    res = opt_deterministic([d0], 4, symmetric=True)
    assert res.revenue >= separate_sale_revenue(d0, 4) - 1e-12
    assert res.revenue <= 4 * half_spec.mu + 1e-9


def test_menu_json_shape(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    res = opt_deterministic([d0], 2)
    obj = res.witness.to_json_obj()
    assert isinstance(obj, list)
    for entry in obj:
        assert set(entry) == {"bundle", "price"}
        assert entry["bundle"] == sorted(entry["bundle"])


@pytest.mark.parametrize("scale", [1e-100, 1e-12, 1e100])
@pytest.mark.parametrize("alphas,m,symmetric", [
    ((0.5, 0.7), 2, False), ((0.5,), 2, False), ((0.8,), 1, False),
    ((0.6,), 3, True), ((0.7,), 4, True)])
def test_oracle_is_scale_invariant(scale, alphas, m, symmetric):
    # ties are relative to mu, so rescaling mu and d rescales the revenue
    # and leaves the search alone
    def solve(s):
        members = [make_two_point(MeanMadSpec(s, s), a) for a in alphas]
        return members, opt_deterministic(members, m, symmetric=symmetric)

    _, base = solve(1.0)
    members, res = solve(scale)
    assert res.revenue / scale == pytest.approx(base.revenue, rel=1e-12)
    assert res.menus_evaluated == base.menus_evaluated
    lat = bid_lattice(members * m if len(members) == 1 else members)
    z, pi = menu_to_tables(res.witness, lat)
    assert verify_truthful(z, pi, lat).ok
