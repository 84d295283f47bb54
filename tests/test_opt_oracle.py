import numpy as np
import pytest

from rbl.ambiguity import MeanMadSpec, make_three_point, make_two_point
from rbl.bundling import best_bundle_price, separate_sale_revenue
from rbl.errors import RobustBundlingError
from rbl.opt_oracle import (
    BidLattice,
    MenuMechanism,
    _eval_block,
    _full_problem,
    _symmetric_problem,
    _tie_tol,
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
    # a row breaking both reports its IR pair ahead of its IC one
    rep3 = verify_truthful(np.array([[1], [0]]), np.array([1.0, 0.0]), lat)
    assert rep3.first_violation == (0, 0)
    assert (rep3.worst_ic_gap, rep3.worst_ir_gap) == (0.5, 0.5)
    # an IC-only row ahead of an IR-only row is the first violation
    swapped = BidLattice(m=1, values=np.array([[2.0], [0.5]]),
                         probs=np.array([0.5, 0.5]), tol=lat.tol)
    rep4 = verify_truthful(z, np.array([1.0, 0.75]), swapped)
    assert rep4.first_violation == (0, 1)
    assert (rep4.worst_ic_gap, rep4.worst_ir_gap) == (0.25, 0.25)


def test_menu_revenue_matches_expectation(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    menu = MenuMechanism(m=1, entries=((0, 0.0), (1, d0.y)))
    got = menu_revenue(menu, [d0])
    assert got == pytest.approx((1.0 - d0.alpha) * d0.y, rel=1e-15)


def test_menu_sized_for_other_items_is_rejected(half_spec):
    d0 = make_two_point(half_spec, 0.5)
    one = MenuMechanism(m=1, entries=((0, 0.0), (1, d0.y)))
    with pytest.raises(RobustBundlingError, match="menu prices 1 items, got 2"):
        menu_revenue(one, [d0, d0])
    with pytest.raises(RobustBundlingError, match="menu prices 1 items, got 2"):
        menu_to_tables(one, bid_lattice([d0, d0]))
    two = MenuMechanism(m=2, entries=((0, 0.0), (3, 2.0 * d0.x)))
    with pytest.raises(RobustBundlingError, match="menu prices 2 items, got 1"):
        menu_revenue(two, [d0])
    for mask in (2, -1):
        stray = MenuMechanism(m=1, entries=((0, 0.0), (mask, d0.x)))
        with pytest.raises(RobustBundlingError, match=r"must lie in 0\.\.1: \[0, "):
            menu_revenue(stray, [d0])
        with pytest.raises(RobustBundlingError, match=r"must lie in 0\.\.1: \[0, "):
            menu_to_tables(stray, bid_lattice([d0]))


def _reference_choice(menu, values, tol):
    """The per-profile chooser that `MenuMechanism.choices` vectorizes."""
    vals = list(values)
    u = np.array([sum(vals[i] for i in range(menu.m) if (mask >> i) & 1) - price
                  for mask, price in menu.entries])
    top = float(u.max())
    best_idx, best_key = -1, None
    for idx, (mask, price) in enumerate(menu.entries):
        if u[idx] < top - tol:
            continue
        key = (price, mask.bit_count(), -mask)
        if best_idx < 0 or key > best_key:
            best_idx, best_key = idx, key
    return best_idx


def test_choices_match_the_per_profile_reference(rng):
    # ties are inclusive: the 0.75 entry sits exactly tol below the best
    # utility of both types and still wins on price
    lat = BidLattice(m=1, values=np.array([[1.0], [2.0]]),
                     probs=np.array([0.5, 0.5]), tol=0.25)
    menu = MenuMechanism(m=1, entries=((0, 0.0), (1, 0.5), (1, 0.75)))
    assert menu.choices(lat).tolist() == [2, 2]
    # quarter-unit values, prices and tol keep every utility exact, so ties on
    # price, on bundle size and on mask, and gaps of exactly tol, are exact
    for _ in range(300):
        m = int(rng.integers(1, 4))
        n = 1 << m
        lat = BidLattice(m=m, values=rng.integers(0, 12, size=(n, m)) / 4.0,
                         probs=np.full(n, 1.0 / n), tol=0.25)
        entries = [(0, 0.0)] + [
            (int(rng.integers(n)), float(rng.integers(16)) / 4.0)
            for _ in range(int(rng.integers(1, 3 * n)))]
        mask, price = entries[int(rng.integers(len(entries)))]
        same_size = [mk for mk in range(n) if mk.bit_count() == mask.bit_count()]
        entries += [(mask, price),
                    (int(rng.choice(same_size)), price),
                    (int(rng.integers(n)), price)]
        order = rng.permutation(len(entries))
        menu = MenuMechanism(m=m, entries=tuple(entries[i] for i in order))
        want = [_reference_choice(menu, v, lat.tol) for v in lat.values]
        assert menu.choices(lat).tolist() == want


@pytest.mark.parametrize("m,symmetric,revenue,entries,evaluated", [
    (4, True, "2.9375999999999993",
     ((0, 0.0), (1, 1.625), (2, 1.625), (4, 1.625), (8, 1.625),
      (3, 2.208333333333333), (5, 2.208333333333333), (9, 2.208333333333333),
      (6, 2.208333333333333), (10, 2.208333333333333),
      (12, 2.208333333333333), (7, 2.7916666666666665),
      (11, 2.7916666666666665), (13, 2.7916666666666665),
      (14, 2.7916666666666665), (15, 3.375)), 3753),
    (3, False, "2.1886666666666668",
     ((0, 0.0), (1, 1.625), (2, 1.625), (4, 1.625), (3, 2.208333333333333),
      (5, 2.208333333333333), (6, 2.208333333333333),
      (7, 2.7916666666666665)), 406932)])
def test_unpinned_witnesses_keep_their_bits(half_spec, m, symmetric, revenue,
                                            entries, evaluated):
    # no golden file holds these; size-symmetric entries keep the
    # `combinations` mask order (3, 5, 9, 6, 10, 12 at m = 4)
    res = opt_deterministic([make_two_point(half_spec, 0.6)], m,
                            symmetric=symmetric)
    assert repr(res.revenue) == revenue
    assert repr(res.witness.entries) == repr(entries)
    assert res.menus_evaluated == evaluated


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
    three = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    with pytest.raises(RobustBundlingError, match="two-point members only"):
        opt_deterministic([d0, three], 2)


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


@pytest.mark.parametrize("m,symmetric", [(1, False), (2, False), (3, False),
                                         (1, True), (2, True), (3, True),
                                         (4, True)])
def test_search_scores_a_menu_as_the_buyer_chooses(rng, m, symmetric):
    # `_eval_block` scores candidate menus with its own copy of the buyer
    # rule; on any price row of the candidate grid (ties, absent bundles and
    # gaps inside the tie tolerance included) it must give `menu_revenue`
    for _ in range(8):
        mu = float(rng.choice([1e-3, 1.0, 2.3]))
        spec = MeanMadSpec(mu, mu * float(rng.uniform(0.05, 1.95)))
        alphas = rng.uniform(spec.alpha_min, 0.99, 1 if symmetric else m)
        dists = [make_two_point(spec, float(a)) for a in alphas]
        members = dists * m if len(dists) == 1 else dists
        V, mass, _, groups = (_symmetric_problem(members[0], m) if symmetric
                              else _full_problem(members))
        tol = _tie_tol(members)
        G = np.unique(np.concatenate([[0.0], V.ravel()]))
        opts = [np.append(G[G <= V[:, j].max()], np.inf)
                for j in range(V.shape[1])]
        L = np.array([[rng.choice(o) for o in opts] for _ in range(40)])
        # copy prices across entries for exact ties, and move some by half
        # the tolerance for ties that only the tolerance makes
        copy = rng.random(L.shape) < 0.2
        L[copy] = L[np.arange(L.shape[0])[:, None],
                    rng.integers(L.shape[1], size=L.shape)][copy]
        L += np.where(rng.random(L.shape) < 0.2,
                      rng.choice([-0.5, 0.5], size=L.shape) * tol, 0.0)
        L = np.maximum(L, 0.0)
        got = _eval_block(L, V, mass, tol)
        for row, rev in zip(L, got):
            menu = MenuMechanism(m=m, entries=((0, 0.0),) + tuple(
                (mask, float(p)) for p, group in zip(row, groups)
                if not np.isinf(p) for mask in group))
            assert rev == pytest.approx(menu_revenue(menu, members),
                                        rel=1e-12, abs=0.0)
