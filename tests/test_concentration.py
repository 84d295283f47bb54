import math
import warnings

import numpy as np
import pytest

from rbl.asymptotics import ratio_bound_chain, regret_bound_chain
from rbl.ambiguity import (
    MeanMadSpec,
    make_pareto_member,
    make_three_point,
    make_two_point,
)
from rbl.bundling import guaranteed_sale_price
from rbl.concentration import (
    concentration_check_mc,
    concentration_constant,
    guaranteed_sale_chain,
    tail_truncation_sup,
)
from rbl.errors import RobustBundlingError
from rbl.sum_law import iid_two_point_sum, tail_prob


def test_truncated_tail_sup_shape(half_spec):
    mu, d = half_spec.mu, half_spec.d
    with pytest.raises(RobustBundlingError, match="need t >= "):
        tail_truncation_sup(half_spec, mu + d / 2.0 - 1e-6)
    with pytest.raises(RobustBundlingError, match="need t >= "):
        tail_truncation_sup(half_spec, math.nan)
    # flat at mu while a zero-low-point member can still clear the cut
    strip_end = mu + d * mu / (2.0 * mu - d)
    assert tail_truncation_sup(half_spec, mu + d / 2.0 + 1e-9) == pytest.approx(mu)
    assert tail_truncation_sup(half_spec, strip_end - 1e-9) == pytest.approx(mu)
    # beyond the strip: d mu / (2(t - mu)) + d/2, decreasing toward d/2
    ts = np.linspace(strip_end + 1e-6, 50.0, 300)
    vals = np.array([tail_truncation_sup(half_spec, float(t)) for t in ts])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > d / 2.0)
    assert vals[0] <= mu + 1e-12
    t = 3.0
    assert tail_truncation_sup(half_spec, t) == pytest.approx(
        d * mu / (2.0 * (t - mu)) + d / 2.0, rel=1e-15)


def test_truncated_tail_argmax_attains_sup(half_spec):
    # the member with upper mass d/(2(t - mu)), capped at 1 - alpha_min
    for t in (1.3, 1.5, 2.0, 5.0, 9.0):
        alpha = max(half_spec.alpha_min,
                    1.0 - half_spec.d / (2.0 * (t - half_spec.mu)))
        dist = make_two_point(half_spec, alpha)
        got = (1.0 - dist.alpha) * dist.y if dist.y >= t else 0.0
        assert got == pytest.approx(tail_truncation_sup(half_spec, t), rel=1e-9)


def test_truncated_tail_sup_dominates_member_grid(half_spec):
    # every feasible two-point member stays below the closed form
    t = 2.5
    sup = tail_truncation_sup(half_spec, t)
    for alpha in np.linspace(half_spec.alpha_min, 1.0 - 1e-12, 400):
        dist = make_two_point(half_spec, float(alpha))
        val = (1.0 - dist.alpha) * dist.y if dist.y >= t else 0.0
        assert val <= sup + 1e-12


def test_concentration_constant_frozen(half_spec):
    cert = concentration_constant(half_spec, 0.2)
    assert cert.t == pytest.approx(2.25, rel=1e-15)
    assert cert.f == pytest.approx(104.59710743801653, rel=1e-12)
    cert2 = concentration_constant(half_spec, 0.1)
    assert cert2.f == pytest.approx(724.85207100591716, rel=1e-12)
    for eps in (0.75, 0.0):
        with pytest.raises(RobustBundlingError, match="need 0 < eps < "):
            concentration_constant(half_spec, eps)
        # the chain checks eps before f: no bare ZeroDivisionError at 0
        with pytest.raises(RobustBundlingError, match="need 0 < eps < "):
            guaranteed_sale_chain(half_spec, 2, eps)


def test_concentration_constant_optimized_cut(half_spec):
    base = concentration_constant(half_spec, 0.2)
    opt = concentration_constant(half_spec, 0.2, optimize_t=True)
    assert opt.f <= base.f + 1e-9


@pytest.mark.parametrize("mu,d,eps", [
    (1.0, 0.5, 0.3), (1.0, 0.5, 0.2), (1.0, 0.8, 0.3), (1.0, 1.5, 0.2),
    (1.0, 1.5, 0.1), (2.3, 0.4, 0.3), (1.0, 1.9, 0.04), (7.0, 0.1, 0.9)])
def test_optimized_cut_matches_a_dense_scan(mu, d, eps):
    # f(t) over 2*10^5 geometric cuts from the lowest one up to 10^3 times it
    spec = MeanMadSpec(mu, d)
    t_min = mu + d / (2.0 * eps)
    ts = np.geomspace(t_min, 1e3 * t_min, 200_001)
    floor = (1.0 - d / (2.0 * (ts - mu))) * mu - d / 2.0
    fs = ts * ts / (4.0 * (eps * floor) ** 2)
    cert = concentration_constant(spec, eps, optimize_t=True)
    assert cert.t >= t_min
    assert cert.f <= fs.min() * (1.0 + 1e-13)
    # the scan's step is 3.5e-5 in t, about 1e-9 in f near the minimum
    assert cert.f == pytest.approx(fs.min(), rel=1e-8)
    assert cert.t == pytest.approx(ts[np.argmin(fs)], rel=1e-3)
    if np.argmin(fs) == 0:  # the lowest cut wins: f is its default value
        assert cert.t == t_min
        assert cert.f == pytest.approx(concentration_constant(spec, eps).f,
                                       rel=1e-14)


def test_optimized_cut_is_scale_free(half_spec):
    base = concentration_constant(half_spec, 0.3, optimize_t=True)
    assert base.t == 2.0  # mu (1 + sqrt(1/4)) / (1 - 1/4)
    for scale in (1e-150, 1e152):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = concentration_constant(MeanMadSpec(scale, 0.5 * scale), 0.3,
                                          optimize_t=True)
        assert cert.t / scale == pytest.approx(base.t, rel=1e-15)
        assert cert.f == pytest.approx(base.f, rel=1e-14)
    # the optimized cut's square once left double range here; f is formed
    # in units of mu now, so it is the unit-scale value
    unit = concentration_constant(MeanMadSpec(1.0, 1.0), 0.3, optimize_t=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = concentration_constant(MeanMadSpec(4.5e153, 4.5e153), 0.3,
                                      optimize_t=True)
    assert cert.f == unit.f
    assert cert.t / 4.5e153 == pytest.approx(unit.t, rel=1e-15)


@pytest.mark.parametrize("m", [100, 10_000])
@pytest.mark.parametrize("eps", [0.2, 0.3])
def test_certificates_and_chains_are_scale_free_decade_by_decade(m, eps):
    # mu = 10^e, d = mu/2, so b = d/(2 mu) = 1/4 exactly at every decade:
    # f and the bound keep the unit scale's bits, and every end, t and
    # threshold per mu match it, as does the truncated-tail supremum; the
    # lowest cut at eps = 0.2, the interior t* = 2 mu at 0.3
    def run(spec):
        cert = concentration_constant(spec, eps)
        opt = concentration_constant(spec, eps, optimize_t=True)
        ratio = ratio_bound_chain(spec, m, eps)
        regret = regret_bound_chain(spec, m, eps, 0.3)
        bits = (cert.f, cert.bound(m), opt.f, opt.bound(m))
        per_mu = (cert.t, opt.t, tail_truncation_sup(spec, cert.t),
                  guaranteed_sale_price(spec, m, eps), regret["upper"],
                  regret["lower"])
        return bits, [v / spec.mu for v in per_mu] + [ratio["lower"],
                                                      ratio["upper"]]

    want_bits, want = run(MeanMadSpec(1.0, 0.5))
    decades = range(-307, 307)
    accepted = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in decades:
            mu = 10.0 ** e
            try:
                bits, got = run(MeanMadSpec(mu, mu / 2.0))
            except RobustBundlingError:
                continue
            accepted.append(e)
            assert bits == want_bits, e
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), e
    # only the top decades, where the sale price m*(...)*mu overflows, fail
    assert accepted == list(decades)[:len(accepted)]
    assert len(accepted) >= len(decades) - (2 if m > 100 else 0)


def test_a_cut_or_f_out_of_double_range_is_rejected(half_spec):
    # f = (1 + b/eps)^2 / ... overflows for a thin cut; t = 2.25 mu overflows
    # near the top of the range although f is the unit-scale value there
    for spec, eps in ((half_spec, 1e-160), (MeanMadSpec(8e307, 4e307), 0.2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RobustBundlingError, match="not a finite double"):
                concentration_constant(spec, eps)


def test_certificate_bound(half_spec):
    # the MC check's threshold is pinned to guaranteed_sale_price in
    # test_bound_binds_at_m300_and_mc_tracks_the_exact_tails
    cert = concentration_constant(half_spec, 0.2)
    assert cert.bound(10_000) == pytest.approx(1.0 - cert.f / 10_000,
                                               rel=1e-12)
    bounds = [cert.bound(m) for m in (200, 1000, 10_000, 10 ** 6)]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 0.999
    # below f the bound clips to zero instead of going negative
    assert cert.bound(50) == 0.0
    with pytest.raises(RobustBundlingError, match="need m >= 1"):
        cert.bound(0)


@pytest.mark.parametrize("m", [300, 2000])
def test_bound_holds_on_exact_two_point_laws(half_spec, m):
    # exact convolution tail never drops below 1 - f/m, any member
    bound = concentration_constant(half_spec, 0.2).bound(m)
    threshold = guaranteed_sale_price(half_spec, m, 0.2)
    for alpha in np.linspace(half_spec.alpha_min, 0.99999, 60):
        law = iid_two_point_sum(make_two_point(half_spec, float(alpha)), m)
        assert tail_prob(law, threshold) >= bound - 1e-12


def test_bound_binds_at_m300_and_mc_tracks_the_exact_tails(half_spec):
    # 1 - f/m ~ 0.65 lies inside (0, 1): the certificate is not clipped to 0
    m, n = 300, 10_000
    cert = concentration_constant(half_spec, 0.2)
    bound, threshold = cert.bound(m), guaranteed_sale_price(half_spec, m, 0.2)
    assert 0.0 < bound < 1.0
    assert bound == max(0.0, 1.0 - cert.f / m)
    members = [make_two_point(half_spec, float(a))
               for a in np.linspace(half_spec.alpha_min, 0.99999, 8)]
    three = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    # exact law of m i.i.d. three-point values on the integer lattice
    pmf = np.array([1.0])
    for _ in range(m):
        pmf = np.convolve(pmf, three.probs)
    three_tail = float(pmf[np.arange(pmf.size) >= threshold].sum())
    for seed, dist in enumerate(members + [three]):
        exact = three_tail if dist is three else tail_prob(
            iid_two_point_sum(dist, m), threshold)
        assert exact >= bound
        rep = concentration_check_mc([dist], m=m, eps=0.2, n=n, seed=seed)
        assert rep.threshold == threshold and rep.bound == bound
        p = min(exact, 1.0)  # a summed tail can round past 1
        assert abs(rep.empirical - p) <= 6.0 * math.sqrt(p * (1.0 - p) / n)


def test_mc_check_two_point(half_spec):
    rep = concentration_check_mc([make_two_point(half_spec, 0.5)],
                                 m=500, eps=0.2, n=10_000, seed=1)
    assert rep.passed
    assert rep.empirical >= rep.bound - 3.0 * rep.std_err
    assert rep.m == 500 and rep.n == 10_000 and rep.seed == 1
    d = rep.to_dict()
    assert set(d) >= {"empirical", "bound", "std_err", "passed", "threshold",
                      "m", "eps", "n", "seed"}


def test_mc_check_is_seed_stable(half_spec):
    a = concentration_check_mc([make_pareto_member(half_spec, 2.0)],
                               m=200, eps=0.2, n=10_000, seed=42)
    b = concentration_check_mc([make_pareto_member(half_spec, 2.0)],
                               m=200, eps=0.2, n=10_000, seed=42)
    assert a.empirical == b.empirical


def test_mc_check_cycles_mixed_members(half_spec):
    members = [make_two_point(half_spec, 0.5),
               make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))]
    rep = concentration_check_mc(members, m=301, eps=0.2, n=10_000, seed=2)
    assert rep.passed


def test_mc_check_guards(half_spec):
    good = make_two_point(half_spec, 0.5)
    with pytest.raises(RobustBundlingError, match="need n >= 10000"):
        concentration_check_mc([good], m=100, eps=0.2, n=9_999, seed=0)
    # moments that do not match the claimed spec (mad 0.6 against d = 0.5)
    drifted = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.3, 0.4, 0.3))
    with pytest.raises(RobustBundlingError, match="member moments off"):
        concentration_check_mc([drifted], m=100, eps=0.2, n=10_000, seed=0)
    with pytest.raises(RobustBundlingError, match="at least one member"):
        concentration_check_mc([], m=100, eps=0.2, n=10_000, seed=0)
    other = make_two_point(MeanMadSpec(1.0, 0.8), 0.5)
    with pytest.raises(RobustBundlingError, match="share one mean/MAD"):
        concentration_check_mc([good, other], m=2, eps=0.2, n=10_000, seed=0)


def test_mc_check_workers_equal(half_spec):
    two = make_two_point(half_spec, 0.5)
    three = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    pareto = make_pareto_member(half_spec, 2.0)
    for members in ([two], [pareto], [two, three, pareto]):
        a = concentration_check_mc(members, m=128, eps=0.2, n=10_000, seed=8,
                                   workers=1)
        b = concentration_check_mc(members, m=128, eps=0.2, n=10_000, seed=8,
                                   workers=3)
        assert a.empirical == b.empirical
