import ast
import math
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64DXSM, Generator
from scipy import stats as scipy_stats
from scipy.special import bdtri, kolmogorov
from scipy.special._ufuncs import _binom_cdf, _binom_sf
from scipy.stats import binom as scipy_binom

from rbl import opt_oracle, sum_law
from rbl.ambiguity import (
    MeanMadSpec,
    ThreePointDist,
    make_pareto_member,
    make_three_point,
    make_two_point,
    pareto_induced_mad,
)
from rbl.bundling import guaranteed_sale_price
from rbl.errors import RobustBundlingError
from rbl.sum_law import (
    _atom_counts,
    _binom_inverse,
    _conditional_masses,
    binom_sf,
    binom_window,
    count_at_least,
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
    assert np.dot(law.support, law.probs) == pytest.approx(m * half_spec.mu,
                                                         rel=1e-12)
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
    with pytest.raises(RobustBundlingError, match="share one mean/MAD"):
        product_sum([d0, other])
    with pytest.raises(RobustBundlingError, match="21 factors exceeds the cap of 20"):
        product_sum([d0] * 21)
    with pytest.raises(RobustBundlingError, match="need at least one factor"):
        product_sum([])


@pytest.mark.parametrize("module, name, build, law, at", [
    (sum_law, "exp", lambda d: iid_two_point_sum(d, 10), "sum-law",
     " at m=10, alpha=0.5"),
    (sum_law, "bincount", lambda d: product_sum([d] * 3), "product-law", ""),
    (opt_oracle, "ones", lambda d: opt_oracle.bid_lattice([d] * 2), "lattice",
     ""),
])
def test_a_drifted_law_is_refused_in_one_line_naming_it(
        half_spec, drift, module, name, build, law, at):
    # every exact law goes through one mass check, sum_law.check_unit_mass
    dist = make_two_point(half_spec, 0.5)
    build(dist)
    drift(module, name)
    with pytest.raises(RobustBundlingError) as err:
        build(dist)
    text = str(err.value)
    assert text.startswith(f"{law} mass drifted to ") and "\n" not in text
    # the total, then what the law was built at
    assert text.endswith(f"{float(text.split()[4])!r}{at}")


@pytest.mark.parametrize("alpha", [0.3, 0.999, 1.0 - 1e-12])
def test_large_m_log_space_path(half_spec, alpha):
    # the deviance-form weights keep total mass within 1e-10 out to m = 1e6
    dist = make_two_point(half_spec, alpha)
    law = iid_two_point_sum(dist, 1_000_000)
    assert np.all(np.isfinite(law.probs))
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(law.support, law.probs) == pytest.approx(1e6 * half_spec.mu,
                                                         rel=1e-9)
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


def _one_pass_law(dist, m):
    """(support, probs, log_probs) as one pass over every k builds them: the
    deviance form of _log_weights evaluated on the whole interior at once."""
    u = 1.0 - dist.alpha
    log_alpha = np.log(dist.alpha) if dist.alpha < 0.5 else np.log1p(-u)
    logp = np.empty(m + 1)
    logp[0] = m * log_alpha
    logp[m] = m * np.log(u)
    k = np.arange(1, m, dtype=np.float64)
    mk = m - k
    logp[1:m] = (
        0.5 * np.log(m / (2.0 * np.pi * k * mk))
        + float(sum_law._stirlerr(np.float64(m)))
        - sum_law._stirlerr(k) - sum_law._stirlerr(mk)
        - sum_law._bd0(k, m * u) - sum_law._bd0(mk, m * dist.alpha)
    )
    k = np.arange(m + 1)
    return (m - k) * dist.x + k * dist.y, np.exp(logp), logp


_BLOCK = sum_law._BLOCK


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, _BLOCK - 1, _BLOCK,
                               _BLOCK + 1, 2 * _BLOCK + 1, 10**5, 10**6])
def test_blocked_law_keeps_the_one_pass_bits(half_spec, m):
    # blocks of _BLOCK k change when _bd0's series stops, never a weight;
    # m = 15..17 straddle _stirlerr's switch at 16
    rng = np.random.default_rng(m)
    a_min = half_spec.alpha_min
    alphas = [a_min, 0.5, 1.0 - 1e-12, *rng.uniform(a_min, 1.0, 2),
              1.0 - 10.0 ** rng.uniform(-12.0, -3.0)]
    for alpha in alphas:
        dist = make_two_point(half_spec, float(alpha))
        law = iid_two_point_sum(dist, m)
        for got, want in zip((law.support, law.probs, law.log_probs),
                             _one_pass_law(dist, m)):
            assert np.array_equal(got, want), (m, alpha)


def test_law_at_m_1e6_peaks_under_40_mb(half_spec):
    # the law's three arrays are 24 MB and it peaks at 32 MB; one pass over
    # every k peaked at 89 MB
    import tracemalloc

    dist = make_two_point(half_spec, 0.6)
    tracemalloc.start()
    try:
        iid_two_point_sum(dist, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


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
    with pytest.raises(RobustBundlingError, match="got 2 members for m=3 slots"):
        sample_sum([d0, d0], m=3, seed=0, n=100)


def test_sampling_rejects_a_member_it_cannot_draw(half_spec):
    with pytest.raises(RobustBundlingError, match="cannot sample member"):
        sample_sum([half_spec], m=3, seed=0, n=100)


def test_sampling_matches_exact_law(half_spec):
    # empirical mean within 5 sigma of the exact one
    d0 = make_two_point(half_spec, 0.4)
    m, n = 32, 20_000
    draws = sample_sum([d0], m=m, seed=5, n=n)
    law = iid_two_point_sum(d0, m)
    exact_mean = np.dot(law.support, law.probs)
    var = float(((law.support - exact_mean) ** 2 * law.probs).sum())
    assert abs(draws.mean() - exact_mean) <= 5.0 * np.sqrt(var / n)


def test_sampling_heterogeneous_members(half_spec):
    members = [make_two_point(half_spec, a) for a in (0.3, 0.5, 0.7, 0.9)]
    draws = sample_sum(members, m=4, seed=9, n=2000)
    law = product_sum(members)
    lo, hi = float(law.support[0]), float(law.support[-1])
    assert draws.shape == (2000,)
    assert np.all(draws >= lo - 1e-12) and np.all(draws <= hi + 1e-12)
    assert abs(draws.mean() - np.dot(law.support, law.probs)) <= 0.1


# --- counts sampling: exact laws, the inverse-CDF helper, bits ----------------

def _lattice_law(members, step):
    """Exact law of the sum of independent members whose atoms are multiples
    of step: support and probabilities, by repeated convolution."""
    pmf = np.array([1.0])
    for dist in members:
        points, probs = ((dist.x, dist.y), (dist.alpha, 1.0 - dist.alpha)) \
            if hasattr(dist, "alpha") else (dist.points, dist.probs)
        idx = [round(v / step) for v in points]
        assert all(i * step == v for i, v in zip(idx, points))
        factor = np.zeros(max(idx) + 1)
        np.add.at(factor, idx, probs)
        pmf = np.convolve(pmf, factor)
    return np.arange(pmf.size) * step, pmf


def _check_against_law(sums, support, probs):
    """KS test plus tails near the mean, against an exact discrete law."""
    n = sums.size
    idx = np.clip(np.searchsorted(support, sums), 1, support.size - 1)
    idx -= np.abs(support[idx - 1] - sums) < np.abs(support[idx] - sums)
    assert np.allclose(support[idx], sums, rtol=1e-12, atol=0.0)
    counts = np.bincount(idx, minlength=support.size)
    cdf, ecdf = np.cumsum(probs), np.cumsum(counts) / n
    # sup over right limits and left limits; conservative for a discrete law
    dist = max(np.max(np.abs(ecdf - cdf)),
               np.max(np.abs(ecdf - counts / n - (cdf - probs))))
    assert kolmogorov(dist * math.sqrt(n)) >= 1e-6
    mean = float(support @ probs)
    sd = math.sqrt(float((support - mean) ** 2 @ probs))
    for z in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        t = mean + z * sd
        exact = float(probs[support >= t].sum())
        emp = float(np.mean(sums >= t))
        assert abs(emp - exact) <= 6.0 * math.sqrt(exact * (1.0 - exact) / n) + 1.0 / n


def test_two_point_counts_draw_the_exact_law(half_spec):
    dist = make_two_point(half_spec, 0.4)  # non-dyadic high point 17/12
    law = iid_two_point_sum(dist, 300)
    _check_against_law(sample_sum([dist], 300, seed=41, n=100_000),
                       law.support, law.probs)


def test_three_point_counts_draw_the_exact_law(half_spec):
    dist = make_three_point(half_spec, (0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
    support, probs = _lattice_law([dist] * 300, 1.0)
    _check_against_law(sample_sum([dist], 300, seed=42, n=100_000), support, probs)


def test_mixed_discrete_slots_draw_the_exact_law():
    spec = MeanMadSpec(1.0, 0.6)
    two = make_two_point(spec, 0.6)  # atoms 0.5 and 1.75
    three = make_three_point(spec, (0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
    slots = [two, three, three] * 100
    support, probs = _lattice_law(slots, 0.25)
    _check_against_law(sample_sum(slots, 300, seed=43, n=100_000), support, probs)


def _same(got, want):
    """Equal bits, shape and type: a numpy scalar where want is one."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


def test_binomial_kernel_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    size = 100_000
    n = rng.integers(0, 3000, size).astype(float)
    n[:50] = 0.0
    # k from below 0 to past n, integral and not
    k = np.round(rng.uniform(-0.2, 1.2, size) * n) + rng.choice([0.0, 0.3, -0.5], size)
    k[50:60] = -np.inf
    k[60:70] = np.inf
    p = rng.random(size)
    p[:200:2], p[1:200:2] = 0.0, 1.0
    _same(binom_sf(k, n, p), scipy_binom.sf(k, n, p))
    # scalars, 0-d arrays and broadcasting, as the solvers call them
    for args in ((3, 10, 0.4), (np.float64(-1.0), 10, 0.4), (10, 10, 0.4),
                 (np.array(4.5), 9, 0.5), (2.0, 0, 0.3), (np.arange(-2, 13), 10, 0.7),
                 (np.arange(-2, 13)[:, None], 10, p[:7]),
                 (np.arange(5, dtype=np.int64), 4, np.float64(1e-12))):
        _same(binom_sf(*args), scipy_binom.sf(*args))
    # the whole law, edges of p and n = 0 included, as the menu oracle takes it
    for ni, pi in zip(n[:300].astype(int), p[:300]):
        pmf, beyond = binom_window(0, ni, ni, pi)
        _same(pmf, scipy_binom.pmf(np.arange(ni + 1.0), ni, pi))
        assert beyond == 0.0
    # the sampler's quantile: uniforms on the 2^-53 lattice in [0, 1), its
    # edges included, each the smallest k with P(Bin(n, q) <= k) >= u,
    # clipped into [0, n]
    u = rng.random(size)
    u[200:300], u[300:400], u[400:500] = 0.0, 2.0 ** -53, 1.0 - 2.0 ** -53
    for q in (*rng.random(8), 0.5):
        q = float(q)
        want = np.clip(scipy_binom.ppf(u, n, q), 0.0, n)
        _same(_binom_inverse(u, n, q), want)


def test_binom_window_matches_the_kernel_bit_for_bit():
    # the windowed call drops scipy's edge masks; inside 0 <= lo <= hi <= n
    # they never fire, so the bits must not move
    def check(lo, hi, n, p):
        pmf, beyond = binom_window(lo, hi, n, p)
        assert np.array_equal(pmf, scipy_binom.pmf(np.arange(lo, hi + 1.0), n, p))
        assert np.array_equal(beyond, scipy_binom.sf(hi, n, p))

    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(10.0 ** rng.uniform(0.0, 7.0))
        lo, hi = sorted(rng.integers(0, n + 1, 2).tolist())
        hi = min(hi, lo + 2000)
        p = float(rng.choice([rng.random(), 10.0 ** rng.uniform(-12.0, 0.0)]))
        check(lo, hi, n, p)
    for p in (0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.3):
        for n in (0, 1, 7, 10_000_000):
            for lo, hi in ((0, 0), (0, min(n, 5000)), (n, n),
                           (max(n - 5000, 0), n)):
                check(lo, hi, n, p)


def test_survival_near_one_is_one_minus_the_lower_tail():
    # maximin's walk skips a breakpoint whose lower-tail bound is below
    # 2^-54 on the strength of this: where the lower tail is tiny, Boost's
    # survival is 1.0 minus its lower tail, bit for bit, so it rounds to 1.0
    rng = np.random.default_rng(30)
    size = 20_000
    m = np.round(10.0 ** rng.uniform(math.log10(20.0), 6.0, size)).astype(int)
    k = rng.integers(0, m)
    u = bdtri(k, m, 2.0 ** rng.uniform(-60.0, -50.0, size))
    cdf = _binom_cdf(k, m, u)
    near = (cdf > 2.0**-60) & (cdf < 2.0**-50)
    assert near.sum() > size // 2
    assert np.array_equal(_binom_sf(k[near], m[near], u[near]),
                          1.0 - cdf[near])


def _reaches_binomial_ufuncs(tree: ast.AST) -> bool:
    """Whether a module imports scipy's boost binomial ufuncs or gammaln, or
    reaches either through an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hit = (node.module == "scipy.special._ufuncs"
                   or any(a.name == "gammaln" for a in node.names))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("scipy.special._ufuncs") for a in node.names)
        else:
            hit = isinstance(node, ast.Attribute) and node.attr in ("_ufuncs", "gammaln")
        if hit:
            return True
    return False


def test_sum_law_is_the_only_binomial_kernel():
    # a second binomial pmf (a log-gamma table, a raw ufunc call) drifts from
    # the one that binom_window, binom_sf and _binom_inverse pin to scipy
    src = sorted((Path(__file__).resolve().parents[1] / "src" / "rbl").glob("*.py"))
    users = [p.name for p in src if _reaches_binomial_ufuncs(ast.parse(p.read_text()))]
    assert users == ["sum_law.py"]


def test_binom_inverse_is_the_exact_smallest_quantile():
    # oracle: exact rational CDF at the float value of q
    rng = np.random.default_rng(7)
    for n, q in ((1, 0.3), (7, 0.5), (20, 0.11), (40, 0.93)):
        qf = Fraction(q)
        cdf = np.cumsum([Fraction(math.comb(n, k)) * qf ** k * (1 - qf) ** (n - k)
                         for k in range(n + 1)])
        u = rng.random(400)
        ks = _binom_inverse(u, np.full(u.size, float(n)), q)
        for ui, k in zip(u, ks.astype(int)):
            uf = Fraction(float(ui))
            assert cdf[k] >= uf and (k == 0 or cdf[k - 1] < uf)


def test_binom_inverse_edges():
    n = np.array([0.0, 1.0, 5.0, 10_000.0])
    zero = np.zeros(n.size)
    top = np.full(n.size, 1.0 - 2.0 ** -53)
    for q in (1e-9, 0.3, 0.5, 1.0 - 1e-9):
        assert np.array_equal(_binom_inverse(zero, n, q), zero)
        k = _binom_inverse(top, n, q)
        assert np.all((k >= 0) & (k <= n))
    # a conditional mass rounded past either end is clipped
    u = np.array([0.0, 0.5, 1.0 - 2.0 ** -53, 1.0])
    n4 = np.full(u.size, 9.0)
    assert np.array_equal(_binom_inverse(u, n4, 1.0 + 2.0 ** -52), n4)
    assert np.array_equal(_binom_inverse(u, n4, -2.0 ** -60), np.zeros(u.size))


@pytest.mark.parametrize("probs", [(0.0, 0.4, 0.6), (0.4, 0.0, 0.6), (0.4, 0.6, 0.0),
                                   (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.7, 0.3)])
def test_zero_mass_atoms_are_never_drawn(probs):
    rng = np.random.default_rng(3)
    u = np.vstack([np.zeros(len(probs) - 1), np.full(len(probs) - 1, 1.0 - 2.0 ** -53),
                   rng.random((500, len(probs) - 1))])
    u[2, 0], u[3, -1] = 0.0, 1.0 - 2.0 ** -53
    counts = _atom_counts(u, 37, _conditional_masses(probs))
    assert np.all(counts.sum(axis=1) == 37)
    for j, p in enumerate(probs):
        if p == 0.0:
            assert np.all(counts[:, j] == 0)


def test_zero_mass_atom_never_reaches_a_sum(half_spec):
    dist = make_three_point(half_spec, (0.0, 1.0, 1000.0), (0.5, 0.5, 0.0))
    assert sample_sum([dist], 50, seed=5, n=5000).max() <= 50.0


def _per_slot_sample_sum(members, m, seed, n):
    """Reference sampler for Pareto slots: block b of 1024 samples reads words
    [b*1024*m, (b+1)*1024*m) of the PCG64DXSM stream, word j*1024 + r holding
    slot j of sample 1024*b + r; each slot is mapped by its member's inverse
    CDF, the slots of each 256-column chunk are added one by one, and each
    chunk sum is added to the running total."""
    slots = members * m if len(members) == 1 else members
    out = np.empty(n)
    for start in range(0, n, 1024):
        rows = min(1024, n - start)
        bg = PCG64DXSM(seed)
        bg.advance(start * m)
        u = Generator(bg).random((m, 1024))[:, :rows]
        total = np.zeros(rows)
        for lo in range(0, m, 256):
            chunk = slots[lo].inverse_cdf(u[lo])
            for j in range(lo + 1, min(lo + 256, m)):
                chunk = chunk + slots[j].inverse_cdf(u[j])
            total += chunk
        out[start:start + rows] = total
    return out


@pytest.mark.parametrize("m", [1, 3, 64, 1001])
def test_pareto_only_sums_keep_their_bits(half_spec, m):
    heavy = MeanMadSpec(1.0, pareto_induced_mad(1.0, 1.5))
    a2, a15 = make_pareto_member(half_spec, 2.0), make_pareto_member(heavy, 1.5)
    for members in ([a2], [a15], [a2 if i % 3 else a15 for i in range(m)]):
        assert np.array_equal(sample_sum(members, m, seed=19, n=2500),
                              _per_slot_sample_sum(members, m, 19, 2500))


@pytest.mark.parametrize("a", [2.0, 1.5])
def test_single_pareto_slots_draw_the_exact_law(half_spec, a):
    spec = half_spec if a == 2.0 else MeanMadSpec(1.0, pareto_induced_mad(1.0, a))
    dist = make_pareto_member(spec, a)
    sums = sample_sum([dist], 1, seed=31, n=100_000)
    assert sums.min() >= dist.scale

    def cdf(x):
        return 1.0 - (dist.scale / x) ** dist.a

    assert scipy_stats.kstest(sums, cdf).pvalue >= 1e-6


@pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
def test_sampling_rejects_a_seed_that_is_not_a_non_negative_integer(half_spec,
                                                                    seed):
    d0 = make_pareto_member(half_spec, 2.0)
    with pytest.raises(RobustBundlingError, match="need seed >= 0, an integer"):
        sample_sum([d0], 4, seed=seed, n=10)


def test_sampling_takes_any_non_negative_integer_seed(half_spec):
    d0 = make_pareto_member(half_spec, 2.0)
    assert np.all(sample_sum([d0], 4, seed=2**128 + 5, n=50) >= 4 * d0.scale)
    assert np.array_equal(sample_sum([d0], 4, seed=np.int64(5), n=50),
                          sample_sum([d0], 4, seed=5, n=50))


def _mixed_slots(spec, m):
    two = make_two_point(spec, 0.4)
    three = make_three_point(spec, (0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
    par = make_pareto_member(spec, 2.0)
    return [(two, three, par)[i % 3] for i in range(m)]


def test_mixed_sums_do_not_depend_on_workers_or_n(half_spec):
    slots = _mixed_slots(half_spec, 301)
    full = sample_sum(slots, 301, seed=8, n=10_000, workers=1)
    assert np.array_equal(full, sample_sum(slots, 301, seed=8, n=10_000, workers=3))
    assert np.array_equal(full[:3000], sample_sum(slots, 301, seed=8, n=3000))


def test_mixed_sums_frozen(half_spec):
    # pins the stream layout: any change of word order moves these values.
    # Checked against a hand decode of the raw words: word j*1024 + r is
    # column j of sample r, the columns being the two-point count, the two
    # three-point counts, then the seven Pareto slots.
    slots = _mixed_slots(half_spec, 22)
    assert sample_sum(slots, 22, seed=2026, n=6) == pytest.approx(
        [21.335306978944786, 20.64796842274084, 21.33590372566446,
         26.733970795074324, 28.327265104974263, 17.241057031063946], rel=1e-12)


def test_thread_pool_is_capped_at_the_block_count(monkeypatch, half_spec):
    opened = []

    class RecordingPool:
        """Runs each block at submit time; starts no thread."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            f = Future()
            f.set_result(fn(*args))
            return f

    monkeypatch.setattr(sum_law, "ThreadPoolExecutor", RecordingPool)
    # 603 words per sample: blocks hold 1024 samples whatever the width
    slots = _mixed_slots(half_spec, 1800)
    n = 3 * 1024 + 1  # four blocks
    capped = sample_sum(slots, 1800, seed=4, n=n, workers=100_000)
    assert opened == [4]
    assert np.array_equal(capped, sample_sum(slots, 1800, seed=4, n=n, workers=2))
    assert opened == [4, 2]
    assert np.array_equal(capped, sample_sum(slots, 1800, seed=4, n=n, workers=1))
    assert opened == [4, 2]


# --- count_at_least: the early stop never changes a count ---------------------

def _count_sets(spec):
    # every set but the three-point one has a least sum > 0 (its floor)
    heavy = MeanMadSpec(1.0, pareto_induced_mad(1.0, 1.5))
    two = make_two_point(spec, 0.4)
    three = make_three_point(spec, (0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
    return {
        "discrete": ([two, three] * 150, 300),
        "three_point": ([three], 300),
        "two_point": ([make_two_point(spec, 0.5)], 600),
        # every slot is low with probability 0.9^5: many sums are m x
        "two_point_mostly_low": ([make_two_point(spec, 0.9)], 5),
        "pareto_a2": ([make_pareto_member(spec, 2.0)], 600),
        "pareto_a1.5": ([make_pareto_member(heavy, 1.5)], 600),
        "mixed": (_mixed_slots(spec, 900), 900),
    }


@pytest.mark.parametrize("name", ["discrete", "three_point", "two_point",
                                  "two_point_mostly_low", "pareto_a2",
                                  "pareto_a1.5", "mixed"])
def test_count_at_least_equals_the_full_count(half_spec, name):
    members, m = _count_sets(half_spec)[name]
    sums = sample_sum(members, m, seed=13, n=3000)
    floor = sum_law._plan(members, m).floors[0]
    assert sums.min() >= floor * (1.0 - 2.0**-40)
    lo, mid, hi = np.quantile(sums, [0.001, 0.5, 0.999])
    # 0.4 lo and the sale threshold stop blocks part way through or before
    # any draw, the quantiles at the last chunk or never, t <= 0 before any
    # draw; the floor's rounding edges decide between the floor rule's
    # margin and drawing every sum
    sale = guaranteed_sale_price(members[0].spec, m, 0.2)
    edges = [np.nextafter(floor, np.inf), np.nextafter(floor, -np.inf)]
    edges += [floor * (1.0 + s * k * 2.0**-52) for k in (0, 1, 2, 8, 64, 4096)
              for s in (1, -1)]
    for t in [0.4 * lo, sale, lo, mid, hi, 0.0, -1.0] + edges:
        for n in (1, 1023, 1025, 3000):
            want = int(np.count_nonzero(sums[:n] >= t))
            for workers in (1, 3):
                assert count_at_least(members, m, 13, n, t, workers) == want


def test_count_at_least_never_stops_on_a_negative_atom(half_spec):
    # the two-point group alone clears t; the negative atoms then pull every
    # sum back under it, so a stop after the first group would count them all
    neg = ThreePointDist(half_spec, (-2.0, -1.5, -1.0), (0.25, 0.5, 0.25))
    slots = [make_two_point(half_spec, 0.4), neg] * 20
    sums = sample_sum(slots, 40, seed=3, n=2000)
    t = 5.0
    assert np.all(sums < t) and sum_law._plan(slots, 40).floors is None
    for workers in (1, 3):
        assert count_at_least(slots, 40, 3, 2000, t, workers) == 0
    t = float(np.median(sums))
    assert count_at_least(slots, 40, 3, 2000, t) == np.count_nonzero(sums >= t)


def test_count_at_least_at_a_sum_that_is_its_floor(half_spec):
    # all mass on one non-dyadic atom: every sum is the float c * 0.1 itself
    point = ThreePointDist(half_spec, (0.1, 0.7, 1.3), (1.0, 0.0, 0.0))
    floor = sum_law._plan([point], 37).floors[0]
    assert np.all(sample_sum([point], 37, seed=2, n=3000) == floor)
    for workers in (1, 3):
        assert count_at_least([point], 37, 2, 3000, floor, workers) == 3000
        assert count_at_least([point], 37, 2, 3000, np.nextafter(floor, np.inf),
                              workers) == 0


def test_count_at_least_floor_stop_keeps_a_margin(half_spec):
    # three one-atom groups 1, 2^-53, 2^-53: the floor adds right to left,
    # 1 + 2^-52, while the sums add left to right and round back to 1, so a
    # floor taken without a margin would count every sum at t = 1 + 2^-52
    groups = [ThreePointDist(half_spec, (v, 2.0, 3.0), (1.0, 0.0, 0.0))
              for v in (1.0, 2.0**-53, 2.0**-53)]
    plan = sum_law._plan(groups, 3)
    t = 1.0 + 2.0**-52
    assert plan.floors[0] == t
    assert np.all(sample_sum(groups, 3, seed=6, n=2000) == 1.0)
    for workers in (1, 3):
        assert count_at_least(groups, 3, 6, 2000, t, workers) == 0
        assert count_at_least(groups, 3, 6, 2000, 1.0, workers) == 2000


@pytest.mark.parametrize("a", [1.01, 1.5, 2.0, 100.0])
def test_pareto_leaf_is_at_least_its_scale(a):
    # the floor stop takes (1 - u)^(-1/a) >= 1 for every uniform u; a base
    # next to 1 is where a pow off by an ulp could fall below it
    base = 1.0 - np.arange(1_000_000) * 2.0**-53
    assert np.all(np.power(base, -1.0 / a) >= 1.0)
    col = np.full((2, 1), -1.0 / a)
    assert np.all(np.power(np.vstack([base, base[::-1]]), col) >= 1.0)


@pytest.fixture
def drawn(monkeypatch):
    """Words taken by each draw of the sampler's Generator, in order."""
    words = []

    class CountingGenerator:
        def __init__(self, bg):
            self._gen = Generator(bg)

        def random(self, out):
            words.append(out.size)
            return self._gen.random(out=out)

    monkeypatch.setattr(sum_law, "Generator", CountingGenerator)
    return words


def test_count_at_least_stops_drawing_a_cleared_block(drawn, half_spec):
    # above the floor m * scale = 0.5 m, so only the running totals stop it
    m, n = 2000, 2048
    t = 0.7 * m
    members = [make_pareto_member(half_spec, 2.0)]
    assert sum_law._plan(members, m).floors[0] < t
    assert count_at_least(members, m, 5, n, t) == n
    assert 0 < sum(drawn) <= 0.7 * n * m
    drawn.clear()
    sample_sum(members, m, 5, n)
    assert sum(drawn) == n * m


def test_criterion_4_sets_draw_only_below_their_floors(drawn):
    # the sale threshold at eps = 0.2 is 0.44 m (0.33208 m for a = 1.5), and
    # the two-point low 0.5 and the Pareto scales 0.5 and 1/3 clear it before
    # any draw; three_point's least atom is 0, so it draws its two columns
    spec = MeanMadSpec(1.0, 0.5)
    heavy = MeanMadSpec(1.0, pareto_induced_mad(1.0, 1.5))
    m, n = 10_000, 100_000
    for members in ([make_two_point(spec, 0.5)], [make_pareto_member(spec, 2.0)],
                    [make_pareto_member(heavy, 1.5)]):
        t = guaranteed_sale_price(members[0].spec, m, 0.2)
        assert count_at_least(members, m, 20260816, n, t) == n
        assert drawn == []
    three = [make_three_point(spec, (0.0, 1.0, 2.0), (0.25, 0.5, 0.25))]
    count_at_least(three, m, 20260817, n, guaranteed_sale_price(spec, m, 0.2))
    assert sum(drawn) == 2 * 1024 * 98 == 200_704
