"""Saddle-point engines for bundle pricing against two-point product adversaries.

Price first (maximin): the seller's price grid on [0, m mu] is searched and
polished by optimize.grid_polish on the negated guarantee. Nature answers
each price exactly over every u = 1 - alpha in (0, 1 - alpha_min)
(_inner_infimum; worst_case_alpha runs the same evaluation): the tail P(sum
>= p) jumps only at closed-form breakpoints u_k and rises with u between
them, so the guarantee is an infimum, and the reported alpha a limit point.
Nature first (minimax): a grid geometric in 1 - alpha down to U_FLOOR, as the
damaging adversaries sit next to alpha = 1, searched and polished by
grid_polish on the seller's best response (_best_response). Each order
passes grid_polish one objective and one cheap lower bound on it over an
interval of grid points: for prices lo..hi, hi/m times the tail cap at lo
(_guarantee_caps), and for nature on u_hi >= u >= u_lo, a few feasible
prices priced at the two ends (_cell_floors). Rows are solved exactly from
the most promising bound on, until every bound left clears the best value by
optimize.PRUNE_MARGIN, so the grid optimum is that of the full grid: about
one row per grid. A price's in-range breakpoints are one run of k from k =
0, which nature's answer walks in from both ends with O(1) state, pruned by
a Chernoff bound on each lower tail (_lower_tail_bound): maximin solves m =
1e7 to 1e10 in a few ms on a 2-vCPU host. Tails are binomial survivals
(sum_law.binom_sf). Every report carries a certificate pair: a closed-form
lower bound that holds for every product of family members
(maximin_certificate_lower), and an upper bound that the computed value can
be checked against. Both solvers first check m, the grid size, and that the
spec's scale keeps their arithmetic in double range and nature's grid in
reach (_check_scale).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ambiguity import MeanMadSpec
from .errors import RobustBundlingError, check_count
from .optimize import grid_polish
from .sum_law import (_binom_cdf, _binom_pmf, _binom_sf, binom_sf,
                      binom_window)

ALPHA_GRID = 2048
PRICE_GRID = 1024
# Smallest 1 - alpha on nature's grid in the nature-first order.
U_FLOOR = 1e-12
BRACKET_TOL = 1e-10
# Half-width of the best-response scan over k, in binomial sigmas.
_WINDOW_SIGMAS = 40.0


@dataclass(frozen=True)
class SaddleReport:
    """One solved game: per-item value, the argmax price, the adversary's
    alpha (for maximin, the limit point of its infimum), and a
    (lower, upper) certificate the value must sit between."""

    m: int
    value: float
    price: float
    alpha: float
    certificate: tuple[float, float]


def _window(m: int, p: float) -> tuple[int, int]:
    """lo..hi: the k within _WINDOW_SIGMAS sigmas of the mean m p of a
    Binomial(m, p), reaching at least _WINDOW_SIGMAS whole k below it where
    sigma < 1, clipped to 0..m. Below one sigma the bare window can miss the
    best price: at (1, 2e-15), m = 1000, u = 1 - 5e-7 it starts at k = 999
    and k = 997 wins."""
    sig = math.sqrt(m * p * (1.0 - p))
    return (max(math.floor(m * p - _WINDOW_SIGMAS * max(sig, 1.0)), 0),
            min(math.ceil(m * p + _WINDOW_SIGMAS * sig), m))


def _u_grid(spec: MeanMadSpec, n: int) -> np.ndarray:
    return np.geomspace(1.0 - spec.alpha_min, U_FLOOR, n)


def _two_point(spec: MeanMadSpec, u):
    """(x, y - x) for the two-point member at u = 1 - alpha: its low value x
    and the gap up to its high value y."""
    x = spec.mu - spec.d / (2.0 * (1.0 - u))
    return x, spec.mu + spec.d / (2.0 * u) - x


def _quadratic(spec: MeanMadSpec, m: int, p):
    """(c, b) of the breakpoint quadratic c u^2 - b u + k = 0 at price p: c =
    2 (p - m mu) / d and b = c + m, formed as 2 (p - m (mu - d/2)) / d where
    d >= mu: mu - d/2 is then exact (Sterbenz), while c + m cancels next to
    d = 2 mu (at (1, 2 - 1e-9), m = 19 the value read 5.6e-7 high)."""
    c = 2.0 * (p - m * spec.mu) / spec.d
    if spec.d >= spec.mu:
        return c, 2.0 * (p - m * (spec.mu - spec.d / 2.0)) / spec.d
    return c, c + m


def _unreached(spec: MeanMadSpec, m: int, b):
    """Whether no member's all-low sum reaches the price of b (_quadratic),
    p >= m (mu - d/2), as b >= 0: exact from d = mu up. Below, fl(m mu) and
    the division round b = c + m by up to 2^-53 m (3 mu/d + 1), so b >=
    -2^-50 m (mu/d + 1) counts too, understating within that rounding: at
    (2.887, 9.22e-8), m = 2155, b < 0 read 8.5e-6 above m (mu - d/2)."""
    return b >= (0.0 if spec.d >= spec.mu
                 else -2.0 ** -50 * m * (spec.mu / spec.d + 1.0))


def _breakpoints(c: np.ndarray, b: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Root u in (0, 1] of c u^2 - b u + k = 0 (_quadratic): where the
    support point with k highs crosses the price. The form is chosen so
    neither branch cancels or divides by zero (b <= 0 forces c < 0)."""
    sq = np.sqrt(b * b - 4.0 * c * k)
    pos = b > 0.0
    return np.where(pos, 2.0 * k / np.where(pos, b + sq, 1.0),
                    (b - sq) / np.where(pos, 1.0, 2.0 * c))


def _breakpoint(c: float, b: float, k: float) -> float:
    """_breakpoints for one k in Python floats: the same float steps and so
    the same bits. Every price _inner_infimum takes is in [0, m mu], so c <=
    0 <= k and b^2 - 4ck >= b^2 >= 0, in floats too (4ck <= 0)."""
    sq = math.sqrt(b * b - 4.0 * c * k)
    return 2.0 * k / (b + sq) if b > 0.0 else (b - sq) / (2.0 * c)


def _highs_at(c, m: int, u) -> np.ndarray:
    """ceil(h(u)), h(u) = m u + c u (1 - u): as breakpoints rise with k and h
    increases at its roots, the fewest highs k with u_k >= u, up to one off
    in floats (so callers take a spare index and test the range exactly)."""
    return np.ceil(m * u + c * u * (1.0 - u))


def _lower_tail_slack(m: int) -> float:
    """delta: the relative margin by which a bound E = _lower_tail_bound at
    u_k lowered by 2^-48, scaled by 1 + delta, bounds the lower tail
    P(Bin(m, u_k) <= k) that Boost computes, and a run's larger end bound
    every bound inside it.

    With eps = 2^-53, the float u_k is within a few eps of its root, so the
    2^-48 = 32 eps shift keeps u - q in floats below the gap at u_k itself,
    and the formulas lose only their roundings: the first piece a few eps
    relative, the second a few eps u in its numerator, whose subtraction
    cancels to (1 - u) g(x) but, unlike rel_entr's, holds no term of size
    37: so a few m eps in m B, plus under 200 eps where E >= 2^-54 (m B <=
    38) meets a stop. Boost's relative error on the lower tail is about
    4e-17 m where measured (under 0.4 m eps). 2^-44 (m + 1) = 512 eps (m +
    1) covers it and the bound's error twice, at a k and at the end it is
    compared with, with room to spare."""
    return 2.0 ** -44 * (m + 1)


# A lower tail L below this leaves a survival 1 - L that rounds to 1.0.
_ROUNDS_TO_ONE = 2.0 ** -54
# A lower tail below 1 - best less this leaves a survival above best.
_ABOVE_BEST = 2.0 ** -52


def _lower_tail_bound(m: int, k: float, u: float) -> float:
    """exp(-m B) >= P(Bin(m, u) <= k), with q = k/m < u; 1.0 where q >= u.

    Chernoff: the lower tail is at most exp(-m KL(q || u)), and KL(q || u)
    = int_q^u (t - q) / (t (1 - t)) dt >= B:
    - for u <= 1/2, B = (u - q)^2 / (2 u (1 - u)), as t (1 - t) <= u (1 - u)
      on [q, u];
    - for u > 1/2, B = ((1 - q) log1p((u - q)/(1 - u)) - (u - q)) / u, as
      1/t >= 1/u.
    Along the breakpoints of a price, u - q = delta u (1 - u) with delta =
    -c/m >= 0 and 1 - q = (1 - u)(1 + delta u): the first piece is delta^2
    u (1 - u) / 2, which rises on [0, 1/2], and the second (1 - u)
    g(delta u) / u, g(x) = (1 + x) ln(1 + x) - x, which falls on (1/2, 1),
    as x g'(x) <= 2 g(x) (ln(1 + x) >= 2x/(2 + x)). At u = 1/2 the second
    is g(x) <= x^2 / 2, the first. So B rises, then falls, with u and so
    with k: no bound inside a run of breakpoints is above both its ends.
    The walk's shift to u (1 - s), s = 2^-48, keeps that shape exactly:
    with w = delta (1 - u) - s, u - q becomes u w and 1 - u becomes 1 - u +
    u s; the first piece then rises while delta ((1 - u)(1 - 2u) - 2 u^2 s)
    > s, whose left side falls with u, and the second's log-slope is at
    most ((1 - u)(1 - 2u) - 2 u^2 s) / (u (1 - u)(1 - u + u s)) < 0; where
    w <= 0 the bound is 1.0. A float u_k a few eps from its root moves m B
    by that times its log-slope in u: within the slack, or near u = 1 by 4
    m (1 + delta) eps of the step from one bound to the next."""
    q = k / m
    if not q < u:
        return 1.0
    if u <= 0.5:
        b = (u - q) ** 2 / (2.0 * u * (1.0 - u))
    else:
        b = ((1.0 - q) * math.log1p((u - q) / (1.0 - u)) - (u - q)) / u
    return math.exp(-m * b)


def _inner_infimum(spec: MeanMadSpec, m: int, p: float) -> tuple[float, float]:
    """(u, tail) with tail the infimum of P(sum >= p) over u = 1 - alpha in
    (0, 1 - alpha_min), reached at u or approached as u falls to it.

    Where no all-low sum reaches p (_unreached), the tail falls to 0 with u:
    (0.0, 0.0), with no survival call. Otherwise the tail is 1 up to u_0 =
    b/c > 0, where the all-low sum is p, and on (u_k, u_{k+1}], past the
    breakpoint where the k-high support point is p, it is P(Bin(m, u) >=
    k+1), which rises with u. So the infimum is the least of 1.0 at u_0 and
    the limits P(Bin(m, u_k) >= k+1) in range, ties going to the smallest
    u. The in-range k are one run from k = 0, its top found down from one k
    above _highs_at's at 1 - alpha_min, tested exactly (u_m = 1 never is). A
    walk in Python floats prices the run's end with the larger bound E_k =
    _lower_tail_bound at u_k lowered by 2^-48, with one survival call, and
    moves that end inward; as no bound inside a run is above both its ends,
    it stops once both ends' E_k (1 + delta), delta = _lower_tail_slack(m),
    bound every k left to a tail that loses to the best:
    - below (1 - best) - 2^-52: the lower tail Boost computes is below
      1 - best - 2^-52, and the survival it returns, 1 minus that tail
      within Boost's error, rounds strictly above the best;
    - below 2^-54: near 1 Boost's survival is 1.0 - its lower tail, bit for
      bit, so the tail rounds to 1.0, and loses: u_0's 1.0 wins ties.
    """
    p = float(p)
    c, b = _quadratic(spec, m, p)
    if _unreached(spec, m, b):
        return 0.0, 0.0
    u_top = 1.0 - spec.alpha_min
    slack = 1.0 + _lower_tail_slack(m)
    lo, hi = 0.0, min(float(_highs_at(c, m, u_top)), float(m))
    while lo <= hi and not _breakpoint(c, b, hi) < u_top:
        hi -= 1.0

    def end(k):
        u = _breakpoint(c, b, k)
        return u, _lower_tail_bound(m, k, u * (1.0 - 2.0 ** -48))

    best_u, best, best_k = _breakpoint(c, b, 0.0), 1.0, -1.0
    stop = _ROUNDS_TO_ONE
    e_lo = e_hi = None
    while lo <= hi:
        if e_lo is None:
            u_lo, e_lo = end(lo)
        if e_hi is None:
            u_hi, e_hi = end(hi)
        if max(e_lo, e_hi) * slack < stop:
            break
        if e_lo >= e_hi:
            k, u, e_lo = lo, u_lo, None
            lo += 1.0
        else:
            k, u, e_hi = hi, u_hi, None
            hi -= 1.0
        tail = min(max(float(_binom_sf(k, m, u)), 0.0), 1.0)
        if tail < best or (tail == best and k < best_k):
            best_u, best, best_k = u, tail, k
            stop = max(_ROUNDS_TO_ONE, (1.0 - best) - _ABOVE_BEST)
    return best_u, best


def _guarantee_caps(spec: MeanMadSpec, m: int, ps: np.ndarray) -> np.ndarray:
    """Per price in ps, a cap on its tail infimum (_inner_infimum), so
    p * cap / m caps its guarantee: 0.0 where no all-low sum reaches p, and
    otherwise the least of 1.0 and the in-range limits P(Bin(m, u_k) >=
    k+1) at k = 0, 1, 2 and within one k of ceil(h(1 - alpha_min)) - 1
    (_highs_at), with _inner_infimum's bits, so no cap is below the infimum
    computed at its own price. Up to m mu nature's answer sat at an end in
    every probe: the caps are exact (tests/test_solvers.py).

    The exact infimum does not rise with p, as every fixed-u tail P(sum >=
    p) falls, so the cap at a cell's first price ps[s] times its last,
    ps[e] * cap / m, caps the guarantee at every price of ps[s..e]. In
    floats that holds up to a rounding budget: the infimum computed at p
    and the cap at ps[s] are each exact up to the relative error of one
    survival call (Boost's, about 4e-17 m), and that of its breakpoint, a
    few eps, times the tail's log-slope in u; ps[e] >= p, and the products
    round in order. A search skips a cell only if its cap is PRUNE_MARGIN,
    1e-9, relative below the best guarantee found, so it keeps the full
    grid's optimum where that margin covers the budget: up to m of about
    2.5e7. Past that, where maximin now also solves cheaply, the margin
    alone proves nothing; over seeded specs with d/mu from 1e-6 to 1.98 and
    m from 1 to 1e7, no cell cap was below a row's computed guarantee at
    all (tests/test_solvers.py)."""
    c, b = _quadratic(spec, m, ps[:, None])
    top = _highs_at(c, m, 1.0 - spec.alpha_min) - 2.0
    k = np.clip(np.hstack([np.zeros_like(top), top])[..., None]
                + np.arange(3.0), 0.0, m).reshape(ps.size, 6)
    u = _breakpoints(c, b, k)
    inside = (u > 0.0) & (u < 1.0 - spec.alpha_min)
    tails = np.ones(u.shape)
    tails[inside] = _binom_sf(k[inside], m, u[inside]).clip(0.0, 1.0)
    return np.where(_unreached(spec, m, b[:, 0]), 0.0, tails.min(axis=1))


def worst_case_alpha(spec: MeanMadSpec, m: int, p: float) -> tuple[float, float]:
    """Adversary's answer to a fixed bundle price p, solved exactly.

    Returns (alpha, value) with value = p * P(sum >= p) / m at its infimum
    over the family (_inner_infimum), where the returned alpha may be a limit
    point, not an attained minimizer: (1.0, 0.0), with no survival call,
    where no all-low sum reaches p, as at p >= m (mu - d/2). This is
    maximin's own evaluation, on the prices maximin posts: the scale and m
    must be in range (_check_scale) and p in [0, m mu].
    """
    _check_scale(spec, m)
    if not 0.0 <= p <= m * spec.mu:
        raise RobustBundlingError(
            f"price must be in [0, m*mu] = [0, {m * spec.mu!r}], got {p!r}")
    if p == 0.0:
        return spec.alpha_min, 0.0
    u, tail = _inner_infimum(spec, m, p)
    return 1.0 - u, float(p * tail / m)


def maximin_certificate_lower(spec: MeanMadSpec, m: int) -> float:
    """Per-item revenue some bundle price earns on every product of m family
    members, i.i.d. or not: L(m) = (mu/m) max_k (sqrt(k) - sqrt(E(k - K)+))^2
    with K ~ Binomial(m, p), p = 1 - q, q = d/(2 mu).

    Every member X dominates B = mu Bernoulli(p) in the increasing-concave
    order, and sums of independent variables keep that order (Shaked &
    Shanthikumar, Stochastic Orders, 4.A), so for a sum S and mu k > price,
    P(S < price) <= mu E(k - K)+ / (mu k - price). The price mu (k - sqrt(k
    E(k - K)+)) maximizes price (1 - that bound) / m to the k-th term of L
    (term 0 is 0). At m = 1, L is the single-item robust revenue.

    Each term is closed-form, by de Moivre's identity (Diaconis & Zabell
    1991, Statistical Science 6(3)): E(k - K)+ = (k - m p) P(K <= k) +
    (m - k) p P(K = k), and the term is D^2 / (sqrt(k) + sqrt(E(k - K)+))^2
    with D = k - E(k - K)+ = k P(K > k) + m p P(Bin(m - 1, p) <= k - 1), two
    non-negative parts. _certificate_best searches k = 1..m in O(log m)
    terms. Each term is a family bound by itself, so a search that missed
    the largest term could only report L low, never high.
    """
    return _certificate_best(spec, m)[0]


def _certificate_terms(spec: MeanMadSpec, m: int, k: np.ndarray) -> np.ndarray:
    """L(m)'s terms at k in 1..m, priced through m - K ~ Bin(m, q), which is
    at least j = m - k iff K <= k: q enters unrounded, p = (mu - d/2)/mu
    lacks q's rounding next to q = 1, and (k - m) + m q keeps E(m - K)+ =
    m q exact at tiny q. At k = m, Boost's tails at j - 1 = -1 are NaN and
    are replaced."""
    q, p, j = spec.alpha_min, (spec.mu - spec.d / 2.0) / spec.mu, m - k
    top = j == 0.0
    below = np.where(top, 1.0, _binom_sf(j - 1.0, m, q))
    above = np.where(top, 0.0, _binom_cdf(j - 1.0, m, q))
    kept = np.where(top, 1.0, _binom_sf(j - 1.0, m - 1, q))
    taken = k * above + m * p * kept
    short = (k - m + m * q) * below + j * p * _binom_pmf(j, m, q)
    return taken * taken / (np.sqrt(k) + np.sqrt(np.maximum(short, 0.0))) ** 2


def _certificate_best(spec: MeanMadSpec, m: int) -> tuple[float, float]:
    """(L(m), L's own price mu (k - sqrt(k E(k - K)+)) = mu sqrt(k t)) at the
    k of the largest term t. Each step prices 17 evenly spaced k of lo..hi
    and keeps the k between the best one's two neighbours; once 17 or fewer
    are left, it prices them all and takes the first largest."""
    check_count(m)
    lo, hi = 1, m
    while hi - lo > 16:
        k = np.rint(lo + (hi - lo) / 16.0 * np.arange(17.0))
        i = int(np.argmax(_certificate_terms(spec, m, k)))
        lo, hi = int(k[max(i - 1, 0)]), int(k[min(i + 1, 16)])
    k = np.arange(lo, hi + 1.0)
    terms = _certificate_terms(spec, m, k)
    i = int(np.argmax(terms))
    return (spec.mu * float(terms[i]) / m,
            spec.mu * math.sqrt(k[i] * float(terms[i])))


def _check_scale(spec: MeanMadSpec, m: int) -> None:
    """Raise unless both solvers' arithmetic stays in double range at this
    spec and m: the largest sum support point, m high values at 1 - alpha =
    U_FLOOR, must be finite, and the finest step, BRACKET_TOL * U_FLOOR * mu,
    a normal double (below that, prices and revenues lose their digits). One
    high at U_FLOOR, m x + gap in floats, must reach m mu, up to about m =
    1e12: past that nature's grid, which ends there, misses the members that
    damage a bundle (minimax read 0.75658 > mu - d/2 at (1, 0.5), m = 2e12).
    Both orders of play accept this one m range."""
    check_count(m)
    top = m * (spec.mu + spec.d / (2.0 * U_FLOOR))
    if not (math.isfinite(top)
            and BRACKET_TOL * U_FLOOR * spec.mu >= sys.float_info.min):
        raise RobustBundlingError(
            f"mu={spec.mu!r} and d={spec.d!r} leave double range at m={m}: "
            f"need m*(mu + d/(2*{U_FLOOR!r})) finite and "
            f"{BRACKET_TOL!r}*{U_FLOOR!r}*mu a normal double")
    x, gap = _two_point(spec, U_FLOOR)
    if m * x + gap < m * spec.mu:
        raise RobustBundlingError(
            f"m={m} is too large for mu={spec.mu!r} and d={spec.d!r}: "
            f"one high at 1 - alpha = {U_FLOOR!r} no longer reaches m*mu")


def maximin_bundling_value(spec: MeanMadSpec, m: int,
                           price_grid: int = PRICE_GRID) -> SaddleReport:
    """Price maximizing the adversarially worst bundle revenue per item.

    Outer maximization over p in [0, m*mu]: one grid_polish call minimizes the
    negated guarantee -p * tail / m (exact, so values keep their bits), its
    inner infimum solved exactly by breakpoints (_inner_infimum) from the
    highest cap down, one price per grid. Prices lo..hi are capped by hi times
    the tail cap at lo (_guarantee_caps), a price alone by itself times its
    own: 80 to 112 caps, 16 to 48 of them rows, and one survival call per
    price evaluated, at (1, 0.5) and (1, 0.8), m = 100 to 10^4; a solve at
    m = 1e7 allocates under 3 MB. The reported alpha is the polish's own
    answer at the reported price, which worst_case_alpha gives too (alpha_min
    at p = 0). The certificate pairs the family-wide bound
    maximin_certificate_lower with the ceiling mu - d/2. A spec whose scale
    or m is out of range is rejected before any solving (_check_scale), as
    is a grid of fewer than 2 prices.

    Where the search falls below L, L's own price p_L (_certificate_best)
    is tried as one more candidate, kept if strictly better: its exact
    guarantee is at least L, as L's sale bound holds for every product of
    members. In exact arithmetic p_L < m (mu - d/2), where nature's answer
    is priced: with M = m (1 - q), if k <= M then E(k - K)+ > 0, and if k > M
    then E(k - K)+ >= k - M, so sqrt(k E(k - K)+) > k - M.
    """
    _check_scale(spec, m)
    check_count(price_grid, "price_grid", 2)
    lower = maximin_certificate_lower(spec, m)
    ps = np.linspace(0.0, m * spec.mu, price_grid)

    answers = {}

    def neg_guarantee(p):
        answers[p], tail = _inner_infimum(spec, m, p)
        return -p * tail / m

    p_best, v_best, _ = grid_polish(neg_guarantee, ps, lambda lo, hi: -(
        hi * _guarantee_caps(spec, m, lo) / m), BRACKET_TOL * m * spec.mu)
    if lower > -v_best:
        p_l = _certificate_best(spec, m)[1]
        v_l = neg_guarantee(p_l)
        if v_l < v_best:
            p_best, v_best = p_l, v_l
    return SaddleReport(
        m=m,
        value=-v_best,
        price=p_best,
        alpha=1.0 - answers[p_best] if p_best > 0.0 else spec.alpha_min,
        certificate=(lower, spec.mu - spec.d / 2.0),
    )


def _best_response(spec: MeanMadSpec, m: int, u: float) -> tuple[float, float]:
    """Seller's best bundle price and per-item revenue when highs are
    Binomial(m, u).

    Only sum support points can be optimal. The scan takes k over the
    _window around m*u, reaching at least _WINDOW_SIGMAS whole k below m*u
    where sigma < 1 (plus k=0, the guaranteed sale), with the survival
    mass beyond it re-added: a few terms where m*u is small, where the
    adversary sits, and a few hundred at large m. The masses and the mass
    beyond come from one binom_window call: one Boost pmf call over the
    window and one scalar survival call.
    """
    x, gap = _two_point(spec, u)
    lo, hi = _window(m, u)
    pmf, beyond = binom_window(lo, hi, m, u)
    s = m * x + np.arange(lo, hi + 1.0) * gap
    rev = s * (pmf[::-1].cumsum()[::-1] + beyond)
    j = int(rev.argmax())
    price, best = float(s[j]), float(rev[j])
    # the all-low point sells surely
    if lo > 0 and m * x > best:
        price = best = float(m * x)
    return price, best / m


def _cell_floors(spec: MeanMadSpec, m: int, u_hi: np.ndarray,
                 u_lo: np.ndarray) -> np.ndarray:
    """Per interval u_hi >= u >= u_lo, elementwise, a lower bound on the
    seller's best-response revenue per item at every u in it. With P_k(u) =
    P(Bin(m, u) >= k), the support point with k highs sells at m x(u) +
    k gap(u) = (m - k) x(u) + k y(u) with probability P_k(u), and on the
    interval:
    - x(u) >= x(u_hi) >= 0 and y(u) >= y(u_hi), as both fall with u, and
      P_k(u) >= P_k(u_lo), so the sure price x(u_hi) and (m x(u_hi) +
      k gap(u_hi)) P_k(u_lo) / m are floors: at u_hi = u_lo these are a few
      feasible prices at u itself;
    - for k >= 1, y(u) u^k = mu u^k + d u^(k-1) / 2 rises with u while
      P_k(u) / u^k falls (with t = u s in the beta integral, it is k C(m, k)
      times the integral over s in [0, 1] of s^(k-1) (1 - u s)^(m-k)), so
      ((m - k) x(u_hi) P_k(u_lo) + k y(u_lo) P_k(u_hi) (u_lo/u_hi)^k) / m
      is one too. This small-u plateau form keeps the plateau where the
      one-high price earns about d/2 and the first form loses a factor
      u_hi/u_lo. At zero width it is at most the first form, as its
      rounding factor is below 1, so it is priced only where some interval
      has width.
    k runs over ceil(m u_lo + z sigma), z = -4..0, all in the kernel's
    window; where m u_lo <= 1, z = 0 gives k = 1, the one-high price, which
    wins there. Cuts above the mean (z > 0) set no floor on any row of 110
    specs (d/mu 0.01 to 1.98, m 1 to 1e6), so a one-point interval costs
    five survival calls; a repeated cut is priced again, as skipping it cost
    more than it saved. The plateau form is rounded down by (k + 8) 2^-52:
    the float u_lo/u_hi is within 2^-53 relative, so its k-th power within
    k 2^-53 and pow's own ulp, and y(u_lo), the two products and the
    rounding factor add five roundings more. The survival calls' own error
    is covered by PRUNE_MARGIN."""
    x_hi, gap_hi = _two_point(spec, u_hi)
    sig = np.sqrt(m * u_lo * (1.0 - u_lo))
    z = np.arange(-4.0, 1.0)[:, None]
    k = np.clip(np.ceil(m * u_lo + z * sig), 0.0, m)
    p_lo = binom_sf(k - 1.0, m, u_lo)
    revs = (m * x_hi + k * gap_hi) * p_lo / m
    if np.any(u_hi != u_lo):
        y_lo = spec.mu + spec.d / (2.0 * u_lo)
        shrink = (u_lo / u_hi) ** k * (1.0 - (k + 8.0) * 2.0 ** -52)
        highs = y_lo * binom_sf(k - 1.0, m, u_hi) * shrink
        revs = np.maximum(revs, ((m - k) * x_hi * p_lo + k * highs) / m)
    return np.maximum(x_hi, revs.max(axis=0))


def minimax_bundling_value(spec: MeanMadSpec, m: int,
                           alpha_grid: int = ALPHA_GRID) -> SaddleReport:
    """Two-point i.i.d. parameter minimizing the seller's best-response revenue.

    One grid_polish call over alpha on the best response, the grid solved only
    where it can hold the minimum: cells of rows from the lowest floor
    (_cell_floors on the cell's two ends) up, and in the cells refined, rows
    one at a time from the lowest one-point floor (_cell_floors at u_hi = u_lo)
    up. At (1, 0.8), m = 100 to 10^4, three of the 128 cells are refined.
    Reports the argmin alpha and the best-response price there, from the
    search's own evaluation. certificate.lower is maximin's family-wide bound
    maximin_certificate_lower (the other play order can only do worse for the
    adversary) and certificate.upper is the grid minimum, valid since every
    evaluated alpha upper-bounds the infimum.
    The scale is checked first, as in maximin_bundling_value, and so is the
    grid size.
    """
    _check_scale(spec, m)
    check_count(alpha_grid, "alpha_grid", 2)
    lower = maximin_certificate_lower(spec, m)
    u = _u_grid(spec, alpha_grid)
    prices = {}

    def revenue(z):
        prices[z], rev = _best_response(spec, m, z)
        return rev

    u_best, v_best, grid_best = grid_polish(
        revenue, u, lambda hi, lo: _cell_floors(spec, m, hi, lo), BRACKET_TOL)
    return SaddleReport(
        m=m,
        value=v_best,
        price=prices[u_best],
        alpha=1.0 - u_best,
        certificate=(lower, grid_best),
    )
