"""Saddle-point engines for bundle pricing against two-point product adversaries.

Price first (maximin): the seller's price grid is searched and polished by
optimize.grid_polish on the negated guarantee, and nature's answer to each
price is solved exactly. In u = 1 - alpha the
tail P(sum >= p) only jumps where a sum support point crosses p, at
closed-form breakpoints u_k, and rises with u between them. So the guarantee
at p is an infimum, attained at the floor u = U_FLOOR or approached as u
decreases to some u_k; the reported alpha is then that limit point, not an
attained minimizer. Nature first (minimax): a grid geometric in 1 - alpha
down to 1e-12, because the damaging adversaries sit next to alpha = 1,
searched and polished by grid_polish on the seller's best response. Each
order passes grid_polish one objective and a cheap bound on each grid row's
value (for a price, a cap from a few of nature's answers, _guarantee_caps;
for a nature row, a revenue floor from a few feasible prices), so rows are
solved exactly one at a time from the most promising bound on, and the
search stops once every bound left clears the best value found by the
relative margin optimize.PRUNE_MARGIN; the grid optimum and its argument are
those of the full grid. Each row is one call: a price's infimum over its
breakpoints (_inner_infimum), or nature's best response over the 40-sigma
window of k (_window), whose masses and the mass past it come from one
sum_law.binom_window call. Usually one row is solved per grid. Tails go
through the binomial survival function (sum_law.binom_sf, the kernel the
Monte Carlo sampler's counts share) rather than the explicit m+1 point law,
so m = 1e4 stays quick.
Every report carries a certificate pair: a closed-form lower bound that
holds for every product of family members (see maximin_certificate_lower),
and an upper bound that the computed value can be checked against. Both
solvers first check that the spec's scale keeps their arithmetic in double
range (_check_scale).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr

from .ambiguity import MeanMadSpec
from .errors import RobustBundlingError
from .optimize import PRUNE_MARGIN, grid_polish
from .sum_law import binom_sf, binom_window

ALPHA_GRID = 2048
PRICE_GRID = 1024
# Smallest 1 - alpha either order of play considers.
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
    Binomial(m, p), clipped to 0..m."""
    sig = math.sqrt(m * p * (1.0 - p))
    return (max(math.floor(m * p - _WINDOW_SIGMAS * sig), 0),
            min(math.ceil(m * p + _WINDOW_SIGMAS * sig), m))


def _u_grid(spec: MeanMadSpec, n: int) -> np.ndarray:
    return np.geomspace(1.0 - spec.alpha_min, U_FLOOR, n)


def _two_point(spec: MeanMadSpec, u):
    """(x, y - x) for the two-point member at u = 1 - alpha: its low value x
    and the gap up to its high value y."""
    x = spec.mu - spec.d / (2.0 * (1.0 - u))
    return x, spec.mu + spec.d / (2.0 * u) - x


def _tails(spec: MeanMadSpec, m: int, p, u) -> np.ndarray:
    """P(sum >= p) for u = 1 - alpha, sum of m i.i.d. two-point values; p and
    u broadcast against each other.

    The sum hits m*x + k*(y-x) when k of the m draws come up high, so the tail
    is a Binomial(m, u) survival at the crossing index; the ceil is nudged so
    the inclusive boundary holds exactly in floats.
    """
    x, gap = _two_point(spec, u)
    k = np.clip(np.ceil((p - m * x) / gap), 0.0, m + 1.0)
    for _ in range(2):
        k = np.where((k > 0) & (m * x + (k - 1.0) * gap >= p), k - 1.0, k)
    for _ in range(2):
        k = np.where((k <= m) & (m * x + k * gap < p), k + 1.0, k)
    return binom_sf(k - 1.0, m, u)


def _breakpoints(c: np.ndarray, m: int, k: np.ndarray) -> np.ndarray:
    """Root u in (0, 1] of c u^2 - (c + m) u + k = 0: where the support point
    with k highs crosses the price. The form is chosen so neither branch
    cancels or divides by zero (c + m <= 0 forces c < 0)."""
    b = c + m
    sq = np.sqrt(b * b - 4.0 * c * k)
    pos = b > 0.0
    return np.where(pos, 2.0 * k / np.where(pos, b + sq, 1.0),
                    (b - sq) / np.where(pos, 1.0, 2.0 * c))


def _inner_infimum(spec: MeanMadSpec, m: int, p: float) -> tuple[float, float]:
    """(u, tail) with tail the infimum of P(sum >= p) over u = 1 - alpha in
    [U_FLOOR, 1 - alpha_min), reached at u: U_FLOOR, or the breakpoint the
    infimum is approached at from above.

    Breakpoint u_k is where the k-high support point equals p; on
    (u_k, u_{k+1}] the tail is P(Bin(m, u) >= k+1), which rises with u. So
    the infimum is the smallest of the tail at U_FLOOR and the limits
    P(Bin(m, u_k) >= k+1) over the breakpoints in range. A breakpoint is
    skipped only when its Chernoff bound 1 - exp(-m KL(k/m || u_k)), a lower
    bound on that limit for k/m < u_k, clears a value already found by
    PRUNE_MARGIN.
    """
    u_hi = 1.0 - spec.alpha_min
    c = 2.0 * (p - m * spec.mu) / spec.d
    # u_k rises with k, and m u + c u (1 - u) highs are needed at u: window k
    # to 0..that count at u_hi plus a spare, then test the range exactly
    k_hi = np.clip(np.ceil(m * u_hi + c * u_hi * (1.0 - u_hi)) + 1.0, 0.0, m)
    k = np.arange(k_hi + 1.0)
    u = _breakpoints(c, m, k)
    inside = (u >= U_FLOOR) & (u < u_hi)
    k, u = k[inside], u[inside]
    floor_tail = float(_tails(spec, m, p, np.float64(U_FLOOR)))
    if k.size == 0:
        return U_FLOOR, floor_tail

    q = k / m
    kl = rel_entr(q, u) + rel_entr(1.0 - q, 1.0 - u)
    bound = np.where(q < u, -np.expm1(-m * kl), 0.0)
    # seed with the loosest-bounded breakpoint, then evaluate every
    # breakpoint the seed does not rule out
    tail = np.full(k.size, np.inf)
    j = int(np.argmin(bound))
    tail[j] = binom_sf(k[j], m, u[j])
    rest = (bound <= min(floor_tail, tail[j]) + PRUNE_MARGIN) & np.isinf(tail)
    tail[rest] = binom_sf(k[rest], m, u[rest])
    # ties go to the smallest u: U_FLOOR first, then the lowest breakpoint
    j = int(np.argmin(tail))
    if tail[j] < floor_tail:
        return float(u[j]), float(tail[j])
    return U_FLOOR, floor_tail


def _guarantee_caps(spec: MeanMadSpec, m: int, ps: np.ndarray) -> np.ndarray:
    """Per price in ps, an upper bound on its guarantee p * tail / m: the
    least over a few of nature's answers, u = U_FLOOR and the breakpoint
    limits for k = 0..8 and m-8..m in range (only those are priced), each
    term priced with _inner_infimum's element operations, so a cap is never
    below its exact guarantee, bit for bit. Small m binds at k = 0; at
    (1, 0.1), m = 16, it is k = 12, with the adversary next to alpha_min."""
    k = np.clip(np.r_[0:9, m - 8:m + 1], 0, m).astype(float)
    c = 2.0 * (ps[:, None] - m * spec.mu) / spec.d
    u = _breakpoints(c, m, k)
    inside = (u >= U_FLOOR) & (u < 1.0 - spec.alpha_min)
    tails = np.full(u.shape, np.inf)
    tails[inside] = binom_sf(np.broadcast_to(k, u.shape)[inside], m, u[inside])
    floor_tail = _tails(spec, m, ps, np.float64(U_FLOOR))
    return ps * np.minimum(floor_tail, tails.min(axis=1)) / m


def worst_case_alpha(spec: MeanMadSpec, m: int, p: float) -> tuple[float, float]:
    """Adversary's answer to a fixed bundle price p, solved exactly.

    Returns (alpha, value) with value = p * P(sum >= p) / m at its infimum
    over the family. The tail only jumps where a sum support point crosses
    p, at closed-form breakpoints u_k = 1 - alpha_k, and rises with u between
    them, so the infimum is the smallest of the tail at 1 - alpha = U_FLOOR
    (attained) and the limits as u falls to each breakpoint. In the latter
    case the returned alpha is that limit point, not an attained minimizer:
    at alpha itself the k-high support point still sells. The price must be
    finite and the scale in range (_check_scale).
    """
    if not 0.0 <= p < math.inf:
        raise RobustBundlingError(
            f"price must be nonnegative and finite, got {p!r}")
    _check_scale(spec, m)
    if p == 0.0:
        return spec.alpha_min, 0.0
    u, tail = _inner_infimum(spec, m, float(p))
    return 1.0 - u, float(p * tail / m)


def maximin_certificate_lower(spec: MeanMadSpec, m: int) -> float:
    """Per-item revenue some bundle price earns on every product of m family
    members, i.i.d. or not: L(m) = (mu/m) max_k (sqrt(k) - sqrt(E(k - K)+))^2
    with K ~ Binomial(m, 1 - d/(2 mu)).

    Every member X dominates B = mu Bernoulli(1 - d/(2 mu)) in the
    increasing-concave order, and sums of independent variables keep that
    order (Shaked & Shanthikumar, Stochastic Orders, 4.A), so for a sum S
    and mu k > p, P(S < p) <= mu E(k - K)+ / (mu k - p). The price
    p = mu (k - sqrt(k E(k - K)+)) maximizes p (1 - that bound) / m to the
    k-th term of L. E(k - K)+ = sum_{i<k} P(K <= i) is a double cumsum of
    binomial masses over the _window of k: below it E(k - K)+ is negligible
    and the term rises as k, above it the term falls. The
    masses are those of m - K ~ Binomial(m, d/(2 mu)) at m - k, so alpha_min
    enters unrounded, from one binom_window call; the cumsums start at the
    window, so its mass past the window, P(K < lo), is not used. At m = 1,
    L is the single-item robust revenue (sqrt(mu) - sqrt(d/2))^2.
    """
    q = spec.alpha_min
    lo, hi = _window(m, 1.0 - q)
    k = np.arange(lo, hi + 1.0)
    pmf, _ = binom_window(m - hi, m - lo, m, q)
    cdf = pmf[::-1].cumsum()
    shortfall = np.concatenate(([0.0], cdf[:-1].cumsum()))
    return spec.mu * float(((np.sqrt(k) - np.sqrt(shortfall)) ** 2).max()) / m


def _check_scale(spec: MeanMadSpec, m: int) -> None:
    """Raise unless both solvers' arithmetic stays in double range at this
    spec: the largest sum support point, m high values at 1 - alpha =
    U_FLOOR, must be finite, and the finest step, BRACKET_TOL * U_FLOOR * mu,
    a normal double (below that, prices and revenues lose their digits)."""
    if m < 1:
        raise RobustBundlingError(f"need m >= 1, got {m}")
    top = m * (spec.mu + spec.d / (2.0 * U_FLOOR))
    if not (math.isfinite(top)
            and BRACKET_TOL * U_FLOOR * spec.mu >= sys.float_info.min):
        raise RobustBundlingError(
            f"mu={spec.mu!r} and d={spec.d!r} leave double range at m={m}: "
            f"need m*(mu + d/(2*{U_FLOOR!r})) finite and "
            f"{BRACKET_TOL!r}*{U_FLOOR!r}*mu a normal double")


def maximin_bundling_value(spec: MeanMadSpec, m: int,
                           price_grid: int = PRICE_GRID) -> SaddleReport:
    """Price maximizing the adversarially worst bundle revenue per item.

    Outer maximization over p in [0, m*mu]: one grid_polish call minimizes
    the negated guarantee -p * tail / m (exact, so values keep their bits),
    its inner infimum solved exactly by breakpoints (_inner_infimum), one
    price at a time from the highest cap (_guarantee_caps) down; usually one
    price is solved per grid. worst_case_alpha runs once, for the reported
    alpha. The certificate pairs the family-wide bound
    maximin_certificate_lower with the analytic ceiling mu - d/2. A spec
    whose scale leaves double range is rejected before any solving
    (_check_scale).
    """
    _check_scale(spec, m)
    lower = maximin_certificate_lower(spec, m)
    ps = np.linspace(0.0, m * spec.mu, price_grid)
    p_best, v_best, _ = grid_polish(
        lambda p: -p * _inner_infimum(spec, m, p)[1] / m, ps,
        -_guarantee_caps(spec, m, ps), BRACKET_TOL * m * spec.mu)
    return SaddleReport(
        m=m,
        value=-v_best,
        price=p_best,
        alpha=worst_case_alpha(spec, m, p_best)[0],
        certificate=(lower, spec.mu - spec.d / 2.0),
    )


def _best_response(spec: MeanMadSpec, m: int, u: float) -> tuple[float, float]:
    """Seller's best bundle price and per-item revenue when highs are
    Binomial(m, u).

    Only sum support points can be optimal. The scan takes k over the
    _window around m*u (plus k=0, the guaranteed sale), with the survival
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


def _revenue_floors(spec: MeanMadSpec, m: int, us: np.ndarray) -> np.ndarray:
    """Per u in us, a lower bound on the seller's best-response revenue per
    item: the best of a few feasible prices, the sure price m*x and the
    support points with k = ceil(m u + z sigma) highs for z = -4..0, each
    sold with probability P(Bin(m, u) >= k). All lie in the kernel's
    window. Where m u <= 1, z = 0 gives k = 1: the one-high price, which
    wins there. Cuts above the mean (z > 0) set no floor on any row of 110
    specs (d/mu 0.01 to 1.98, m 1 to 1e6), and a cut repeated in a row is
    priced once, so a row costs at most five survival calls."""
    x, gap = _two_point(spec, us)
    sig = np.sqrt(m * us * (1.0 - us))
    z = np.arange(-4.0, 1.0)[:, None]
    k = np.clip(np.ceil(m * us + z * sig), 0.0, m)
    # k rises with z, so a row's repeated cuts are adjacent: price the first
    new = np.diff(k, axis=0, prepend=-1.0) != 0.0
    k, j = k[new], np.nonzero(new)[1]
    revs = np.full(new.shape, -np.inf)
    revs[new] = (m * x[j] + k * gap[j]) * binom_sf(k - 1.0, m, us[j]) / m
    return np.maximum(x, revs.max(axis=0))


def minimax_bundling_value(spec: MeanMadSpec, m: int,
                           alpha_grid: int = ALPHA_GRID) -> SaddleReport:
    """Two-point i.i.d. parameter minimizing the seller's best-response revenue.

    One grid_polish call over alpha on the best response, the grid solved
    only where it can hold the minimum: rows one at a time from the lowest
    revenue floor (_revenue_floors) up. Reports the argmin alpha and the
    best-response price there. certificate.lower is maximin's family-wide
    bound maximin_certificate_lower (the other play order can only do worse
    for the adversary) and certificate.upper is the grid minimum, valid
    since every evaluated alpha upper-bounds the infimum. The scale is
    checked first, as in maximin_bundling_value.
    """
    _check_scale(spec, m)
    lower = maximin_certificate_lower(spec, m)
    u = _u_grid(spec, alpha_grid)
    u_best, v_best, grid_best = grid_polish(
        lambda z: _best_response(spec, m, z)[1], u,
        _revenue_floors(spec, m, u), BRACKET_TOL)
    return SaddleReport(
        m=m,
        value=v_best,
        price=_best_response(spec, m, u_best)[0],
        alpha=1.0 - u_best,
        certificate=(lower, grid_best),
    )
