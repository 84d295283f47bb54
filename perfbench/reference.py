"""Independent references the benchmark checks program outputs against.

Nothing here calls into ``rbl``: every figure is recomputed from the model's
definitions (two-point members, sums of independent values, posted prices,
menus) with plain numpy, scipy special functions, exact integer arithmetic or
mpmath, so a wrong program output cannot also be the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import betainc, gammaln, kolmogorov

# Dense scans stop this close to alpha = 1 (the family's open end).
U_FLOOR = 1e-12
# Up to this m the guarantee scan sums exact binomial terms.
EXACT_SCAN_MAX_M = 16
SCAN_POINTS = 1_000_000
# Kolmogorov-Smirnov false-alarm rate for the sampled-sum checks.
KS_ALPHA = 1e-6


def two_point(mu: float, d: float, alpha: float) -> tuple[float, float]:
    """Low and high points of the extremal member with low mass alpha."""
    return mu - d / (2.0 * alpha), mu + d / (2.0 * (1.0 - alpha))


# --- guarantee scan (maximin check) ---------------------------------------

def _crossing_index(mu, d, m, p, alpha):
    """Smallest k with (m-k) x + k y >= p, per alpha (m+1 if none).

    x and y are formed from alpha exactly as the program forms them, so a
    price that is a support point of the program's law crosses at its k.
    """
    x = mu - d / (2.0 * alpha)
    y = mu + d / (2.0 * (1.0 - alpha))
    k0 = np.floor((p - m * x) / (y - x)) - 1.0
    k = np.full(alpha.shape, m + 1.0)
    for step in (3.0, 2.0, 1.0, 0.0):  # walk down so the smallest hit wins
        kk = k0 + step
        hit = (kk >= 0.0) & (kk <= m) & ((m - kk) * x + kk * y >= p)
        k = np.where(hit, kk, k)
    k = np.where(m * x >= p, 0.0, k)
    return k


def _exact_tails(mu, d, m, p, u):
    """P(sum >= p) from exact integer binomial coefficients (small m)."""
    alpha = 1.0 - u
    x = mu - d / (2.0 * alpha)
    y = mu + d / (2.0 * u)
    tail = np.zeros_like(u)
    for k in range(m + 1):
        term = math.comb(m, k) * u ** k * alpha ** (m - k)
        tail += np.where((m - k) * x + k * y >= p, term, 0.0)
    return tail


def _beta_tails(mu, d, m, p, alpha):
    """P(sum >= p) through the regularized incomplete beta (large m)."""
    k = _crossing_index(mu, d, m, p, alpha)
    inner = (k >= 1.0) & (k <= m)
    kk = np.where(inner, k, 1.0)
    tail = betainc(kk, m - kk + 1.0, 1.0 - alpha)
    return np.where(k <= 0.0, 1.0, np.where(k > m, 0.0, tail))


def iid_tail(mu: float, d: float, m: int, p: float, alpha: float) -> float:
    """P(sum of m i.i.d. two-point values >= p) at one alpha."""
    return float(_beta_tails(mu, d, m, p, np.array([alpha]))[0])


def beta_tail_mpmath(m: int, k: int, u: float) -> float:
    """P(Binomial(m, u) >= k) in 40-digit arithmetic, as the spot check."""
    import mpmath  # imported on first use: set-up probes should not pay for it
    with mpmath.workdps(40):
        return float(mpmath.betainc(k, m - k + 1, 0, mpmath.mpf(u),
                                    regularized=True))


def guarantee_scan(mu: float, d: float, m: int, p: float) -> dict:
    """Lowest p P(sum >= p) / m over a dense alpha scan at a fixed price.

    The scan is an upper bound on the true guarantee at p, so a reported
    guarantee above it overstates what the price secures. For m above
    EXACT_SCAN_MAX_M the incomplete-beta tails are spot-checked against
    mpmath at the scan minimum and a few fixed scan points.
    """
    u = np.geomspace(1.0 - d / (2.0 * mu), U_FLOOR, SCAN_POINTS)
    if m <= EXACT_SCAN_MAX_M:
        vals = p * _exact_tails(mu, d, m, p, u) / m
        spot_err = 0.0
    else:
        alpha = 1.0 - u
        tails = _beta_tails(mu, d, m, p, alpha)
        vals = p * tails / m
        k = _crossing_index(mu, d, m, p, alpha)
        i_min = int(np.argmin(vals))
        spot_err = 0.0
        for i in (i_min, u.size // 7, u.size // 3, u.size // 2):
            if 1 <= k[i] <= m:
                ref = beta_tail_mpmath(m, int(k[i]), 1.0 - float(alpha[i]))
                spot_err = max(spot_err, abs(ref - tails[i]) / max(ref, 1e-300))
    i = int(np.argmin(vals))
    return {"value": float(vals[i]), "alpha": float(1.0 - u[i]),
            "spot_rel_err": spot_err}


# --- exact best response (minimax check) ----------------------------------

def best_response(mu: float, d: float, m: int, alpha: float) -> float:
    """Seller's best per-item bundle revenue when all m items follow the
    two-point member at alpha, from the full m+1 point law."""
    u = 1.0 - alpha
    x, y = two_point(mu, d, alpha)
    ks = np.arange(m + 1)
    logc = gammaln(m + 1.0) - gammaln(ks + 1.0) - gammaln(m - ks + 1.0)
    pmf = np.exp(logc + ks * math.log(u) + (m - ks) * math.log1p(-u))
    tails = np.cumsum(pmf[::-1])[::-1]
    support = (m - ks) * x + ks * y
    return float(np.max(support * tails)) / m


# --- concentration certificate (Monte Carlo checks) -----------------------

def failure_coefficient(mu: float, d: float, eps: float) -> float:
    """f = t^2 / (4 (eps ((1-eps) mu - d/2))^2) at the cut t = mu + d/(2 eps)."""
    t = mu + d / (2.0 * eps)
    return t * t / (4.0 * (eps * ((1.0 - eps) * mu - d / 2.0)) ** 2)


def sale_threshold(mu: float, d: float, m: int, eps: float) -> float:
    """Guaranteed-sale bundle price (1-eps)^2 m (mu - d/(2(1-eps)))."""
    w = 1.0 - eps
    return w * w * m * (mu - d / (2.0 * w))


class ShiftedFairBinomial:
    """Law of offset + step * Binomial(n, 1/2), with exact big-integer masses."""

    def __init__(self, n: int, offset: float, step: float = 1.0):
        self.n, self.offset, self.step = n, offset, step
        coeffs = [1]
        for j in range(1, n + 1):
            coeffs.append(coeffs[-1] * (n - j + 1) // j)
        self._coeffs = coeffs
        self._total = 1 << n

    def tail(self, threshold: float) -> float:
        """P(X >= threshold), summed exactly and rounded once."""
        j0 = max(0, math.ceil((threshold - self.offset) / self.step))
        if j0 > self.n:
            return 0.0
        return float(Fraction(sum(self._coeffs[j0:]), self._total))

    def ks_pvalue(self, sums: np.ndarray) -> float:
        """Kolmogorov-Smirnov p-value of sampled sums against this law.

        The law is discrete, so the asymptotic continuous-law p-value is
        conservative: the false-alarm rate stays below the nominal level.
        Samples off the lattice get p-value 0.
        """
        j = (sums - self.offset) / self.step
        ji = np.rint(j)
        if not np.all((ji == j) & (ji >= 0) & (ji <= self.n)):
            return 0.0
        counts = np.bincount(ji.astype(np.int64), minlength=self.n + 1)
        pmf = np.array([c / self._total for c in self._coeffs])
        cdf = np.cumsum(pmf)
        ecdf = np.cumsum(counts) / sums.size
        # sup over the right limits (cdf) and left limits (cdf - pmf)
        dist = max(float(np.max(np.abs(ecdf - cdf))),
                   float(np.max(np.abs(ecdf - counts / sums.size - (cdf - pmf)))))
        return float(kolmogorov(dist * math.sqrt(sums.size)))


# --- exact laws -------------------------------------------------------------

def log_weight_mpmath(m: int, k: int, alpha: float) -> float:
    """log of C(m,k) alpha^(m-k) (1-alpha)^k in 40-digit arithmetic."""
    import mpmath
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        u = 1 - a  # exact: alpha is a double
        val = (mpmath.loggamma(m + 1) - mpmath.loggamma(k + 1)
               - mpmath.loggamma(m - k + 1))
        if m - k:
            val += (m - k) * mpmath.log(a)
        if k:
            val += k * mpmath.log(u)
        return float(val)


def product_lattice(points: list[tuple[float, float, float]]):
    """All 2^m profiles of independent two-point values (alpha, x, y).

    Returns (bundle value, mass) per profile, values accumulated item by
    item from 0 in index order; bit i of the row index means item i is high.
    """
    m = len(points)
    rows = np.arange(1 << m)
    vals = np.zeros(rows.size)
    mass = np.ones(rows.size)
    for i, (alpha, x, y) in enumerate(points):
        high = ((rows >> i) & 1).astype(bool)
        vals = vals + np.where(high, y, x)
        mass = mass * np.where(high, 1.0 - alpha, alpha)
    return vals, mass


def lattice_tail(vals: np.ndarray, mass: np.ndarray, p: float) -> float:
    return math.fsum(mass[vals >= p])


def best_posted_revenue(vals: np.ndarray, mass: np.ndarray) -> float:
    """max over posted prices v of v P(V >= v), from the raw profiles."""
    order = np.argsort(vals, kind="stable")
    v, w = vals[order], mass[order]
    tails = np.cumsum(w[::-1])[::-1]
    return float(np.max(v * tails))


def law_matches_lattice(support: np.ndarray, probs: np.ndarray,
                        vals: np.ndarray, mass: np.ndarray) -> tuple[float, float]:
    """Compare a merged sum law with the raw profile lattice.

    The law may merge profile values that nearly coincide into the lowest
    of them, so support point i owns the profile mass in [s_i, s_{i+1}).
    Returns the largest CDF gap at the upper ends of those intervals and the
    largest distance from a profile value down to the support point owning
    it (0 where nothing merged).
    """
    order = np.argsort(vals, kind="stable")
    v, w = vals[order], np.cumsum(mass[order])
    upper = np.searchsorted(v, np.append(support[1:], np.inf), side="left") - 1
    ref_cdf = np.where(upper >= 0, w[np.maximum(upper, 0)], 0.0)
    owner = np.searchsorted(support, v, side="right") - 1
    drift = np.where(owner >= 0, v - support[np.maximum(owner, 0)], np.inf)
    return float(np.max(np.abs(np.cumsum(probs) - ref_cdf))), float(np.max(drift))


# --- menus ------------------------------------------------------------------

def menu_revenue(entries, points, tie_tol: float = 1e-9) -> float:
    """Expected revenue of a deterministic menu over the full bid lattice.

    entries are (bundle bitmask, price) pairs including the opt-out (0, 0).
    The buyer takes a utility-maximizing entry; ties within tie_tol go to the
    seller: highest price, then the larger bundle, then the lowest bitmask.
    """
    m = len(points)
    total = []
    for t in range(1 << m):
        vals = [points[i][2] if (t >> i) & 1 else points[i][1] for i in range(m)]
        prob = 1.0
        for i in range(m):
            prob *= (1.0 - points[i][0]) if (t >> i) & 1 else points[i][0]
        utils = [sum(vals[i] for i in range(m) if (mask >> i) & 1) - price
                 for mask, price in entries]
        top = max(utils)
        tied = [(price, bin(mask).count("1"), -mask)
                for (mask, price), ut in zip(entries, utils) if ut >= top - tie_tol]
        total.append(prob * max(tied)[0])
    return math.fsum(total)
