"""Lower-tail concentration for sums of independent mean/MAD-constrained values.

The sum of m independent values with mean mu and mean absolute deviation d lands
above the guaranteed-sale price with probability at least 1 - f/m, where the
failure coefficient f depends only on b = d/(2 mu) and eps. The route is
truncation at a level t, a conditional-mean floor, and Chebyshev on the
truncated sum; the first step, the truncated-tail supremum, is exposed on its
own so it can be checked against a member grid. Every constant is formed as
a function of b times a power of mu, and no product of two scales is formed,
so f, the bound and t/mu are the same at every scale mu and d = 2 b mu.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

from .ambiguity import MeanMadSpec, MemberDist, verify_membership
from .bundling import guaranteed_sale_price
from .errors import RobustBundlingError
from .sum_law import count_at_least

# Monte Carlo checks below this sample count are too noisy to be meaningful.
MC_MIN_SAMPLES = 10_000
# Moment tolerance for admitting a member into an MC check.
MEMBERSHIP_TOL = 1e-6


@dataclass(frozen=True)
class ConcentrationCertificate:
    """Failure coefficient f with its truncation level and, once m is known,
    the sale threshold and the tail bound max(0, 1 - f/m)."""

    mu: float
    d: float
    eps: float
    t: float
    f: float
    m: Optional[int] = None
    threshold: Optional[float] = None
    bound: Optional[float] = None

    def with_m(self, m: int) -> "ConcentrationCertificate":
        if m < 1:
            raise RobustBundlingError(f"need m >= 1, got {m}")
        spec = MeanMadSpec(mu=self.mu, d=self.d)
        return replace(
            self,
            m=m,
            threshold=guaranteed_sale_price(spec, m, self.eps),
            bound=max(0.0, 1.0 - self.f / m),
        )


def tail_truncation_sup(spec: MeanMadSpec, t: float) -> float:
    """Largest E[X 1{X >= t}] over the family, as a function of the cut t.

    The free optimum puts mass d/(2(t-mu)) on the upper point, worth
    d/(2(t/mu - 1)) + d/2. When t is low that mass exceeds what a nonnegative
    member can carry; the boundary member (lower point at zero) then attains
    exactly mu, so the supremum caps there.
    """
    lo = spec.mu + spec.d / 2.0
    if not t >= lo:
        raise RobustBundlingError(f"need t >= {lo!r}, got {t!r}")
    raw = spec.d / (2.0 * (t / spec.mu - 1.0)) + spec.d / 2.0
    return min(raw, spec.mu)


def failure_coefficient(spec: MeanMadSpec, eps: float) -> float:
    """f = (1 + b/eps)^2 / (4 (eps ((1 - eps) - b))^2), b = d/(2 mu), at the
    lowest cut t = mu + d/(2 eps), for eps in (0, 1 - b): the default
    concentration_constant's f. eps's range is checked first, so eps = 0 is a
    RobustBundlingError rather than a division by zero."""
    return concentration_constant(spec, eps).f


def guaranteed_sale_chain(spec: MeanMadSpec, m: int, eps: float) -> float:
    """Per-item revenue the guaranteed-sale price earns at least on every
    member, p*(eps)/m * (1 - f(mu,d,eps)/m). f goes first: it checks eps's
    range before the price is formed."""
    if m < 1:
        raise RobustBundlingError(f"need m >= 1, got {m}")
    f = failure_coefficient(spec, eps)
    return guaranteed_sale_price(spec, m, eps) / m * (1.0 - f / m)


def concentration_constant(
    spec: MeanMadSpec, eps: float, optimize_t: bool = False
) -> ConcentrationCertificate:
    """Failure coefficient f(mu, d, eps); m left unset until with_m.

    A cut is named by its slack e in (0, eps]: t = mu (1 + b/e), b = d/(2 mu).
    Past t the family's tail carries at most (e + b) mu of the mean
    (tail_truncation_sup), so the truncated mean is at least ((1 - e) - b) mu,
    and Chebyshev with the variance cap t^2/4 gives
    f = (1 + b/e)^2 / (4 (eps ((1 - e) - b))^2), in units of mu^2, so free
    of mu. The default is the lowest cut, e = eps. optimize_t=True minimizes
    f over the cuts: f falls to its one minimum t* = mu (1 + sqrt(b)) / (1 - b)
    = mu / (1 - sqrt(b)), of slack sqrt(b) - b whatever eps is, and rises
    after it, so e = min(sqrt(b) - b, eps). A t or f that leaves double range
    (eps too small, or d too close to 2 mu) raises RobustBundlingError.
    """
    spec.check_eps(eps)
    b = spec.alpha_min
    e = min(math.sqrt(b) - b, eps) if optimize_t else eps
    r = 1.0 + b / e
    den = 4.0 * (eps * ((1.0 - e) - b)) ** 2
    f = r * r / den if den else math.inf
    t = spec.mu * r
    if not (math.isfinite(f) and math.isfinite(t)):
        raise RobustBundlingError(
            f"f(mu, d, eps) at eps={eps!r} and the cut t = mu*{r!r} is not a "
            f"finite double: eps is too small or d={spec.d!r} too close to 2*mu")
    return ConcentrationCertificate(mu=spec.mu, d=spec.d, eps=eps, t=t, f=f)


@dataclass(frozen=True)
class McReport:
    """Monte Carlo check of the tail bound at one (members, m, eps) setting."""

    empirical: float
    bound: float
    std_err: float
    passed: bool
    threshold: float
    m: int
    eps: float
    n: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def concentration_check_mc(
    members: Sequence[MemberDist],
    m: int,
    eps: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> McReport:
    """Empirical P(sum >= threshold) against the certified bound.

    Members must share one (mu, d) spec and pass a moment check; fewer than m
    members are cycled across the slots. Passing means the empirical tail is no
    more than three binomial standard errors below the bound. The count of
    sums at or above the threshold comes from sum_law.count_at_least, which
    draws a block only until each running total, plus the least its undrawn
    slots can add, provably clears the threshold, so the count is that of
    the full sums. A set whose floors clear it (a two-point low or a Pareto
    scale above the threshold per item) draws nothing.
    """
    members = list(members)
    if not members:
        raise RobustBundlingError("need at least one member")
    if n < MC_MIN_SAMPLES:
        raise RobustBundlingError(f"need n >= {MC_MIN_SAMPLES}, got {n}")
    spec = members[0].spec
    for dist in members:
        if dist.spec != spec:
            raise RobustBundlingError("all members must share one mean/MAD spec")
        rep = verify_membership(dist, spec, tol=MEMBERSHIP_TOL)
        if not rep.ok:
            raise RobustBundlingError(
                f"member moments off by mean {rep.mean_error!r}, mad {rep.mad_error!r}"
            )
    cert = concentration_constant(spec, eps).with_m(m)
    slots = members
    if len(members) not in (1, m):
        slots = [members[i % len(members)] for i in range(m)]
    emp = count_at_least(slots, m, seed=seed, n=n, threshold=cert.threshold,
                         workers=workers) / n
    se = math.sqrt(emp * (1.0 - emp) / n)
    return McReport(
        empirical=emp,
        bound=cert.bound,
        std_err=se,
        passed=emp >= cert.bound - 3.0 * se,
        threshold=cert.threshold,
        m=m,
        eps=eps,
        n=n,
        seed=seed,
    )
