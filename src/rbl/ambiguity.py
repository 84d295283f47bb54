"""Mean-MAD ambiguity set: feasibility, the two-point extremal family, member library.

The ambiguity set over a single item value collects all distributions on [0, inf)
with mean mu and mean absolute deviation d. It is workable iff 0 < d < 2*mu, and its
extreme behavior is captured by a one-parameter family of two-point distributions:

    low point  x(alpha) = mu - d/(2*alpha)        with mass alpha,
    high point y(alpha) = mu + d/(2*(1-alpha))    with mass 1-alpha,

for alpha in [d/(2*mu), 1). At the left endpoint the low point sits exactly at 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import RobustBundlingError

# Relative tolerance for moment checks on constructed members.
MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class MeanMadSpec:
    """Mean/dispersion pair (mu, d); valid iff mu > 0 and 0 < d < 2*mu, with
    2*mu finite, mu and d normal doubles and d/(2*mu) not lost against 1."""

    mu: float
    d: float

    def __post_init__(self) -> None:
        # 2*mu bounds d and sets alpha_min, so it must stay finite too
        if not (math.isfinite(2.0 * self.mu) and self.mu > 0.0):
            raise RobustBundlingError(
                f"mu must be positive with 2*mu finite, got {self.mu}")
        if not (math.isfinite(self.d) and 0.0 < self.d < 2.0 * self.mu):
            raise RobustBundlingError(
                f"need 0 < d < 2*mu for a workable set, got d={self.d}, mu={self.mu}"
            )
        if min(self.mu, self.d) < sys.float_info.min:
            raise RobustBundlingError(f"mu={self.mu!r} and d={self.d!r} leave "
                                      "double range: both must be normal")
        # u = 1 - alpha tops out at 1 - alpha_min; at 1.0 alpha_min is lost
        if not 1.0 - self.alpha_min < 1.0:
            raise RobustBundlingError(
                f"need d/(2*mu) above double rounding, got d={self.d}, mu={self.mu}")

    @property
    def alpha_min(self) -> float:
        """Smallest feasible low-point mass (low point hits 0 exactly there)."""
        return self.d / (2.0 * self.mu)

    def check_eps(self, eps: float) -> None:
        """Raise unless 0 < eps < 1 - alpha_min: the range of the
        guaranteed-sale price and its failure coefficient."""
        hi = 1.0 - self.alpha_min
        if not 0.0 < eps < hi:
            raise RobustBundlingError(f"need 0 < eps < {hi!r}, got {eps!r}")


@dataclass(frozen=True)
class TwoPointDist:
    """Extremal member: mass alpha at x, mass 1-alpha at y."""

    spec: MeanMadSpec
    alpha: float
    x: float
    y: float

    def mean(self) -> float:
        return self.alpha * self.x + (1.0 - self.alpha) * self.y

    def mad_about(self, center: float) -> float:
        return self.alpha * abs(self.x - center) + (1.0 - self.alpha) * abs(self.y - center)

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return np.where(u < self.alpha, self.x, self.y)


@dataclass(frozen=True)
class ThreePointDist:
    """Three-atom member; construction does not validate membership (verify does)."""

    spec: MeanMadSpec
    points: tuple[float, float, float]
    probs: tuple[float, float, float]

    def mean(self) -> float:
        return float(sum(p * v for p, v in zip(self.probs, self.points)))

    def mad_about(self, center: float) -> float:
        return float(sum(p * abs(v - center) for p, v in zip(self.probs, self.points)))

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        cum = np.cumsum(self.probs[:-1])
        idx = np.searchsorted(cum, u, side="right")
        return np.asarray(self.points, dtype=float)[idx]


@dataclass(frozen=True)
class ParetoDist:
    """Heavy-tailed member with tail index a in (1, 2] and matching mean.

    Infinite variance for a <= 2, so it exercises every bound that avoids
    second moments. The scale is pinned by the mean: scale = mu*(a-1)/a.
    """

    spec: MeanMadSpec
    a: float
    scale: float

    def mean(self) -> float:
        return self.a * self.scale / (self.a - 1.0)

    def mad_about(self, center: float) -> float:
        # E|X - c| for classical Pareto via the survival function.
        a, xm, c = self.a, self.scale, center
        mu = self.mean()
        if c <= xm:
            return mu - c
        # E|X-c| = E[X] - c + 2*E[(c-X)^+] = c - mu + 2*E[(X-c)^+]
        excess = (xm / c) ** a * c / (a - 1.0)
        return c - mu + 2.0 * excess

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self.scale * (1.0 - u) ** (-1.0 / self.a)


MemberDist = Union[TwoPointDist, ThreePointDist, ParetoDist]


def make_two_point(spec: MeanMadSpec, alpha: float) -> TwoPointDist:
    """Build the extremal two-point member at low-point mass alpha.

    alpha must lie in [alpha_min, 1) with alpha_min = d/(2*mu); at the boundary the
    low point is exactly 0.0. Rounding-level negative lows just above the boundary
    are clamped to 0 (mean identity still holds to 1e-12 relative). The high
    point must be a finite double.
    """
    a_min = spec.alpha_min
    if not (a_min <= alpha < 1.0):
        raise RobustBundlingError(f"alpha={alpha} outside [{a_min}, 1)")
    if alpha == a_min:
        x = 0.0
    else:
        x = spec.mu - spec.d / (2.0 * alpha)
        if x < 0.0:
            if x < -1e-12 * spec.mu:
                raise RobustBundlingError(
                    f"alpha={alpha} drives the low point negative")
            x = 0.0
    y = spec.mu + spec.d / (2.0 * (1.0 - alpha))
    if not math.isfinite(y):
        raise RobustBundlingError(f"alpha={alpha} puts the high point past double range")
    return TwoPointDist(spec=spec, alpha=alpha, x=x, y=y)


def make_three_point(
    spec: MeanMadSpec,
    points: tuple[float, float, float],
    probs: tuple[float, float, float],
) -> ThreePointDist:
    """Wrap three atoms against a claimed spec; membership checked separately."""
    if len(points) != 3 or len(probs) != 3:
        raise RobustBundlingError("need exactly three points and three probabilities")
    if not all(math.isfinite(v) for v in (*points, *probs)):
        raise RobustBundlingError(
            f"points and probabilities must be finite, got {points!r} and {probs!r}")
    if any(p < 0.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
        raise RobustBundlingError("probabilities must be non-negative and sum to 1")
    if any(v < 0.0 for v in points):
        raise RobustBundlingError("support must lie in [0, inf)")
    return ThreePointDist(spec=spec, points=tuple(points), probs=tuple(probs))


def pareto_induced_mad(mu: float, a: float) -> float:
    """MAD of the mean-mu Pareto with tail index a: 2*mu*(a-1)^(a-1)/a^a."""
    # (a-1)^(a-1) -> 1 as a -> 1+, computed stably through exp/log.
    t = (a - 1.0) * math.log(a - 1.0) if a > 1.0 else 0.0
    return 2.0 * mu * math.exp(t - a * math.log(a))


def make_pareto_member(spec: MeanMadSpec, a: float) -> ParetoDist:
    """Heavy-tail member of the ambiguity set; rejected unless d matches the index."""
    if not (1.0 < a <= 2.0):
        raise RobustBundlingError(f"tail index a={a} outside (1, 2]")
    induced = pareto_induced_mad(spec.mu, a)
    if abs(induced - spec.d) > MOMENT_TOL * spec.d:
        raise RobustBundlingError(
            f"index a={a} induces MAD {induced:.12g}, spec asks for {spec.d:.12g}"
        )
    scale = spec.mu * (a - 1.0) / a
    return ParetoDist(spec=spec, a=a, scale=scale)


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    mean_error: float
    mad_error: float


def verify_membership(
    dist: MemberDist, spec: MeanMadSpec, tol: float = MOMENT_TOL
) -> MembershipReport:
    """Check E[X] = mu and E|X - mu| = d at relative tolerance tol."""
    mean_err = abs(dist.mean() - spec.mu) / spec.mu
    mad_err = abs(dist.mad_about(spec.mu) - spec.d) / spec.d
    return MembershipReport(ok=(mean_err <= tol and mad_err <= tol),
                            mean_error=mean_err, mad_error=mad_err)
