"""Grand-bundle pricing against exact sum laws.

A posted price p for the whole bundle earns p * P(Y >= p); the sale is inclusive at
the boundary and price ties resolve to the lowest price. best_bundle_price finds the
revenue-maximizing price of a law. Two closed forms sit beside it: the
guaranteed-sale price that undercuts the (1-eps)-quantile of the sum for every
member, which the certificate chains price at, and the separate-sale revenue of
a two-point member, a baseline the menu oracle must beat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import MeanMadSpec, TwoPointDist
from .errors import RobustBundlingError, check_count
from .sum_law import SumLaw


@dataclass(frozen=True)
class PricedOutcome:
    """A posted price with its sale probability; revenue = price * sell_prob."""

    price: float
    revenue: float
    sell_prob: float


def best_bundle_price(law: SumLaw) -> PricedOutcome:
    """Revenue-maximizing posted price; ties go to the lowest price.

    Only support points can be optimal: between support points p * P(Y >= p)
    grows linearly in p, and just past a point the tail drops.
    """
    tails = np.cumsum(law.probs[::-1])[::-1]
    revs = law.support * tails
    i = int(np.argmax(revs))  # first max = lowest price on ties
    return PricedOutcome(
        price=float(law.support[i]),
        revenue=float(revs[i]),
        sell_prob=float(tails[i]),
    )


def guaranteed_sale_price(spec: MeanMadSpec, m: int, eps: float) -> float:
    """Bundle price (1-eps)^2 * m * (mu - d / (2 (1-eps))).

    Undercuts the sum's lower quantile uniformly over the family: every member
    sells at this price with probability at least 1 - f/m for the matching
    failure coefficient (see concentration.concentration_constant). A price
    that overflows the double range raises RobustBundlingError.
    """
    check_count(m)
    spec.check_eps(eps)
    w = 1.0 - eps
    p = w * w * m * (spec.mu - spec.d / (2.0 * w))
    if not math.isfinite(p):
        raise RobustBundlingError(
            f"the sale price at mu={spec.mu!r}, m={m} is not a finite double")
    return p


def separate_sale_revenue(dist: TwoPointDist, m: int) -> float:
    """Best per-item posted pricing, summed: m * max(x, (1-alpha) y)."""
    check_count(m)
    return m * max(dist.x, (1.0 - dist.alpha) * dist.y)
