"""Closed-form limits and finite-m bound chains for ratio and regret pricing.

The large-m story is three constants: bundle pricing guarantees mu - d/2 per
item, the revenue share of the first-best approaches 1 - d/(2 mu), and the
per-item regret approaches d/2. This module evaluates the finite-m chains that
sandwich those limits, the positive gap xi separating the dispersed regime
d > mu from mu - d/2, and empirical objective values where the first-best term
is either solved exactly (m <= 3) or replaced by its m*mu ceiling. Both chains
are formed in units of mu from b = d/(2 mu), free of the scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import MeanMadSpec, make_two_point
from .concentration import guaranteed_sale_chain
from .errors import RobustBundlingError, check_count
from .opt_oracle import opt_deterministic
from .optimize import grid_polish
from .solvers import _check_scale, _u_grid, maximin_bundling_value
from .sum_law import iid_two_point_sum, tail_prob

_EMP_GRID = 256
# Exact first-best oracle is affordable this far.
_ORACLE_CAP = 3


def schedule_eps_gamma(m: int) -> float:
    """Joint scale eps = gamma = m^(-1/4) used by the convergence studies."""
    check_count(m)
    return float(m) ** -0.25


def _g(spec: MeanMadSpec, lam) -> np.ndarray:
    return -np.expm1(-1.0 / lam) * (spec.mu + (lam - 1.0) * spec.d / 2.0)


def second_point_limit(spec: MeanMadSpec, lam: float) -> float:
    """Limiting revenue of the second-support price when the expected number of
    high draws tends to lam: (1 - e^(-1/lam)) (mu + (lam - 1) d/2).

    Rises from mu - d/2 (lam -> 0) to d/2 (lam -> infinity); expm1 keeps the
    large-lam end from cancelling. lam must be finite: the limit is not
    evaluated at infinity.
    """
    if not 0.0 < lam < np.inf:
        raise RobustBundlingError(f"need lambda > 0 and finite, got {lam!r}")
    return float(_g(spec, lam))


def xi_gap(spec: MeanMadSpec) -> dict:
    """Certified positive gap between the dispersed-regime value and mu - d/2.

    Returns {gamma, tau0, xi0, xi1, xi}: gamma and tau0 are the largest values
    satisfying 0.99 (1-gamma) mu >= d/2 and 1 - (d/(2 gamma mu))^2 tau0 >= 0.99
    with equality; xi0 = d - mu; xi1 is the infimum of
    second_point_limit - (mu - d/2) over lam >= tau0; xi = min(xi0, xi1),
    which is xi1.

    xi1 has a closed form. With s = 1/lam, A = mu - d/2 > 0 and B = d/2,
    s^2 e^s dg/ds = q(s) = A s^2 + B s + B - B e^s, where q(0) = q'(0) = 0
    and q'' = 2A - B e^s falls. So g rises in s and then falls, or only
    falls (when d >= 4 mu / 3), and its infimum over s in (0, 1/tau0] is
    the smaller of g(tau0) and the lam -> infinity limit d/2:
    xi1 = min(g(tau0) - (mu - d/2), d - mu).

    Only one valid concrete choice is produced, not a maximal gap. The 0.99
    constant in the construction needs d < 1.98 mu, so the top slice of the
    d-range is rejected outright rather than fed a negative gamma.
    """
    mu, d = spec.mu, spec.d
    if not (mu < d < 2.0 * mu):
        raise RobustBundlingError(f"need mu < d < 2*mu, got mu={mu!r}, d={d!r}")
    if d >= 1.98 * mu:
        raise RobustBundlingError(
            f"the 0.99 headroom constant caps the range at d < 1.98*mu; "
            f"got d={d!r}, mu={mu!r}"
        )
    gamma = 1.0 - d / (1.98 * mu)
    tau0 = 0.01 * (2.0 * gamma * mu / d) ** 2
    xi0 = d - mu
    xi1 = min(float(_g(spec, tau0) - (mu - d / 2.0)), xi0)
    return {"gamma": gamma, "tau0": tau0, "xi0": xi0, "xi1": xi1, "xi": xi1}


def _boundary_variance(spec: MeanMadSpec) -> float:
    """b/(1 - b), b = d/(2 mu): the zero-low-point member's variance / mu^2."""
    return spec.alpha_min / (1.0 - spec.alpha_min)


def _chebyshev_bracket(m: int, gamma: float, g: float) -> float:
    """1 - g / (gamma^2 m): Chebyshev's floor on the chance that a sum with
    per-item variance at most g mu^2 stays within gamma m mu of its mean."""
    return 1.0 - g / (gamma ** 2 * m)


def ratio_bound_chain(spec: MeanMadSpec, m: int, eps: float) -> dict:
    """Finite-m sandwich for the revenue share of the first-best.

    Returns {lower, upper}. lower divides the guaranteed-sale revenue floor
    by the m*mu ceiling and is reported raw (it goes negative when f >= m).
    upper is (1 - b) / ((1-gamma)(1 - c/gamma^2)) with c = b/((1 - b) m) at
    the gamma that maximizes the denominator, the one real root of
    gamma^3 + c gamma - 2c = 0; for c < 1 it lies in (sqrt(c), 1). Cardano in
    the form gamma = A - c/(3A), A^3 = c (1 + sqrt(1 + c/27)), cancels
    nothing. upper is +inf when c >= 1: 1 - c/gamma^2 <= 0 on all of (0, 1).
    """
    lower = guaranteed_sale_chain(spec, m, eps) / spec.mu
    g = _boundary_variance(spec)
    c = g / m
    upper = float("inf")
    if c < 1.0:
        a = float(np.cbrt(c * (1.0 + np.sqrt(1.0 + c / 27.0))))
        gam = a - c / (3.0 * a)
        upper = (1.0 - spec.alpha_min) \
            / ((1.0 - gam) * _chebyshev_bracket(m, gam, g))
    return {"lower": float(lower), "upper": upper}


def regret_bound_chain(spec: MeanMadSpec, m: int, eps: float,
                       gamma: float) -> dict:
    """Finite-m sandwich for per-item regret, {upper, lower}.

    upper = mu - (guaranteed-sale revenue floor)/m; lower is the case minimum
    of the Chebyshev-corrected separate-sale shortfall against the analytic cap
    max(mu - d/2, d/2). Both tend to d/2 as (m, 1/eps, 1/gamma) grow together.
    """
    upper = spec.mu - guaranteed_sale_chain(spec, m, eps)  # checks eps first
    if not (0.0 < gamma < 1.0):
        raise RobustBundlingError(f"need 0 < gamma < 1, got {gamma!r}")
    b = spec.alpha_min
    corrected = (1.0 - gamma) \
        * _chebyshev_bracket(m, gamma, _boundary_variance(spec)) - (1.0 - b)
    return {"upper": float(upper),
            "lower": float(spec.mu * min(corrected, max(1.0 - b, b)))}


@dataclass(frozen=True)
class EmpiricalReport:
    """Finite-m objective value with the first-best handling mode on record."""

    objective: str
    m: int
    value: float
    mode: str
    price: float
    alpha: float


def _oracle_curves(spec: MeanMadSpec, m: int, grid: int):
    u = _u_grid(spec, grid)
    laws = []
    opts = np.empty(grid)
    for i, uu in enumerate(u):
        dist = make_two_point(spec, max(1.0 - float(uu), spec.alpha_min))
        laws.append(iid_two_point_sum(dist, m))
        opts[i] = opt_deterministic([dist], m, symmetric=True).revenue
    return u, laws, opts


def _empirical(spec: MeanMadSpec, m: int, grid: int,
               objective: str) -> EmpiricalReport:
    """Both studies as one search: the seller minimizes, over the price, the
    negated worst per-adversary score, -p P(sum >= p) / OPT (ratio) or the
    shortfall (OPT - p P(sum >= p)) / m (regret), and the ratio is reported
    with its sign restored. Negation is exact, so the grid and polish see the
    same values either way. Every price on the grid is solved (bounds
    -inf), and the reported alpha is the binding adversary the search's own
    evaluation found at the reported price."""
    ratio = objective == "ratio"
    if m <= _ORACLE_CAP:
        _check_scale(spec, m)  # the rules maximin applies in mode mu_upper
        check_count(grid, "grid", 2)
        u, laws, opts = _oracle_curves(spec, m, grid)
        answers = {}

        def loss(p: float) -> float:
            rev = p * np.array([tail_prob(law, p) for law in laws])
            scores = rev / opts if ratio else rev - opts
            answers[p] = i = int(np.argmin(scores))
            return -float(scores[i]) / (1.0 if ratio else m)

        p_best, v_best, _ = grid_polish(
            loss, np.linspace(0.0, m * spec.mu, grid),
            lambda lo, hi: np.full(lo.size, -np.inf), 1e-10 * m * spec.mu)
        return EmpiricalReport(objective=objective, m=m,
                               value=-v_best if ratio else v_best,
                               mode="oracle", price=p_best,
                               alpha=1.0 - float(u[answers[p_best]]))
    rep = maximin_bundling_value(spec, m)
    return EmpiricalReport(objective=objective, m=m,
                           value=rep.value / spec.mu if ratio
                           else spec.mu - rep.value,
                           mode="mu_upper", price=rep.price, alpha=rep.alpha)


def ratio_empirical(spec: MeanMadSpec, m: int, grid: int = _EMP_GRID) -> EmpiricalReport:
    """Best guaranteed share of the first-best under two-point i.i.d. nature.

    m <= 3 solves sup_p min_alpha p P(sum >= p) / OPT(alpha) on grids with the
    exact menu oracle in the denominator (mode "oracle"). Larger m replaces
    OPT by its m*mu ceiling, which turns the objective into maximin value / mu
    (mode "mu_upper", a conservative share). grid is read only in oracle mode.
    """
    return _empirical(spec, m, grid, "ratio")


def regret_empirical(spec: MeanMadSpec, m: int, grid: int = _EMP_GRID) -> EmpiricalReport:
    """Smallest per-item shortfall against the first-best, same two modes.

    m <= 3: inf_p max_alpha [OPT(alpha) - p P(sum >= p)] / m with the exact
    oracle. Larger m: mu - maximin value, i.e. the shortfall against the m*mu
    ceiling (mode "mu_upper", a conservative regret). grid is read only in
    oracle mode.
    """
    return _empirical(spec, m, grid, "regret")
