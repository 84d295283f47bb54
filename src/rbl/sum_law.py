"""Exact laws and samplers for sums of independent item values.

For m i.i.d. two-point values the sum lives on m+1 points,

    Y = (m-k)*x + k*y   with prob  C(m,k) * alpha^(m-k) * (1-alpha)^k,

computed in log space so it stays sound out to m = 1e6 and alpha within 1e-12 of 1.
Heterogeneous products are convolved exactly up to a factor cap.

Monte Carlo sums are drawn from one PCG64DXSM stream addressed by advance():
each uniform takes exactly one 64-bit word. Samples come in blocks of
_CHUNK_ROWS = 1024, and block b owns the fixed words
[b*1024*width, (b+1)*1024*width), column by column: word b*1024*width + j*1024 + r
holds slot column j of sample 1024*b + r. Serial, chunked, and threaded runs
and every prefix of n therefore agree bit for bit. Slots are grouped by member:
the c slots of a discrete member add sum_j n_j v_j over its atoms v_j, with the
counts drawn as sequential conditional binomials,

    n_0 ~ Bin(c, p_0),  n_j ~ Bin(c - n_0 - ... - n_{j-1}, p_j / (p_j + ... + p_last)),

each by the exact inverse CDF of one uniform (_binom_inverse, from the
binomial kernel the solvers' tails share), and the last atom taking the rest.
A Pareto slot takes one uniform of its own. The columns are (atoms - 1) per
discrete group, then one per Pareto slot in slot order, with no padding.
The sum has a fixed order: each discrete group's counts times its atoms
first, then the Pareto columns _CHUNK_COLS = 256 at a time, each chunk mapped
in place, summed column by column and added to the running totals.
count_at_least counts sums at or above a threshold on the same draws, but a
block stops drawing once its totals provably clear it, counting in the least
its undrawn slots can add (see count_at_least).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np
from numpy.random import PCG64DXSM, Generator
from scipy.special import gammaln
# The boost ufuncs that scipy's binom distribution calls, used directly because
# importing its stats package is most of rbl's cold start;
# tests/test_sum_law.py pins binom_window, binom_sf and _binom_inverse to it
# bit for bit.
from scipy.special._ufuncs import _binom_cdf, _binom_pmf, _binom_ppf, _binom_sf

from .ambiguity import MemberDist, ParetoDist, ThreePointDist, TwoPointDist
from .errors import RobustBundlingError, check_count

# Total probability mass may drift at most this far from 1.
MASS_TOL = 1e-10
# Exact product laws are desk-scale only.
MAX_FACTORS = 20
# Support points closer than this are merged during convolution.
MERGE_TOL = 1e-12
# A Monte Carlo block holds _CHUNK_ROWS samples and draws at most _CHUNK_COLS
# slot columns (2 MB of 64-bit words) at a time, so a chunk stays in cache.
_CHUNK_ROWS = 1024
_CHUNK_COLS = 256
# k per block of the exact law's log-weights (64 KB per temporary).
_BLOCK = 8192


def check_unit_mass(probs: np.ndarray, law: str, **at) -> None:
    """Raise unless probs sums to 1 within MASS_TOL: an exact law refuses,
    rather than renormalizes, a drifted mass. The message names the law and
    the parameters it was built at."""
    total = float(np.sum(probs))
    if abs(total - 1.0) > MASS_TOL:
        where = ", ".join(f"{k}={v!r}" for k, v in at.items())
        raise RobustBundlingError(f"{law} mass drifted to {total!r}"
                                  + (f" at {where}" if at else ""))


@dataclass(frozen=True)
class SumLaw:
    """Distribution of a sum: ascending support with matching probabilities."""

    support: np.ndarray
    probs: np.ndarray
    log_probs: Optional[np.ndarray] = None


_LOG_2PI = float(np.log(2.0 * np.pi))
# Stirling-series coefficients for lgamma(n+1) - (n+1/2)log n + n - log(2 pi)/2
_STIRLERR_S = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0,
               1.0 / 1188.0)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=np.float64)
    out = np.empty_like(n)
    small = n < 16.0
    ns = n[small]
    out[small] = gammaln(ns + 1.0) - ((ns + 0.5) * np.log(ns) - ns
                                      + 0.5 * _LOG_2PI)
    nb = n[~small]
    nn = nb * nb
    s0, s1, s2, s3, s4 = _STIRLERR_S
    out[~small] = (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / nb
    return out


def _bd0(x: np.ndarray, np_: np.ndarray) -> np.ndarray:
    """Binomial deviance x log(x/np) + np - x without cancellation near x = np."""
    x = np.asarray(x, dtype=np.float64)
    np_ = np.broadcast_to(np.asarray(np_, dtype=np.float64), x.shape)
    out = np.empty_like(x)
    near = np.abs(x - np_) < 0.1 * (x + np_)
    xd, nd = x[~near], np_[~near]
    out[~near] = xd * np.log(xd / nd) + nd - xd
    xs, ns = x[near], np_[near]
    v = (xs - ns) / (xs + ns)
    s = (xs - ns) * v
    ej = 2.0 * xs * v
    v2 = v * v
    for j in range(1, 40):  # |v| < 0.1, so the tail shrinks by >= 100x per term
        ej = ej * v2
        s_new = s + ej / (2 * j + 1)
        if np.array_equal(s_new, s):
            break
        s = s_new
    out[near] = s
    return out


def _log_weights(m: int, alpha: float) -> np.ndarray:
    """log of C(m,k) alpha^(m-k) (1-alpha)^k for k = 0..m.

    Interior terms use the saddle-point (deviance) form of the binomial pmf:
    three raw lgamma values near m log m share an absolute rounding error of
    order 1e-9 at m = 1e6, which shifts the whole law coherently and breaks
    the 1e-10 mass invariant, while the deviance form only ever combines
    small corrections and keeps each weight accurate in relative terms.

    The interior is evaluated _BLOCK k at a time, so its temporaries stay in
    cache (at m = 1e6 one pass over every k allocates 8 MB per step). Each
    weight keeps the bits of a single pass over all k: every operation is
    elementwise, and _bd0's series, whose terms share one sign and shrink,
    stops adding to a block once no term changes any of its elements; a
    term that leaves an element unchanged leaves it unchanged under every
    later, smaller term too, so an element gets the same sum whether its
    loop exits with its block or with the whole interior.
    """
    u = 1.0 - alpha  # exact subtraction for alpha >= 0.5
    log_alpha = np.log(alpha) if alpha < 0.5 else np.log1p(-u)
    out = np.empty(m + 1)
    out[0] = m * log_alpha
    out[m] = m * np.log(u)
    stirlerr_m = float(_stirlerr(np.float64(m)))
    for lo in range(1, m, _BLOCK):
        k = np.arange(lo, min(lo + _BLOCK, m), dtype=np.float64)
        mk = m - k
        out[lo:lo + k.size] = (
            0.5 * np.log(m / (2.0 * np.pi * k * mk))
            + stirlerr_m - _stirlerr(k) - _stirlerr(mk)
            - _bd0(k, m * u) - _bd0(mk, m * alpha)
        )
    return out


def iid_two_point_sum(dist: TwoPointDist, m: int) -> SumLaw:
    """Exact law of the sum of m i.i.d. copies of a two-point value."""
    check_count(m)
    k = np.arange(m + 1)
    support = (m - k) * dist.x + k * dist.y
    logp = _log_weights(m, dist.alpha)
    probs = np.exp(logp)
    check_unit_mass(probs, "sum-law", m=m, alpha=dist.alpha)
    return SumLaw(support=support, probs=probs, log_probs=logp)


def product_sum(dists: Sequence[TwoPointDist]) -> SumLaw:
    """Exact convolution of independent two-point values sharing one spec."""
    if len(dists) == 0:
        raise RobustBundlingError("need at least one factor")
    if len(dists) > MAX_FACTORS:
        raise RobustBundlingError(
            f"{len(dists)} factors exceeds the cap of {MAX_FACTORS}")
    spec = dists[0].spec
    for d in dists[1:]:
        if d.spec != spec:
            raise RobustBundlingError("all factors must share one mean/MAD spec")

    support = np.array([0.0])
    probs = np.array([1.0])
    for d in dists:
        new_support = (support[:, None] + np.array([d.x, d.y])[None, :]).ravel()
        new_probs = (probs[:, None] * np.array([d.alpha, 1.0 - d.alpha])[None, :]).ravel()
        order = np.argsort(new_support, kind="stable")
        new_support = new_support[order]
        new_probs = new_probs[order]
        # a point within MERGE_TOL of the one before joins its run, and each
        # run's mass is summed in ascending order
        fresh = np.r_[True, np.diff(new_support) > MERGE_TOL]
        support = new_support[fresh]
        probs = np.bincount(np.cumsum(fresh) - 1, weights=new_probs)

    check_unit_mass(probs, "product-law")
    return SumLaw(support=support, probs=probs)


def tail_prob(law: SumLaw, p: float) -> float:
    """P(Y >= p), inclusive at support points."""
    idx = int(np.searchsorted(law.support, p, side="left"))
    return float(np.sum(law.probs[idx:]))


def binom_sf(k, n, p):
    """P(Bin(n, p) > k) for integral n >= 0 and p in [0, 1], broadcast like a
    ufunc; the same bits and edges as scipy's binom.sf: 1 for k < 0, 0 for
    k >= n, else the survival at floor(k) clipped to [0, 1]."""
    k = np.floor(k)
    out = np.where(k < 0.0, 1.0,
                   np.where(k >= n, 0.0, np.clip(_binom_sf(k, n, p), 0.0, 1.0)))
    return out[()]


def binom_window(lo: int, hi: int, n, p) -> tuple[np.ndarray, float]:
    """(P(Bin(n, p) = k) for k = lo..hi, P(Bin(n, p) > hi)) for integral
    0 <= lo <= hi <= n and p in [0, 1]: the bits of scipy's binom.pmf and
    binom.sf at those points, from one pmf call over the window and one
    scalar survival call, with no edge masks (no k there can reach them)."""
    pmf = _binom_pmf(np.arange(lo, hi + 1.0), n, p).clip(0.0, 1.0)
    return pmf, (_binom_sf(hi, n, p).clip(0.0, 1.0) if hi < n else 0.0)


def _binom_inverse(u: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """Smallest k in [0, n] with P(Bin(n, q) <= k) >= u, elementwise over u and n.

    q is clipped to [0, 1], and a degenerate q gives its one value for every u,
    so an atom of zero mass is never drawn. u lies in [0, 1), so Boost's
    quantile needs no edge masks, only the clip into [0, n].
    """
    if q <= 0.0:
        return np.zeros_like(n)
    if q >= 1.0:
        return n.copy()
    return np.clip(_binom_ppf(u, n, q), 0.0, n)


def _atom_counts(u: np.ndarray, c: int, cond: Sequence[float]) -> np.ndarray:
    """Atom counts among c slots, one row per sample.

    Column j of u draws atom j's count from the slots left after atoms 0..j-1,
    with conditional mass cond[j]; the last atom takes the rest.
    """
    counts = np.empty((u.shape[0], len(cond) + 1))
    left = np.full(u.shape[0], float(c))
    for j, q in enumerate(cond):
        counts[:, j] = _binom_inverse(u[:, j], left, q)
        left -= counts[:, j]
    counts[:, -1] = left
    return counts


@dataclass(frozen=True)
class _Plan:
    """How one call lays out and maps its uniforms. A block of _CHUNK_ROWS
    samples owns width * _CHUNK_ROWS words of the PCG64DXSM stream, column by
    column: first len(cond) columns per discrete group (slot count c, atom
    values, conditional masses cond), then one column per Pareto slot in slot
    order, mapped in chunks of at most _CHUNK_COLS columns (-1/a and the
    scale as columns over the chunk's slots, which set its width). The
    stages are the discrete groups, then the Pareto chunks; floors[i] is the
    least stages i.. add to a total, c * min(atoms) per group and the sum of
    the scales per chunk, with floors[-1] = 0. floors is None when a stage
    can add less than 0, which turns count_at_least's stop off."""

    width: int
    discrete: tuple[tuple[int, tuple[float, ...], tuple[float, ...]], ...]
    pareto: tuple[tuple[np.ndarray, np.ndarray], ...]
    floors: Optional[tuple[float, ...]]


def _conditional_masses(probs: Sequence[float]) -> tuple[float, ...]:
    # atom j's mass given that none of atoms 0..j-1 was drawn; the tail sum
    # makes it exactly 1 when only zero-mass atoms follow
    return (probs[0],) + tuple(probs[j] / sum(probs[j:]) if probs[j] > 0.0 else 0.0
                               for j in range(1, len(probs) - 1))


def _plan(members: Sequence[MemberDist], m: int) -> _Plan:
    groups: dict[int, list] = {}  # discrete groups by member identity
    neg_inv_a, scale = [], []
    for dist in (members if len(members) == m else list(members) * m):
        if isinstance(dist, ParetoDist):
            neg_inv_a.append(-1.0 / dist.a)
            scale.append(dist.scale)
        else:
            groups.setdefault(id(dist), [dist, 0])[1] += 1
    discrete = []
    for dist, c in groups.values():
        if isinstance(dist, TwoPointDist):
            points, probs = (dist.x, dist.y), (dist.alpha, 1.0 - dist.alpha)
        elif isinstance(dist, ThreePointDist):
            points, probs = dist.points, dist.probs
        else:
            raise RobustBundlingError(f"cannot sample member {dist!r}")
        discrete.append((c, tuple(points), _conditional_masses(probs)))
    chunks = [(neg_inv_a[lo:lo + _CHUNK_COLS], scale[lo:lo + _CHUNK_COLS])
              for lo in range(0, len(scale), _CHUNK_COLS)]
    pareto = tuple((np.array(a)[:, None], np.array(sc)[:, None])
                   for a, sc in chunks)
    # np.min, unlike min, keeps a NaN atom, and NaN >= 0 is false
    stage = ([c * float(np.min(points)) for c, points, _ in discrete]
             + [sum(sc) for _, sc in chunks])
    floors = (tuple(accumulate(reversed(stage), initial=0.0))[::-1]
              if all(f >= 0.0 for f in stage) else None)
    width = sum(len(cond) for _, _, cond in discrete) + len(scale)
    return _Plan(width=width, discrete=tuple(discrete), pareto=pareto,
                 floors=floors)


def _block_stages(plan: _Plan, seed: int, start: int, rows: int):
    """Running totals of samples start..start+rows-1 (one block) before any
    draw and after each stage, in the summation order of the module
    docstring: one array, updated in place, ending as the sums."""
    total = np.zeros(rows)
    yield total
    bg = PCG64DXSM(seed)
    bg.advance(start * plan.width)
    gen = Generator(bg)
    buf = np.empty((min(_CHUNK_COLS, plan.width), _CHUNK_ROWS))
    for c, points, cond in plan.discrete:
        u = buf[:len(cond)]
        gen.random(out=u)
        counts = _atom_counts(u[:, :rows].T, c, cond)
        for j, v in enumerate(points):
            total += counts[:, j] * v
        yield total
    for neg_inv_a, scale in plan.pareto:
        u = buf[:len(scale)]
        gen.random(out=u)
        # Pareto slots: scale * (1 - u)^(-1/a), in place
        cont = u[:, :rows]
        np.subtract(1.0, cont, out=cont)
        np.power(cont, neg_inv_a, out=cont)
        np.multiply(cont, scale, out=cont)
        total += cont.sum(axis=0)
        yield total


def _block_count(plan: _Plan, seed: int, start: int, rows: int,
                 threshold: float) -> int:
    """How many sums of one block are >= threshold: all rows once the least
    running total provably clears it (see count_at_least)."""
    stages = _block_stages(plan, seed, start, rows)
    # 1 - (width + stages + 2) * 2^-52; floors has stages + 1 entries
    keep = 1.0 - (plan.width + len(plan.floors or ()) + 1) * 2.0**-52
    for floor, total in zip(plan.floors or (), stages):
        lo = total.min()
        if lo >= threshold or (lo + floor) * keep >= threshold:
            return rows
    for total in stages:
        pass
    return int(np.count_nonzero(total >= threshold))


def _plan_checked(members: Sequence[MemberDist], m: int, seed: int, n: int) -> _Plan:
    check_count(m)
    if len(members) not in (1, m):
        raise RobustBundlingError(f"got {len(members)} members for m={m} slots")
    check_count(n, "n")
    check_count(seed, "seed", 0)
    return _plan(members, m)


def _map_blocks(fn, n: int, workers: int) -> list:
    """fn(start, rows) for each block of _CHUNK_ROWS samples, in block order."""
    starts = range(0, n, _CHUNK_ROWS)
    if workers > 1 and len(starts) > 1:
        # one thread per block at most: --threads has no upper limit
        with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            futures = [pool.submit(fn, s, min(_CHUNK_ROWS, n - s)) for s in starts]
            return [f.result() for f in futures]
    return [fn(s, min(_CHUNK_ROWS, n - s)) for s in starts]


def sample_sum(
    members: Sequence[MemberDist],
    m: int,
    seed: int,
    n: int,
    workers: int = 1,
) -> np.ndarray:
    """Draw n realizations of the sum of m independent item values.

    members has length 1 (i.i.d.) or m (one per slot). seed is any
    non-negative integer. Samples come in blocks of _CHUNK_ROWS; block b
    reads the fixed words [b*_CHUNK_ROWS*width, (b+1)*_CHUNK_ROWS*width) of
    the PCG64DXSM stream, one 64-bit word per uniform, laid out column by
    column, so results do not depend on n, chunking or worker count. Slots
    sharing one discrete member are drawn as atom counts and added first;
    Pareto slots are drawn one by one, _CHUNK_COLS columns per chunk, and
    each chunk's column sum is added to the totals in slot order.
    """
    plan = _plan_checked(members, m, seed, n)
    return np.concatenate(_map_blocks(
        lambda s, rows: list(_block_stages(plan, seed, s, rows))[-1], n, workers))


def count_at_least(
    members: Sequence[MemberDist],
    m: int,
    seed: int,
    n: int,
    threshold: float,
    workers: int = 1,
) -> int:
    """How many of sample_sum(members, m, seed, n) are >= threshold.

    The same blocks and the same bits, but a block counts all its rows and
    draws no more once its least running total T, before any draw or after
    a stage, has reached the threshold, or T + F does by a margin:
    (T + F) * (1 - (width + stages + 2) * 2^-52) >= threshold, F being the
    floor of the stages left (c * min(atoms) per discrete group, the scales
    per Pareto chunk). Both rules are exact while every floor is >= 0; a
    negative atom turns the stop off. Every later term is a non-negative
    double: a Pareto leaf scale * (1 - u)^(-1/a) is at least scale, pow of a
    base in (0, 1] to a negative power being within an ulp of a value >= 1,
    and a group adds sum_j counts_j * v_j >= c * min(v). Adding one never
    lowers a rounded total (rule one), and each add or count-times-atom
    product loses at most a relative 2^-53 (none below the normal range).
    At most width + stages + 1 such roundings separate T and the later terms
    from the final sum, and the float F exceeds the exact floor by at most
    width + stages; the margin covers both and the rounding of T + F, so the
    final sum is at least the real (T + F) * (1 - margin), hence at least
    its rounding (rule two).
    """
    plan = _plan_checked(members, m, seed, n)
    return sum(_map_blocks(
        lambda s, rows: _block_count(plan, seed, s, rows, threshold), n, workers))
