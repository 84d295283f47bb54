"""Exact revenue-optimal deterministic menus for a handful of items.

A deterministic truthful mechanism for one additive buyer is a priced-bundle menu,
so the optimum is found by enumerating menus whose prices come from the grid of
achievable bundle values. Assignments are pruned to price-monotone menus: an entry
priced above a superset by more than the buyer's tie tolerance can never be chosen,
and the menu without it is enumerated anyway. Buyers pick the utility-maximizing
entry (`MenuMechanism.choices`); ties resolve for the seller (highest price, then
the larger bundle, then the lowest bitmask). Every utility comparison is relative
to the value scale: its tolerance is TIE_TOL times the members' largest mean, so
the search, its menu count and revenue / mu do not depend on the units of mu and
d. Caps keep the search desk-scale: three items in full generality, four when
prices may only depend on bundle size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .ambiguity import TwoPointDist
from .errors import RobustBundlingError
from .sum_law import MASS_TOL, binom_window

# Utility ties, relative to the members' largest mean.
TIE_TOL = 1e-9
FULL_CAP = 3
SYMMETRIC_CAP = 4
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BidLattice:
    """All bid vectors v in prod {x_i, y_i} with their product-law masses and
    the utility tie tolerance at their scale."""

    m: int
    values: np.ndarray
    probs: np.ndarray
    tol: float


def _tie_tol(members: Sequence[TwoPointDist]) -> float:
    return TIE_TOL * max(d.spec.mu for d in members)


def bid_lattice(members: Sequence[TwoPointDist]) -> BidLattice:
    """Lattice of the 2^m profiles; bit i of the row index means item i high."""
    m = len(members)
    high = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    vals = np.where(high, [d.y for d in members], [d.x for d in members])
    mass = np.ones(1 << m)
    for i, d in enumerate(members):
        mass *= np.where(high[:, i], 1.0 - d.alpha, d.alpha)
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise RobustBundlingError(f"lattice mass drifted to {total!r}")
    return BidLattice(m=m, values=vals, probs=mass, tol=_tie_tol(members))


@dataclass(frozen=True)
class MenuMechanism:
    """Deterministic menu: (bundle bitmask, price) pairs, opt-out included."""

    m: int
    entries: tuple[tuple[int, float], ...]

    def _columns(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks, item bits (entries x m) and prices, checked against m items."""
        if self.m != m:
            raise RobustBundlingError(f"menu prices {self.m} items, got {m}")
        masks = [mask for mask, _ in self.entries]
        if not all(0 <= mask < 1 << m for mask in masks):
            raise RobustBundlingError(
                f"menu masks must lie in 0..{(1 << m) - 1}: {masks}")
        masks = np.array(masks, dtype=np.int64)
        items = (masks[:, None] >> np.arange(m)) & 1
        return masks, items, np.array([p for _, p in self.entries], dtype=float)

    def choices(self, lattice: BidLattice) -> np.ndarray:
        """Index of the entry each profile picks, under the module's tie rule."""
        masks, items, prices = self._columns(lattice.m)
        u = lattice.values @ items.T - prices
        tied = u >= (u.max(axis=1) - lattice.tol)[:, None]
        order = np.lexsort((masks, -items.sum(axis=1), -prices))
        return order[np.argmax(tied[:, order], axis=1)]

    def to_json_obj(self) -> list[dict]:
        return [
            {"bundle": [i for i in range(self.m) if (mask >> i) & 1],
             "price": price}
            for mask, price in self.entries
        ]


@dataclass(frozen=True)
class OracleResult:
    revenue: float
    witness: MenuMechanism
    menus_evaluated: int
    symmetric: bool


@dataclass(frozen=True)
class TruthfulnessReport:
    ok: bool
    first_violation: Optional[tuple[int, int]]
    worst_ic_gap: float
    worst_ir_gap: float


def menu_to_tables(menu: MenuMechanism,
                   lattice: BidLattice) -> tuple[np.ndarray, np.ndarray]:
    """Allocation/payment tables induced by utility-maximizing menu choice."""
    _, items, prices = menu._columns(lattice.m)
    pick = menu.choices(lattice)
    return items[pick], prices[pick]


def verify_truthful(z: np.ndarray, pi: np.ndarray,
                    lattice: BidLattice) -> TruthfulnessReport:
    """Check IC over all ordered report pairs and IR at every profile, up to
    the lattice's tie tolerance.

    first_violation is the first offending (v, w) in row-major scan; an IR
    violation at v reports the pair (v, v).
    """
    V = lattice.values
    U = V @ np.asarray(z, dtype=float).T - np.asarray(pi)[None, :]
    diag = np.diag(U).copy()
    worst_ic = float((U - diag[:, None]).max())
    worst_ir = float((-diag).max())
    ir = diag < -lattice.tol
    ic = U > (diag + lattice.tol)[:, None]
    rows = np.nonzero(ir | ic.any(axis=1))[0]
    first = None
    if rows.size:
        v = int(rows[0])
        first = (v, v) if ir[v] else (v, int(np.argmax(ic[v])))
    return TruthfulnessReport(ok=first is None,
                              first_violation=first,
                              worst_ic_gap=max(worst_ic, 0.0),
                              worst_ir_gap=max(worst_ir, 0.0))


def menu_revenue(menu: MenuMechanism, members: Sequence[TwoPointDist]) -> float:
    """Expected revenue, grouping profile masses by chosen entry before weighing."""
    lat = bid_lattice(members)
    take = np.bincount(menu.choices(lat), weights=lat.probs,
                       minlength=len(menu.entries))
    return float(sum(price * take[j] for j, (_, price) in enumerate(menu.entries)))


def _subset_floor(P: np.ndarray, sub_idx: np.ndarray) -> np.ndarray:
    """Highest price among already-assigned strict subsets (0 when none bind)."""
    n = P.shape[0]
    if sub_idx.size == 0 or P.shape[1] == 0:
        return np.zeros(n)
    A = P[:, sub_idx]
    A = np.where(np.isinf(A), -np.inf, A)
    return np.maximum(A.max(axis=1), 0.0)


def _expand(P: np.ndarray, opts: np.ndarray, lb: np.ndarray,
            tol: float) -> np.ndarray:
    """Cross partial menus with price options, keeping near-monotone rows."""
    out = []
    step = max(1, (1 << 22) // opts.size)
    for s in range(0, P.shape[0], step):
        block = P[s:s + step]
        keep = opts[None, :] >= (lb[s:s + step] - tol)[:, None]
        rows, cols = np.nonzero(keep)
        out.append(np.column_stack([block[rows], opts[cols]]))
    return np.vstack(out)


def _eval_block(L: np.ndarray, V: np.ndarray, mass: np.ndarray,
                tol: float) -> np.ndarray:
    """Revenue of each complete menu row (inf price = bundle absent)."""
    rev = np.zeros(L.shape[0])
    Lm = np.where(np.isinf(L), -np.inf, L)
    for t in range(V.shape[0]):
        U = V[t][None, :] - L
        umax = np.maximum(U.max(axis=1), 0.0)  # opt-out floors utility at 0
        tie = U >= (umax - tol)[:, None]
        ptied = np.where(tie, Lm, -np.inf).max(axis=1)
        rev += mass[t] * np.maximum(ptied, 0.0)
    return rev


def _search(V: np.ndarray, mass: np.ndarray, subs: list[np.ndarray],
            tol: float) -> tuple[np.ndarray, int]:
    """Best price row; column j's options are the achievable values up to its top."""
    G = np.unique(np.concatenate([[0.0], V.ravel()]))
    opts = [np.append(G[G <= V[:, j].max()], np.inf) for j in range(V.shape[1])]
    P = np.zeros((1, 0))
    for j in range(len(opts) - 1):
        P = _expand(P, opts[j], _subset_floor(P, subs[j]), tol)
    best_rev = -1.0
    best_row = None
    evaluated = 0
    for s in range(0, P.shape[0], _BLOCK_ROWS):
        block = P[s:s + _BLOCK_ROWS]
        L = _expand(block, opts[-1], _subset_floor(block, subs[-1]), tol)
        rev = _eval_block(L, V, mass, tol)
        evaluated += L.shape[0]
        i = int(np.argmax(rev))
        if rev[i] > best_rev:
            best_rev = float(rev[i])
            best_row = L[i].copy()
    return best_row, evaluated


def _full_problem(members):
    """Every nonempty bundle priced on its own, by size and then by mask."""
    lat = bid_lattice(members)
    m = len(members)
    masks = sorted(range(1, 1 << m), key=lambda mk: (mk.bit_count(), mk))
    Z = np.array([[(mk >> i) & 1 for i in range(m)] for mk in masks], dtype=float)
    V = lat.values @ Z.T
    subs = [
        np.array([i for i in range(j)
                  if masks[i] != masks[j] and (masks[i] & ~masks[j]) == 0],
                 dtype=int)
        for j in range(len(masks))
    ]
    return V, lat.probs, subs, [[mk] for mk in masks]


def _symmetric_problem(d0: TwoPointDist, m: int):
    """One price per bundle size s, shared by the size-s masks in
    `combinations` order."""
    mass = binom_window(0, m, m, 1.0 - d0.alpha)[0]
    # best size-s bundle for a profile with c high items takes the highs first
    V = np.array([[min(s, c) * d0.y + max(0, s - c) * d0.x
                   for s in range(1, m + 1)] for c in range(m + 1)])
    subs = [np.arange(j, dtype=int) for j in range(m)]
    groups = [[sum(1 << i for i in combo) for combo in combinations(range(m), s)]
              for s in range(1, m + 1)]
    return V, mass, subs, groups


def opt_deterministic(dists: Sequence[TwoPointDist], m: int,
                      symmetric: bool = False) -> OracleResult:
    """Best deterministic truthful mechanism against independent two-point values.

    dists has length 1 (i.i.d.) or m. With symmetric=True all items must be
    identical and prices depend only on bundle size, which stretches the cap
    from three items to four. The winner's revenue is recomputed exactly from
    grouped profile masses, so at m=1 the result equals max(x, (1-alpha) y)
    down to the last bit.
    """
    dists = list(dists)
    if m < 1:
        raise RobustBundlingError(f"need m >= 1, got {m}")
    for d in dists:
        if not isinstance(d, TwoPointDist):
            raise RobustBundlingError("menu oracle takes two-point members only")
    if len(dists) == 1:
        members = dists * m
    elif len(dists) == m:
        members = dists
    else:
        raise RobustBundlingError(f"got {len(dists)} members for m={m} items")

    if symmetric:
        if m > SYMMETRIC_CAP:
            raise RobustBundlingError(
                f"size-based menus cap at {SYMMETRIC_CAP} items, got {m}")
        d0 = members[0]
        for d in members[1:]:
            if (d.x, d.y, d.alpha) != (d0.x, d0.y, d0.alpha):
                raise RobustBundlingError("size-based pricing needs identical items")
        V, mass, subs, groups = _symmetric_problem(d0, m)
    else:
        if m > FULL_CAP:
            raise RobustBundlingError(
                f"full menu enumeration caps at {FULL_CAP} items, got {m}; "
                f"symmetric mode reaches {SYMMETRIC_CAP}")
        V, mass, subs, groups = _full_problem(members)
    row, evaluated = _search(V, mass, subs, _tie_tol(members))
    entries = [(0, 0.0)] + [(mask, float(price))
                            for price, group in zip(row, groups)
                            if not np.isinf(price) for mask in group]

    menu = MenuMechanism(m=m, entries=tuple(entries))
    revenue = menu_revenue(menu, members)
    if not revenue <= sum(d.spec.mu for d in members) * (1.0 + 1e-12):
        raise RobustBundlingError(
            f"menu revenue {revenue!r} exceeds the sum of the item means")
    return OracleResult(revenue=revenue, witness=menu,
                        menus_evaluated=evaluated, symmetric=symmetric)
