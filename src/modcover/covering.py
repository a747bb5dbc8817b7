"""Covering numbers of finite modules.

The covering number of a module is the least number of proper
submodules whose union is everything. Two independent computations live
here: a closed form driven by the residue fields at the maximal ideals
where the module needs at least two generators, and an exact
branch-and-bound search over the submodule lattice. A module no proper
submodules can cover (equivalently, a cyclic one) gets the sentinel
value None.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from .errors import GuardExceeded
from .modules import (
    RealizedModule,
    _pullback,
    _residue_basis,
    _span,
    all_submodules,
    ideal_action,
    maximal_submodules,
    s_set,
)

BNB_NODE_BUDGET = 10_000_000


class SearchSpace(Enum):
    MAXIMAL_ONLY = "maximal"
    ALL_PROPER = "all"


def _reject_zero(m: RealizedModule):
    if m.size == 1:
        raise ValueError("covering operations are undefined for the zero module")


@dataclass(frozen=True)
class SigmaPrediction:
    """Closed-form covering number; value None means not coverable."""

    value: int | None
    witness_ideal: object  # Ideal with the smallest residue field, or None
    residue_size: int | None

    @property
    def coverable(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class CoverCertificate:
    submodules: tuple  # of Submodule
    is_cover: bool
    size: int | None
    optimal: bool
    nodes_explored: int
    time_ms: float

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "is_cover": self.is_cover,
            "optimal": self.optimal,
            "nodes_explored": self.nodes_explored,
            "time_ms": round(self.time_ms, 3),
            "submodules": [
                {
                    "generators": [list(g) for g in s.generator_coords()],
                    "size": s.size,
                }
                for s in self.submodules
            ],
        }


def sigma_formula(m: RealizedModule) -> SigmaPrediction:
    """min over S of |R/m|, plus one; None when S is empty.

    Ties break toward the ideal whose member bitmask is smallest, which
    is deterministic because ring elements are enumerated canonically.
    """
    _reject_zero(m)
    entries = s_set(m)
    if not entries:
        return SigmaPrediction(None, None, None)
    best = min(entries, key=lambda e: (e.residue_size, e.ideal.members))
    return SigmaPrediction(best.residue_size + 1, best.ideal, best.residue_size)


def sigma_exact(
    m: RealizedModule,
    space: SearchSpace = SearchSpace.MAXIMAL_ONLY,
    node_budget: int = BNB_NODE_BUDGET,
) -> CoverCertificate:
    """Exact minimum cover by branch and bound over candidate submodules.

    Every minimal cover can be refined to one using maximal submodules
    only, so MAXIMAL_ONLY already yields the true covering number;
    ALL_PROPER is the cross-check. Deterministic: candidates are sorted
    by (size descending, members bitmask), and the first optimum found
    in that order is returned.
    """
    t0 = time.perf_counter()
    _reject_zero(m)
    if space is SearchSpace.MAXIMAL_ONLY:
        candidates = maximal_submodules(m)
    else:
        candidates = [s for s in all_submodules(m) if s.is_proper()]
    candidates.sort(key=lambda s: (-s.size, s.members))
    # Every proper submodule lies in a maximal one, so the greedy maximal
    # cover decides coverability in both spaces. It is also the seed a
    # greedy over all proper candidates would find: a non-maximal N with
    # the best gain lies in a maximal K, whose gain is at least N's and
    # which sorts before N, so that greedy picks the same maximal ones.
    greedy = greedy_cover(m)
    if not greedy.is_cover:
        return CoverCertificate(
            (), False, None, True, 0, (time.perf_counter() - t0) * 1000
        )

    full = m.full_mask
    masks = [s.members for s in candidates]
    n = len(masks)
    index = {mask: i for i, mask in enumerate(masks)}
    best_sel = [index[s.members] for s in greedy.submodules]
    best_len = len(best_sel)

    max_size = candidates[0].size
    nodes = 0

    def search(start, covered, chosen):
        nonlocal best_sel, best_len, nodes
        if covered == full:
            if len(chosen) < best_len:
                best_len = len(chosen)
                best_sel = list(chosen)
            return
        uncovered = (full & ~covered).bit_count()
        # every candidate misses zero, so each new pick gains < max_size
        bound = len(chosen) + -(-uncovered // (max_size - 1))
        if bound >= best_len:
            return
        for i in range(start, n):
            gain = masks[i] & ~covered
            if not gain:
                continue
            nodes += 1
            if nodes > node_budget:
                raise GuardExceeded(
                    "search-nodes", f"branch and bound exceeded {node_budget} nodes"
                )
            chosen.append(i)
            search(i + 1, covered | masks[i], chosen)
            chosen.pop()

    search(0, 1, [])  # zero is bit 0
    subs = tuple(candidates[i] for i in sorted(best_sel))
    return CoverCertificate(
        subs, True, best_len, True, nodes, (time.perf_counter() - t0) * 1000
    )


def verify_cover(m: RealizedModule, submodules) -> bool:
    """True when every submodule is proper and their union is all of M."""
    union = 0
    for s in submodules:
        if s.parent is not m or not s.is_proper():
            return False
        union |= s.members
    return union == m.full_mask


def construct_cover(m: RealizedModule) -> CoverCertificate:
    """Explicit optimal cover from the closed form, without search.

    Picks the witness ideal, maps M onto a two-dimensional residue
    vector space (first two coordinates of M/mM), and pulls back its
    q + 1 lines. Each pullback is a proper submodule and every element
    lands in some line, so the result is a cover of the predicted size.
    In the basis u, w, rest of M/mM the line through dx u + dy w pulls
    back to the hyperplane spanned by mM, rest and that vector.
    """
    t0 = time.perf_counter()
    _reject_zero(m)
    pred = sigma_formula(m)
    if not pred.coverable:
        return CoverCertificate(
            (), False, None, True, 0, (time.perf_counter() - t0) * 1000
        )
    ideal = pred.witness_ideal
    nm = ideal_action(m, ideal)
    field, field_lift, basis = _residue_basis(m, ideal, nm)
    u, w, rest = basis[0], basis[1], basis[2:]
    start = _span(m, rest, nm.members)
    # the lines {y = c x} for each scalar c, then {x = 0}
    q = field.size
    directions = [m.add(u, m.act(field_lift(c), w)) for c in field.iter_elements()] + [w]
    covers = [_pullback(m, start, [d]) for d in directions]
    if len(covers) != q + 1:
        raise AssertionError(f"{len(covers)} lines through the origin of F_{q}^2")
    ok = verify_cover(m, covers)
    return CoverCertificate(
        tuple(covers), ok, q + 1 if ok else None, ok, 0,
        (time.perf_counter() - t0) * 1000,
    )


def greedy_cover(m: RealizedModule) -> CoverCertificate:
    """Greedy maximal-submodule cover; an upper bound, not always optimal."""
    t0 = time.perf_counter()
    _reject_zero(m)
    candidates = maximal_submodules(m)
    candidates.sort(key=lambda s: (-s.size, s.members))
    full = m.full_mask
    union = 0
    for s in candidates:
        union |= s.members
    if union != full:
        return CoverCertificate(
            (), False, None, False, 0, (time.perf_counter() - t0) * 1000
        )
    chosen = []
    covered = 1  # zero is bit 0
    while covered != full:
        best = max(candidates, key=lambda s: (s.members & ~covered).bit_count())
        chosen.append(best)
        covered |= best.members
    return CoverCertificate(
        tuple(chosen), True, len(chosen), False, 0,
        (time.perf_counter() - t0) * 1000,
    )

