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
from .modules import RealizedModule, _search_order, lattice_coatoms, maximal_submodules

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
    optimal: bool
    nodes_explored: int
    time_ms: float

    @property
    def size(self) -> int | None:
        """The number of submodules when they cover M, else None."""
        return len(self.submodules) if self.is_cover else None

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


def _certificate(t0, submodules, is_cover, optimal, nodes) -> CoverCertificate:
    """The certificate of a construction that started at `t0`, timed now."""
    elapsed_ms = (time.perf_counter() - t0) * 1000
    return CoverCertificate(submodules, is_cover, optimal, nodes, elapsed_ms)


def sigma_formula(m: RealizedModule) -> SigmaPrediction:
    """min over S of |R/m|, plus one; None when S is empty.

    The witness is the module's `_witness`: ties break toward the ideal
    whose member bitmask is smallest, which is deterministic because ring
    elements are enumerated canonically.
    """
    _reject_zero(m)
    best = m._witness
    if best is None:
        return SigmaPrediction(None, None, None)
    return SigmaPrediction(best.residue_size + 1, best.ideal, best.residue_size)


def sigma_exact(
    m: RealizedModule, space: SearchSpace | str = SearchSpace.MAXIMAL_ONLY
) -> CoverCertificate:
    """Exact minimum cover by branch and bound over candidate submodules.

    `space` is a SearchSpace or its value ("maximal" or "all"); anything
    else raises ValueError.

    Every minimal cover can be refined to one using maximal submodules
    only, so MAXIMAL_ONLY already yields the true covering number;
    ALL_PROPER is the cross-check, and it reads its candidates off the
    submodule lattice, not off the hyperplanes: the lattice's coatoms
    (`lattice_coatoms`). A proper submodule that is not a coatom lies in
    a larger one, which sorts before it, and swapping it for that one
    leaves a cover of the same size that sorts earlier; so the first
    optimum among all proper submodules uses coatoms alone, and it is
    the first among them.

    The module's greedy maximal cover (`_greedy_seed`) is the incumbent, and
    the root's lower bound is checked against it before any candidate is
    built: a seed that meets it is returned as it stands, with no node
    explored, and neither space builds its candidates. Otherwise the
    candidates are sorted by (size descending, members bitmask) and the
    first optimum found in that order is returned; the seed is returned
    when no smaller cover exists. Either way the members are in that
    order. A node, U being the elements its picks leave uncovered, is cut
    when the candidates it may still pick miss part of U, or when the
    fewest of them whose gains on U can add up to |U| would make a cover
    no smaller than the incumbent; neither cut drops a smaller cover.
    """
    t0 = time.perf_counter()
    if not isinstance(space, SearchSpace):
        space = SearchSpace(space)
    _reject_zero(m)
    seed = m._greedy_seed
    if not seed:
        return _certificate(t0, (), False, True, 0)

    # the first pick gains the most over zero alone: it is a largest
    # maximal submodule, hence a largest proper one, and every candidate
    # misses zero, so each pick gains fewer than its size
    if -(-(m.size - 1) // (seed[0].size - 1)) >= len(seed):
        return _certificate(t0, tuple(sorted(seed, key=_search_order)), True, True, 0)

    if space is SearchSpace.MAXIMAL_ONLY:
        candidates = maximal_submodules(m)
    else:
        candidates = lattice_coatoms(m)
    candidates.sort(key=_search_order)
    masks = [s.members for s in candidates]
    n = len(masks)
    reach = [0] * (n + 1)  # reach[i]: the union of masks[i:]
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] | masks[i]
    best = None  # the picks of a cover smaller than the seed, once found
    best_len = len(seed)
    nodes = 0
    chosen = []

    def search(start, uncovered):
        nonlocal best, best_len, nodes
        if reach[start] & uncovered != uncovered:
            return
        depth = len(chosen)
        # a smaller cover makes at most room more picks, and each gains
        # at most its gain on U; room >= 0, since a pick is made only
        # while depth + 1 < best_len
        room = best_len - depth - 1
        gains = [(mask & uncovered).bit_count() for mask in masks[start:]]
        if sum(sorted(gains, reverse=True)[:room]) < uncovered.bit_count():
            return
        for i, gain in enumerate(gains, start):
            if not gain:
                continue
            if depth + 1 >= best_len:
                return
            nodes += 1
            if nodes > BNB_NODE_BUDGET:
                raise GuardExceeded(
                    "search-nodes", f"branch and bound exceeded {BNB_NODE_BUDGET} nodes"
                )
            chosen.append(i)
            rest = uncovered & ~masks[i]
            if rest:
                search(i + 1, rest)
            else:
                best, best_len = list(chosen), depth + 1
            chosen.pop()

    search(0, m.full_mask & ~1)  # zero is bit 0
    subs = (
        tuple(sorted(seed, key=_search_order))
        if best is None
        else tuple(candidates[i] for i in best)
    )
    return _certificate(t0, subs, True, True, nodes)


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
    vector space (the coordinates of the first two vectors u, w of the
    greedy basis of M/mM), and pulls back its q + 1 lines. Each pullback
    is a proper submodule and every element lands in some line, so the
    result is a cover of the predicted size.
    The lines are the module's `_formula_cover`, built once per module:
    the `hyperplanes` of the plane of w and u over mM and the rest of the
    basis, spanned by `_residue_span`, with R/m not built as a ring. When
    the witness has multiplicity 2 they are also that entry's maximal
    submodules, and `maximal_submodules` holds the same objects, so
    whichever of the two runs first builds them for both.
    """
    t0 = time.perf_counter()
    _reject_zero(m)
    covers = m._formula_cover
    if not covers:  # S is empty: M is cyclic
        return _certificate(t0, (), False, True, 0)
    ok = verify_cover(m, covers)
    return _certificate(t0, covers, ok, ok, 0)


def greedy_cover(m: RealizedModule) -> CoverCertificate:
    """Greedy maximal-submodule cover; an upper bound, not always optimal.
    It is the module's stored `_greedy_seed`."""
    t0 = time.perf_counter()
    _reject_zero(m)
    picks = m._greedy_seed
    return _certificate(t0, picks, bool(picks), False, 0)
