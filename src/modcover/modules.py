"""Finitely presented modules over a FiniteRing, realized as explicit
finite structures.

A realized module stores its additive invariant factors plus the action
of the ring's additive basis on the module's additive basis; everything
else is the bilinear extension. Its arithmetic, element indices, action,
spans, greedy generating sets and quotients (`realize` quotients R^k,
read through R's basis rows) are those of `rings._Coordinates`, which a
ring shares as a module over itself. Elements are integer coordinate
tuples, indexed by `rings._Coordinates`; no element list is stored.
Quotients come back as ``(quotient, project, lift)`` maps, not as sweeps
over M. A submodule is its members mask, and every generating set is
greedy in M's element order: a submodule's, derived when first read,
and each basis of M/mM, over mM. All values are immutable after
construction, so each module keeps its semisimple invariants, maximal
submodules, cyclicity, the greedy cover that seeds the exact search,
the formula's witness and the q + 1 lines of its cover as cached
properties, formed when first read.

The residue layer works in M/mM's own terms, and reads R/m's coordinates
off m itself, a `LocalFactor`, with no residue ring built: mM is the
additive span of the multiples a·e_t read off the module table, for a
over the additive generators that m keeps (`ideal_action`); a span over
a mask that contains mM is the additive closure of the vectors v and of
the b_i·v over R/m's span columns, which over F_p are none
(`_residue_span`); and the multiples c·u over R/m are each one `combine`
of the f vectors b_i·u over its residue columns (`_field_multiples`).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property

from ._fp import combine
from .errors import GuardExceeded
from .rings import (
    FiniteRing,
    Ideal,
    LocalFactor,
    _Coordinates,
    _direct_sum_table,
    _greedy,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    power_exceeds,
    quotient_ring,
)

REALIZE_INTERMEDIATE_GUARD = 2**20
LATTICE_GUARD = 256
LATTICE_COUNT_BUDGET = 20000


def module_size_guard() -> int:
    """`MODCOVER_MAX_MODULE`, read from the environment on each call, since
    it may change between calls; each distinct text is parsed once."""
    return _parse_module_guard(os.environ.get("MODCOVER_MAX_MODULE", "4096"))


@cache
def _parse_module_guard(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"MODCOVER_MAX_MODULE must be an integer >= 1, got {text!r}")


@dataclass(frozen=True)
class ModulePresentation:
    ring: FiniteRing
    num_generators: int
    relations: tuple  # each a num_generators-tuple of ring coordinate tuples

    def __post_init__(self):
        k = self.num_generators
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError(f"generator count {k!r} is not an int >= 0")
        r = self.ring.rank
        for rel in self.relations:
            if not isinstance(rel, tuple) or len(rel) != self.num_generators:
                raise ValueError("relation arity does not match generator count")
            for c in rel:
                ints = isinstance(c, tuple) and all(isinstance(v, int) for v in c)
                if not ints or len(c) != r:
                    raise ValueError(f"relation entry {c!r} is not a tuple of {r} ints")

    @classmethod
    def diagonal(cls, ring: FiniteRing, annihilators) -> ModulePresentation:
        """⊕_j R/(a_j) for scalars a_j: one generator per a_j, killed by it."""
        k = len(annihilators)
        rels = tuple(
            tuple(ring.reduce(a) if j == i else ring.zero for j in range(k))
            for i, a in enumerate(annihilators)
        )
        return cls(ring, k, rels)

    def direct_sum(self, other: ModulePresentation) -> ModulePresentation:
        """The block-diagonal presentation of the direct sum: the
        generators of `self`, then those of `other`, each relation padded
        with zeros on the other block."""
        if not _same_ring(self.ring, other.ring):
            raise ValueError("direct sum requires presentations over the same ring")
        zero_a = (self.ring.zero,) * self.num_generators
        zero_b = (self.ring.zero,) * other.num_generators
        rels = tuple(rel + zero_b for rel in self.relations) + tuple(
            zero_a + rel for rel in other.relations
        )
        return ModulePresentation(self.ring, self.num_generators + other.num_generators, rels)

    def to_dsl(self) -> str:
        def coord(c):
            return str(c[0]) if len(c) == 1 else "(" + ",".join(map(str, c)) + ")"

        rels = ", ".join(
            "(" + ",".join(coord(c) for c in rel) + ")" for rel in self.relations
        )
        return f"module over {self.ring.label}: gens={self.num_generators}; rels=[{rels}]"


class RealizedModule(_Coordinates):
    """A module over `ring`: its invariant factors and the action of the
    ring basis on its own. Its derived facts are cached properties, formed
    when first read, which `semisimple_invariants`, `maximal_submodules`,
    `is_cyclic`, the cover search and `construct_cover` read."""

    def __init__(self, ring, orders, table, presentation=None, label=None):
        orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in orders):
            raise ValueError("module invariant factors must be >= 2")
        size, guard = math.prod(orders), module_size_guard()
        if size > guard:
            raise GuardExceeded("module-size", f"|M| = {size} exceeds guard {guard}")
        self.label = label or (presentation.to_dsl() if presentation else "module")
        # table[i][t] = coords of (ring basis b_i) . (module basis e_t)
        super().__init__(orders, table, ring.rank)
        self.ring = ring
        self.presentation = presentation

    act = _Coordinates._product

    # -- derived facts -------------------------------------------------------

    @cached_property
    def _semisimple_invariants(self) -> tuple:
        return tuple(_residue_dimensions(self))

    @cached_property
    def _maximal_submodules(self) -> tuple:
        """The hyperplane pullbacks of each M/mM, sorted by members. When
        the formula's witness has multiplicity 2, the plane of
        `_formula_cover` is all of M/mM and its start is mM, so its q + 1
        lines are that entry's hyperplanes: they are read, not built
        again, and the cover of `construct_cover` holds the same objects."""
        out = []
        for e in semisimple_invariants(self):
            if e.multiplicity == 2 and e is self._witness:
                out += self._formula_cover
            else:
                out += hyperplanes(self, e, e.nm, e.basis)
        out.sort(key=lambda s: s.members)
        return tuple(out)

    @cached_property
    def _witness(self) -> SemisimpleEntry | None:
        """The entry of S whose residue field is smallest, ties broken
        toward the ideal whose members mask is smallest, which is
        deterministic because ring elements are enumerated canonically;
        None when S is empty. `sigma_formula` reads σ(M) off it, and
        `_formula_cover` the lines that cover M."""
        return min(s_set(self), key=lambda e: (e.residue_size, e.ideal.members), default=None)

    @cached_property
    def _formula_cover(self) -> tuple:
        """The q + 1 lines of one plane of M/mM, for m the formula's
        witness (`_witness`), pulled back to M, or () when S is empty:
        the cover of `construct_cover`. In the basis u, w, rest of M/mM
        the line through dx u + dy w pulls back to the hyperplane spanned
        by mM, rest and that vector, so the lines are the `hyperplanes` of
        the plane of w and u over the `_residue_span` of rest over mM."""
        entry = self._witness
        if entry is None:
            return ()
        u, w, *rest = entry.basis
        # the lines through u + c w for each scalar c, then the line through w
        start = _residue_span(self, entry.ideal)(rest, entry.nm)
        return tuple(hyperplanes(self, entry, start, (w, u)))

    @cached_property
    def _cyclic(self) -> tuple:
        """(True, the least index in no maximal submodule), or (False, None)."""
        rest = self.full_mask
        for s in maximal_submodules(self):
            rest &= ~s.members
        if rest:
            return True, self.element((rest & -rest).bit_length() - 1)
        return False, None

    @cached_property
    def _greedy_seed(self) -> tuple:
        """The greedy cover by maximal submodules, in pick order, or ()
        when they do not cover M: the incumbent of `sigma_exact` in both
        spaces and the cover of `greedy_cover`."""
        return _greedy_picks(self)

    def axiom_check(self):
        """Check the module laws exactly, by `check_laws` over `ring`;
        raises ValueError naming the first law that fails. Realized,
        quotient, direct-sum and localized modules are modules by
        construction, so the constructor does not run it."""
        self.check_laws(self.ring)

    def __repr__(self):
        return f"RealizedModule({self.label}, |M|={self.size})"


# -- realization ------------------------------------------------------------


def realize(pres: ModulePresentation) -> RealizedModule:
    """Materialize R^k modulo the relation submodule, by `quotient` over
    R^k's coordinates, k blocks of R's: R^k's basis rows are R's, shifted
    into each block, so R^k's table is never built.

    R^k is never enumerated, but the Smith normal form over R^k has no
    modular reduction and its entries can grow exponentially, so |R|^k
    is capped before it runs.
    """
    ring = pres.ring
    k = pres.num_generators
    if power_exceeds(ring.size, k, REALIZE_INTERMEDIATE_GUARD):
        raise GuardExceeded(
            "realize-intermediate",
            f"|R|^k = {ring.size}^{k} exceeds guard {REALIZE_INTERMEDIATE_GUARD}",
        )
    r = ring.rank
    rows = ring.rows
    if k != 1:
        rows = [
            [tuple((s + j * r, v) for s, v in entries) for j in range(k) for entries in row]
            for row in rows
        ]
    gens = [sum(rel, ()) for rel in pres.relations]
    orders, table, _, _ = _Coordinates.quotient(ring.orders * k, rows, gens)
    return RealizedModule(ring, orders, table, presentation=pres)


def free_module(ring: FiniteRing, k: int) -> RealizedModule:
    return realize(ModulePresentation(ring, k, ()))


def cyclic_sum(ring: FiniteRing, annihilators) -> RealizedModule:
    """⊕_j R/(a_j) for scalars a_j, as a diagonal presentation."""
    return realize(ModulePresentation.diagonal(ring, annihilators))


def _same_ring(r: FiniteRing, s: FiniteRing) -> bool:
    """Whether r and s are one ring: the same object, or the same table,
    whatever their labels."""
    return r is s or (
        r.orders == s.orders and r.table == s.table and r.one == s.one
    )


def direct_sum(a: RealizedModule, b: RealizedModule) -> RealizedModule:
    if not _same_ring(a.ring, b.ring):
        raise ValueError("direct sum requires modules over the same ring")
    ring = a.ring
    orders = a.orders + b.orders
    table = _direct_sum_table(a.table, b.table, a.zero, b.zero)
    pres = None
    if a.presentation is not None and b.presentation is not None:
        pres = a.presentation.direct_sum(b.presentation)
    return RealizedModule(
        ring, orders, table, presentation=pres, label=f"({a.label}) (+) ({b.label})"
    )


# -- submodules -----------------------------------------------------------------


@dataclass(frozen=True)
class Submodule:
    parent: RealizedModule
    members: int  # bitmask over the parent's element indices

    @cached_property
    def generators(self) -> tuple:
        """Element indices whose closure is `members`: the greedy ones."""
        return submodule_generators(self.parent, self.members)

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def is_proper(self) -> bool:
        return self.members != self.parent.full_mask

    def generator_coords(self):
        return tuple(self.parent.element(i) for i in self.generators)

    def __repr__(self):
        return f"Submodule(gens={self.generator_coords()}, size={self.size})"


def submodule_generated(m: RealizedModule, gen_indices) -> Submodule:
    return Submodule(m, m.span([m.element(g) for g in gen_indices]))


def submodule_generators(m: RealizedModule, members: int) -> tuple:
    """Greedy generating set (element indices) of the submodule `members`;
    see `_Coordinates.greedy`."""
    return m.greedy(members)


def all_submodules(m: RealizedModule) -> list:
    """Every submodule, as every AND of one mask per interval of
    `_intervals`: that AND is the join of the eN, and it costs no
    closure.

    Guarded both by |M| and by a lattice-size budget: some semisimple
    modules within the size guard still have astronomically many
    submodules. The lattice has Π (interval sizes) members, so the budget
    trips, before the AND pass, exactly when that product exceeds
    `LATTICE_COUNT_BUDGET`; an interval past it trips during its own walk.
    """
    intervals = _intervals(m)
    if math.prod(map(len, intervals)) > LATTICE_COUNT_BUDGET:
        raise _lattice_count_exceeded()
    lattice = [m.full_mask]
    for interval in intervals:
        lattice = [a & b for a in lattice for b in interval]
    out = [Submodule(m, mask) for mask in lattice]
    out.sort(key=lambda s: (s.size, s.members))
    return out


def lattice_coatoms(m: RealizedModule) -> list:
    """The coatoms of the submodule lattice, read off the intervals of
    `_intervals` with no product lattice, sorted by members.

    The lattice is the product of the intervals, each topped by M, so its
    coatoms are the masks that are M in every interval but one, and a
    coatom of that one: the union of the intervals' coatoms. Each
    interval is scanned by size, largest first, and a mask other than M
    is kept when no coatom kept so far contains it. Every other mask lies
    under a larger coatom, found before it, and a coatom lies under no
    other, so the scan reads each mask once against the coatoms found.

    Guarded like the walk: by |M| and, per interval, by the lattice-size
    budget `LATTICE_COUNT_BUDGET`.
    """
    full = m.full_mask
    out = []
    for interval in _intervals(m):
        found = []
        for mask in sorted(interval, key=int.bit_count, reverse=True):
            if mask != full and all(mask & ~c for c in found):
                found.append(mask)
        out += found
    out.sort()
    return [Submodule(m, mask) for mask in out]


def _intervals(m: RealizedModule) -> list:
    """The submodule lattice as one interval of masks per local factor.

    M is the direct sum of the eM over the primitive idempotents e of the
    ring, and every submodule N is the direct sum of its eN. x lies in
    eN + (1−e)M exactly when ex lies in eN, so N = ∩_e (eN + (1−e)M),
    and eN ↦ eN + (1−e)M maps the lattice of eM isomorphically onto the
    interval of submodules that contain (1−e)M. A submodule there is
    (1−e)M plus a sum of cyclics Rx with x in eM, so `_interval` walks it
    from the mask of (1−e)M, joining only those cyclics; a factor with
    eM = 0 has the one-point interval {M} and is left out. A local ring
    has the one factor e = 1, so its interval is the whole lattice,
    walked from zero. Each interval is given the nonzero additive
    generators of eJ, J the radical of R: the maximal ideal m_e of the
    factor is (1−e)R + eJ, and 1−e acts on eM as zero, so m_e·x = eJ·x
    for x in eM, which `_interval` reads off these generators. Over a
    field factor eJ = 0 and the list is empty.

    Guarded by |M| (`LATTICE_GUARD`), and each interval by
    `LATTICE_COUNT_BUDGET`.
    """
    if m.size > LATTICE_GUARD:
        raise GuardExceeded("lattice", f"|M| = {m.size} exceeds guard {LATTICE_GUARD}")
    ring = m.ring
    intervals = []
    for factor in local_factorization(ring):
        e = factor.idempotent
        em = m.closure(m.multiples(e))
        if em == 1:
            continue
        bottom = m.closure(m.multiples(ring.sub(ring.one, e)))
        intervals.append(_interval(m, bottom, em, factor.radical))
    return intervals


def _interval(m: RealizedModule, bottom: int, em: int, radical) -> set:
    """The masks of the submodules between `bottom` = (1−e)M and M: the
    joins of `bottom` with the cyclics Rx, x in `em` = eM; `radical` holds
    the nonzero additive generators a of eJ, which on eM acts as the
    maximal ideal m_e of eR.

    Steps whose answer is already known are skipped, and nothing else
    changes. eM is a module over the local ring eR, so by Nakayama's lemma
    y in C = Rx generates C exactly when y is not in m_e·C; once x is
    closed, every later index in C − m_e·C would only find C again, and
    each cyclic is still recorded by its least index. m_e·C = eJ·x is
    the additive span of the a·x = Σ_i a_i (b_i·x), each one `combine`
    of the images b_i·x that close C, so it costs no product, and no
    closure when every a·x is zero, as over a field, where there is no a.
    x = 0 clears only itself.

    For one S, the cyclics are walked by ascending mask, and a subset has
    the smaller mask. Say Ry is walked after Rx and y lies in T = S + Rx,
    so y = s + rx. If R(rx) = Rx then S + Ry = T; otherwise R(rx) is a
    smaller cyclic, walked earlier, and S + Ry = S + R(rx) was reached
    then (or, by the same argument, skipped because it was known). rx
    lies in eM with x, so this holds inside the interval as it does from
    zero. Either way S + Ry is already in the lattice, so a cyclic whose
    generator lies in a join made earlier from S is skipped. The walk, the
    interval and the point where the count budget trips are those of
    joining S with every cyclic of eM.
    """
    cyclics = {}
    todo = em  # indices of eM that generate no cyclic already closed
    while todo:
        idx = (todo & -todo).bit_length() - 1
        images = m.images([m.element(idx)])
        cmask = m.closure(images)
        rows = [tuple(enumerate(y)) for y in images] if radical else ()
        moved = [y for y in (combine(a, rows, m.orders) for a in radical) if any(y)]
        below = m.closure(moved) if moved else 1  # m_e·C
        todo &= ~(cmask & ~below | 1 << idx)
        cyclics.setdefault(cmask, (idx, images))
    cyclic_items = [(cmask, *gen) for cmask, gen in sorted(cyclics.items())]
    lattice = {bottom}
    work = [bottom]
    while work:
        smask = work.pop()
        joined = 0  # union of the joins made from S so far
        for cmask, cgen, images in cyclic_items:
            if cmask & smask == cmask or joined >> cgen & 1:
                continue
            jmask = m.closure(images, smask)
            joined |= jmask
            if jmask not in lattice:
                lattice.add(jmask)
                work.append(jmask)
                if len(lattice) > LATTICE_COUNT_BUDGET:
                    raise _lattice_count_exceeded()
    return lattice


def _lattice_count_exceeded() -> GuardExceeded:
    return GuardExceeded(
        "lattice-count", f"more than {LATTICE_COUNT_BUDGET} submodules; enumeration aborted"
    )


# -- ideal action, quotients, radical ----------------------------------------------


def ideal_action(m: RealizedModule, ideal: Ideal) -> Submodule:
    """The submodule I*M: the additive span of the a·e_t, for a over the
    additive generators that I keeps (`Ideal.additive`, imaged once per
    ideal, not once per module) and e_t over M's basis, each read off the
    table by `m.multiples(a)`, with no product."""
    if ideal.ring is not m.ring:
        raise ValueError("ideal belongs to a different ring")
    products = (y for a in ideal.additive for y in m.multiples(a))
    return Submodule(m, m.closure(y for y in products if any(y)))


def quotient_module(m: RealizedModule, n: Submodule):
    """Cosets of a submodule, by `m.quotient`, as ``(quotient, project,
    lift)`` like `quotient_ring`: project and lift translate between
    coordinates of M and of M/N."""
    if n.parent is not m:
        raise ValueError("submodule belongs to a different module")
    orders, table, project, lift = _Coordinates.quotient(m.orders, m.rows, n.generator_coords())
    q = RealizedModule(m.ring, orders, table, label=f"({m.label})/N")
    return q, project, lift


def maximal_submodules(m: RealizedModule) -> list:
    """All maximal submodules, as hyperplane pullbacks from each M/mM.

    Every maximal submodule contains mM for the maximal ideal m that
    annihilates its (simple) quotient, so it is the pullback of a
    hyperplane of the R/m-vector space M/mM; conversely every such
    pullback is maximal. Computed once per module; where M/mM is the
    plane of `construct_cover`'s lines, its hyperplanes are those lines,
    the same objects, built once for both.
    """
    return list(m._maximal_submodules)


def _search_order(s):
    """The order of the cover search's candidates: size descending, then
    members bitmask."""
    return (-s.size, s.members)


def _greedy_picks(m: RealizedModule) -> tuple:
    """Each pick is the first maximal submodule, in search order, that
    gains the most elements not yet covered; read off the masks.

    Every proper submodule lies in a maximal one, so whether these cover
    M decides coverability in both search spaces. They are also the picks
    of a greedy over all proper submodules: a non-maximal N with the best
    gain lies in a maximal K, whose gain is at least N's and which sorts
    before N, so that greedy picks the same maximal ones.
    """
    candidates = sorted(maximal_submodules(m), key=_search_order)
    masks = [s.members for s in candidates]
    full = m.full_mask
    union = 0
    for mask in masks:
        union |= mask
    if union != full:
        return ()
    picks = []
    covered = 1  # zero is bit 0
    while covered != full:
        gains = [(mask & ~covered).bit_count() for mask in masks]
        i = gains.index(max(gains))
        picks.append(candidates[i])
        covered |= masks[i]
    return tuple(picks)


def hyperplanes(m: RealizedModule, entry: SemisimpleEntry, start: int, basis) -> list:
    """The submodules over the submodule mask `start` that pull back the
    hyperplanes of the span of `basis` (lifts of independent vectors
    u_1..u_k of M/mM) over the residue field R/m, for the m and mM of the
    `SemisimpleEntry` entry; raises ValueError unless `start` contains mM.

    The hyperplane ker φ with φ_j = 0 for j < l, φ_l = 1 and φ_j = -c_j
    after l has the basis u_j (j < l) and u_j + c_j u_l (j > l); all
    (q^k - 1)/(q - 1) hyperplanes arise once, by lead index l first, then
    by the c_j in field order, the order of R/m's coordinates. Each lead
    start, the span of u_j (j < l) over `start`, is the previous one with
    u_{l-1} closed in, and every span is over mM, so it is
    `_residue_span`'s. Nothing reads R/m as a ring: the c_j u_l are
    `_field_multiples`, read off the rows of M's table on R/m's columns.
    """
    if start & entry.nm != entry.nm:
        raise ValueError("hyperplanes: the start mask does not contain mM")
    span = _residue_span(m, entry.ideal)
    out = []
    lead_start = start
    for lead, u in enumerate(basis):
        if lead:
            lead_start = span([basis[lead - 1]], lead_start)
        rest = basis[lead + 1 :]
        # the last lead index has no tail, so it needs no multiples
        scaled = _field_multiples(m, entry.ideal, u) if rest else []
        for tail in itertools.product(scaled, repeat=len(rest)):
            vectors = [m.add(w, cu) for w, cu in zip(rest, tail)]
            out.append(Submodule(m, span(vectors, lead_start)))
    return out


def _field_multiples(m: RealizedModule, ideal: LocalFactor, u) -> list:
    """The c·u for c over R/m in field order, for m the maximal ideal
    `ideal`, c acting through its lift. The lift puts c on the residue
    columns and the action is bilinear, so c·u = Σ_j c_j (b_j·u) over
    those columns: f rows of M's table read, f the field's degree, and a
    `combine` of those f vectors per c. The c run over F_p^f in the order
    of `itertools.product`, which is R/m's own."""
    rows = [tuple(enumerate(m.row_image(i, u))) for i in ideal.residue_columns]
    scalars = itertools.product(range(ideal.p), repeat=len(rows))
    return [combine(c, rows, m.orders) for c in scalars]


def _residue_span(m: RealizedModule, ideal: LocalFactor):
    """The routine that spans vectors over a submodule mask containing
    mM, for m the maximal ideal `ideal`. 1 and the b_i of its span
    columns lift an F_p-basis of R/m, so every a in R is c_0 + Σ_i c_i b_i
    + y with integers c and y in m, and a·v = c_0 v + Σ_i c_i (b_i·v) +
    y·v with y·v in mM. The span is thus the additive closure of the
    vectors v and their b_i·v, each read off one row of M's table. Over
    F_p no column is left: it is the closure of the v."""
    columns = ideal.span_columns

    def span(vectors, start):
        images = [m.row_image(i, v) for v in vectors for i in columns]
        return m.closure([*vectors, *images], start)

    return span


def radical_via_maximal(m: RealizedModule) -> int:
    """Intersection of all maximal submodules, as a members bitmask."""
    mask = m.full_mask
    for s in maximal_submodules(m):
        mask &= s.members
    return mask


def radical_via_ideals(m: RealizedModule) -> int:
    """∩_m (mM) over the maximal ideals of the ring, as a members bitmask;
    the ideals with mM = M leave it unchanged."""
    mask = m.full_mask
    for entry in semisimple_invariants(m):
        mask &= entry.nm
    return mask


def jacobson_radical(m: RealizedModule) -> Submodule:
    """The radical ∩ mM; the harness check radical-agreement compares it
    with the intersection of the maximal submodules."""
    return Submodule(m, radical_via_ideals(m))


# -- length, invariants ------------------------------------------------------------


def is_cyclic(m: RealizedModule):
    """Whether one element generates everything; returns (bool, witness).

    In a finite module every proper submodule lies in a maximal one, so x
    generates M exactly when x lies in no maximal submodule. The witness
    is the least such index, the first generator a sweep over the indices
    would find; the zero module is generated by zero. Computed once per
    module.
    """
    return m._cyclic


def length(m: RealizedModule) -> int:
    """Composition series length (Jordan–Hölder invariant).

    M is the direct sum of the eM over the primitive idempotents e of the
    ring. eM is a module over the local factor eR, so each of its
    composition factors is that factor's residue field, of size q; hence
    length(eM) = log_q |eM|. x ↦ ex is additive, so eM is the additive
    span of the e·e_t over the module basis, closed without enumerating M.
    """
    total = 0
    for factor in local_factorization(m.ring):
        q = factor.residue_size
        size = m.closure(m.multiples(factor.idempotent)).bit_count()
        while size % q == 0:
            size //= q
            total += 1
        if size != 1:
            raise AssertionError(f"|eM| is not a power of the residue size {q}")
    return total


@dataclass(frozen=True)
class SemisimpleEntry:
    ideal: LocalFactor  # m, whose residue columns give R/m's coordinates
    nm: int  # members mask of mM
    basis: tuple  # greedy over mM in M's element order: a basis of M/mM over R/m

    @property
    def residue_size(self) -> int:
        return self.ideal.residue_size

    @property
    def multiplicity(self) -> int:
        return len(self.basis)


def semisimple_invariants(m: RealizedModule) -> list:
    """Per maximal ideal m with mM ≠ M: mM and a basis of M/mM over R/m,
    from which the dimension, the maximal submodules, the radical and
    the optimal cover are read.

    Computed once per module.
    """
    return list(m._semisimple_invariants)


def _residue_dimensions(m: RealizedModule) -> list:
    """The basis of each M/mM is greedy over mM: each vector is the least
    element that mM and the earlier ones do not span, each step closed by
    `_residue_span`. m annihilates M/mM, so each step adds one
    R/m-dimension and the result is a basis. No step builds R/m."""
    out = []
    for ideal in maximal_ideals(m.ring):
        nm = ideal_action(m, ideal).members
        if nm == m.full_mask:
            continue
        greedy = _greedy(m, m.full_mask, nm, _residue_span(m, ideal))
        basis = tuple(m.element(i) for i in greedy)
        if nm.bit_count() * ideal.residue_size ** len(basis) != m.size:
            raise AssertionError("quotient by a maximal ideal is not a vector space")
        out.append(SemisimpleEntry(ideal, nm, basis))
    return out


def s_set(m: RealizedModule) -> list:
    """Entries with multiplicity at least 2 — the ideals steering covers."""
    return [e for e in semisimple_invariants(m) if e.multiplicity >= 2]


def hdim(m: RealizedModule) -> int:
    """Dual Goldie dimension: the length of M modulo its radical, which
    is Σ dim M/mM over R/m. The harness check hdim-additivity compares it
    with the length of M/J(M)."""
    return sum(e.multiplicity for e in semisimple_invariants(m))


# -- localization ------------------------------------------------------------------


def localize_at_s(m: RealizedModule):
    """Invert everything outside the union of the S-ideals.

    For finite rings this is the projection onto the local factors whose
    maximal ideal lies in S; returns ``(localized, project)``, project
    taking coordinates of M to coordinates of the module over the
    factored ring.
    """
    entries = s_set(m)
    if not entries:
        raise ValueError("localization at S requires a nonempty S")
    e_sum = m.ring.zero
    for entry in entries:
        e_sum = m.ring.add(e_sum, entry.ideal.idempotent)
    complement = ideal_generated(m.ring, [m.ring.sub(m.ring.one, e_sum)])
    new_ring, _, ring_lift = quotient_ring(m.ring, complement)
    quotient, project, _ = quotient_module(m, ideal_action(m, complement))
    # the complement ideal annihilates the quotient, so the action factors
    # through the quotient ring: act by lifts of its basis
    table = quotient.restrict(ring_lift, new_ring.rank)
    localized = RealizedModule(new_ring, quotient.orders, table, label=f"localized({m.label})")
    return localized, project
