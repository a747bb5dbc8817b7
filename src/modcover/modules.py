"""Finitely presented modules over a FiniteRing, realized as explicit
finite structures.

A realized module stores its additive invariant factors (from a Smith
normal form of the relation lattice) plus the action of the ring's
additive basis on the module's additive basis; everything else is the
bilinear extension. Elements are integer coordinate tuples, indexed
lexicographically by `rings._Shifts`; no element list is stored.
Quotients come back as ``(quotient, project, lift)`` maps, not as sweeps
over M. All values are immutable after construction, so each module
stores its maximal submodules, semisimple invariants, radical and
cyclicity once computed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import reduce

from .errors import GuardExceeded
from .rings import (
    FiniteRing,
    Ideal,
    _greedy_generators,
    _Shifts,
    basis_vectors,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    residue_field,
)
from .snf import abelian_quotient

REALIZE_INTERMEDIATE_GUARD = 2**20
LATTICE_GUARD = 256
LATTICE_COUNT_BUDGET = 20000


def module_size_guard() -> int:
    return int(os.environ.get("MODCOVER_MAX_MODULE", "4096"))


@dataclass(frozen=True)
class ModulePresentation:
    ring: FiniteRing
    num_generators: int
    relations: tuple  # each a num_generators-tuple of ring coordinate tuples

    def __post_init__(self):
        for rel in self.relations:
            if len(rel) != self.num_generators:
                raise ValueError("relation arity does not match generator count")

    def to_dsl(self) -> str:
        def coord(c):
            return str(c[0]) if len(c) == 1 else "(" + ",".join(map(str, c)) + ")"

        rels = ", ".join(
            "(" + ",".join(coord(c) for c in rel) + ")" for rel in self.relations
        )
        return f"module over {self.ring.label}: gens={self.num_generators}; rels=[{rels}]"


class RealizedModule:
    def __init__(self, ring, orders, basis_act, presentation=None, label=None):
        self.ring = ring
        self.orders = tuple(int(d) for d in orders)
        if any(d < 2 for d in self.orders):
            raise ValueError("module invariant factors must be >= 2")
        self.rank = len(self.orders)
        self.size = reduce(lambda a, b: a * b, self.orders, 1)
        if self.size > module_size_guard():
            raise GuardExceeded(
                "module-size", f"|M| = {self.size} exceeds guard {module_size_guard()}"
            )
        # basis_act[i][t] = coords of (ring basis b_i) . (module basis e_t)
        self.basis_act = tuple(tuple(self.reduce(v) for v in row) for row in basis_act)
        self.presentation = presentation
        self.label = label or (presentation.to_dsl() if presentation else "module")
        self.zero = (0,) * self.rank
        self.shifts = _Shifts(self.orders)
        self._maximal_submodules = None
        self._semisimple_invariants = None
        self._radical = None
        self._cyclic = None

    # -- additive structure --------------------------------------------------

    def reduce(self, x):
        return tuple(int(c) % d for c, d in zip(x, self.orders))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    def scale(self, n, x):
        return tuple((n * a) % d for a, d in zip(x, self.orders))

    # -- ring action -----------------------------------------------------------

    def act(self, a, x):
        acc = [0] * self.rank
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.basis_act[i]
            for t, xt in enumerate(x):
                if not xt:
                    continue
                c = ai * xt
                for s, vs in enumerate(row[t]):
                    if vs:
                        acc[s] += c * vs
        return tuple(v % d for v, d in zip(acc, self.orders))

    # -- element indices (lexicographic on coordinates) ------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index_of(self, x) -> int:
        return self.shifts.index(x)

    def element(self, i):
        return self.shifts.element(i)

    def axiom_check(self):
        """Check the module laws exactly, in O(r^2 k) basis actions; raises
        ValueError naming the first law that fails.

        `act` is the bilinear extension of `basis_act` to coordinate
        representatives. It is well defined on R x M, hence distributive in
        both arguments, exactly when d_i (b_i e_t) = 0 and d'_t (b_i e_t) = 0
        for the additive orders d_i of R and d'_t of M. Then 1x = x and
        (ab)x = a(bx) hold on all elements once they hold on the bases, so
        these checks are complete. Realized, quotient, direct-sum and
        localized modules are modules by construction, so the constructor
        does not run it.
        """
        ring = self.ring
        bs = basis_vectors(ring.rank)
        for t, e in enumerate(basis_vectors(self.rank)):
            if self.act(ring.one, e) != e:
                raise ValueError(f"{self.label}: 1x = x fails at x = e_{t}")
            for i, (b, d) in enumerate(zip(bs, ring.additive_orders)):
                v = self.act(b, e)
                if self.scale(d, v) != self.zero or self.scale(self.orders[t], v) != self.zero:
                    raise ValueError(
                        f"{self.label}: b_{i} e_{t} is not killed by d_{i} and d'_{t}, "
                        "so the action is not well defined (distributivity fails)"
                    )
                for j, c in enumerate(bs):
                    if self.act(ring.mul(b, c), e) != self.act(b, self.act(c, e)):
                        raise ValueError(
                            f"{self.label}: (ab)x = a(bx) fails at a = b_{i}, "
                            f"b = b_{j}, x = e_{t}"
                        )

    def __repr__(self):
        return f"RealizedModule({self.label}, |M|={self.size})"


# -- realization ------------------------------------------------------------


def realize(pres: ModulePresentation) -> RealizedModule:
    """Materialize R^k modulo the relation submodule.

    R^k is never enumerated, but the Smith normal form over R^k has no
    modular reduction and its entries can grow exponentially, so |R|^k
    is capped before it runs.
    """
    ring = pres.ring
    k = pres.num_generators
    if ring.size**k > REALIZE_INTERMEDIATE_GUARD:
        raise GuardExceeded(
            "realize-intermediate",
            f"|R|^k = {ring.size}^{k} exceeds guard {REALIZE_INTERMEDIATE_GUARD}",
        )
    r = ring.rank
    full_orders = list(ring.additive_orders) * k

    def flatten(vec):
        out = []
        for comp in vec:
            out.extend(comp)
        return tuple(out)

    def unflatten(flat):
        return tuple(tuple(flat[j * r : (j + 1) * r]) for j in range(k))

    bs = basis_vectors(r)
    addgens = [
        flatten(tuple(ring.mul(b, comp) for comp in rel))
        for rel in pres.relations
        for b in bs
    ]
    orders, project, lift = abelian_quotient(full_orders, addgens)
    lifted = [unflatten(lift(u)) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(flatten(tuple(ring.mul(b, comp) for comp in x))) for x in lifted]
        for b in bs
    ]
    return RealizedModule(ring, orders, basis_act, presentation=pres)


def free_module(ring: FiniteRing, k: int) -> RealizedModule:
    return realize(ModulePresentation(ring, k, ()))


def cyclic_sum(ring: FiniteRing, annihilators) -> RealizedModule:
    """⊕_j R/(a_j) for scalars a_j, as a diagonal presentation."""
    k = len(annihilators)
    rels = tuple(
        tuple(ring.reduce(a) if j == i else ring.zero for j in range(k))
        for i, a in enumerate(annihilators)
    )
    return realize(ModulePresentation(ring, k, rels))


def direct_sum(a: RealizedModule, b: RealizedModule) -> RealizedModule:
    if a.ring is not b.ring and a.ring.label != b.ring.label:
        raise ValueError("direct sum requires modules over the same ring")
    ring = a.ring
    orders = a.orders + b.orders
    basis_act = [
        [v + b.zero for v in a.basis_act[i]] + [a.zero + v for v in b.basis_act[i]]
        for i in range(ring.rank)
    ]
    pres = None
    if a.presentation is not None and b.presentation is not None:
        ka, kb = a.presentation.num_generators, b.presentation.num_generators
        zero_a = tuple(ring.zero for _ in range(ka))
        zero_b = tuple(ring.zero for _ in range(kb))
        rels = tuple(rel + zero_b for rel in a.presentation.relations) + tuple(
            zero_a + rel for rel in b.presentation.relations
        )
        pres = ModulePresentation(ring, ka + kb, rels)
    return RealizedModule(
        ring, orders, basis_act, presentation=pres, label=f"({a.label}) (+) ({b.label})"
    )


# -- submodules -----------------------------------------------------------------


@dataclass(frozen=True)
class Submodule:
    parent: RealizedModule
    members: int  # bitmask over the parent's element indices
    generators: tuple  # element indices; closure of these equals members

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def is_proper(self) -> bool:
        return self.members != self.parent.full_mask

    def __contains__(self, idx) -> bool:
        return bool(self.members >> idx & 1)

    def generator_coords(self):
        return tuple(self.parent.element(i) for i in self.generators)

    def __repr__(self):
        return f"Submodule(gens={self.generator_coords()}, size={self.size})"


def _images(m: RealizedModule, elems) -> list:
    """The b_i . x over the ring basis: additive generators of the
    submodule the elements x generate."""
    bs = basis_vectors(m.ring.rank)
    return [m.act(b, x) for x in elems for b in bs]


def _span(m: RealizedModule, elems, start=1) -> int:
    """Mask of the submodule generated by the elements (coordinate
    tuples) and the submodule mask `start`."""
    return m.shifts.closure(_images(m, elems), start)


def submodule_generated(m: RealizedModule, gen_indices) -> Submodule:
    gen_indices = tuple(sorted(set(gen_indices)))
    return Submodule(m, _span(m, [m.element(g) for g in gen_indices]), gen_indices)


def full_submodule(m: RealizedModule) -> Submodule:
    return Submodule(m, m.full_mask, submodule_generators(m, m.full_mask))


def submodule_generators(m: RealizedModule, members: int) -> tuple:
    """Greedy small generating set (element indices) for a submodule
    given by its members mask."""
    return _greedy_generators(
        members, lambda idx, span: _span(m, [m.element(idx)], span)
    )


def all_submodules(m: RealizedModule, max_count=LATTICE_COUNT_BUDGET) -> list:
    """Every submodule, by closing the cyclic submodules under joins.

    The join of S with a cyclic submodule Rx is the closure of S under
    the ring-basis images of x. Guarded both by |M| and by a lattice-size
    budget: some semisimple modules within the size guard still have
    astronomically many submodules.
    """
    if m.size > LATTICE_GUARD:
        raise GuardExceeded("lattice", f"|M| = {m.size} exceeds guard {LATTICE_GUARD}")
    cyclics = {}
    for idx in range(m.size):
        cyclics.setdefault(_span(m, [m.element(idx)]), idx)
    cyclic_items = [
        (cmask, cgen, _images(m, [m.element(cgen)]))
        for cmask, cgen in sorted(cyclics.items())
    ]
    lattice = {1: ()}  # zero is bit 0
    work = [1]
    while work:
        smask = work.pop()
        sgens = lattice[smask]
        for cmask, cgen, images in cyclic_items:
            if cmask & smask == cmask:
                continue
            jmask = m.shifts.closure(images, smask)
            if jmask not in lattice:
                lattice[jmask] = tuple(sorted(set(sgens) | {cgen}))
                work.append(jmask)
                if len(lattice) > max_count:
                    raise GuardExceeded(
                        "lattice-count",
                        f"more than {max_count} submodules; enumeration aborted",
                    )
    out = [Submodule(m, mask, gens) for mask, gens in lattice.items()]
    out.sort(key=lambda s: (s.size, s.members))
    return out


# -- ideal action, quotients, radical ----------------------------------------------


def ideal_action(m: RealizedModule, ideal: Ideal) -> Submodule:
    """The submodule I*M."""
    if ideal.ring is not m.ring:
        raise ValueError("ideal belongs to a different ring")
    gens = [
        m.index_of(m.act(g, e))
        for g in ideal.generators
        for e in basis_vectors(m.rank)
    ]
    return submodule_generated(m, gens)


def quotient_module(m: RealizedModule, n: Submodule):
    """Cosets of a submodule, as ``(quotient, project, lift)`` like
    `quotient_ring`: project and lift translate between coordinates of M
    and of M/N."""
    if n.parent is not m:
        raise ValueError("submodule belongs to a different module")
    orders, project, lift = abelian_quotient(m.orders, _images(m, n.generator_coords()))
    lifted = [lift(u) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(m.act(b, x)) for x in lifted] for b in basis_vectors(m.ring.rank)
    ]
    q = RealizedModule(m.ring, orders, basis_act, label=f"({m.label})/N")
    return q, project, lift


def maximal_submodules(m: RealizedModule) -> list:
    """All maximal submodules, as hyperplane pullbacks from each M/mM.

    Every maximal submodule contains mM for the maximal ideal m that
    annihilates its (simple) quotient, so it is the pullback of a
    hyperplane of the R/m-vector space M/mM; conversely every such
    pullback is maximal. Computed once per module.
    """
    if m._maximal_submodules is None:
        m._maximal_submodules = tuple(_hyperplane_pullbacks(m))
    return list(m._maximal_submodules)


def _hyperplane_pullbacks(m: RealizedModule) -> list:
    """In a basis u_1..u_k of M/mM, the hyperplane ker φ with φ_j = 0 for
    j < l, φ_l = 1 and φ_j = -c_j after l has the basis u_j (j < l) and
    u_j + c_j u_l (j > l); all (q^k - 1)/(q - 1) hyperplanes arise once."""
    out = []
    for ideal in maximal_ideals(m.ring):
        nm = ideal_action(m, ideal)
        if nm.members == m.full_mask:
            continue
        field, field_lift, basis = _residue_basis(m, ideal, nm)
        for lead, u in enumerate(basis):
            start = _span(m, basis[:lead], nm.members)
            scaled = [m.act(field_lift(c), u) for c in field.iter_elements()]
            for tail in itertools.product(scaled, repeat=len(basis) - lead - 1):
                vectors = [m.add(w, cu) for w, cu in zip(basis[lead + 1 :], tail)]
                out.append(_pullback(m, start, vectors))
    out.sort(key=lambda s: s.members)
    return out


def _residue_basis(m: RealizedModule, ideal: Ideal, nm: Submodule):
    """``(field, field_lift, basis)``: the residue field F = R/m and lifts
    to M of a basis of the F-vector space M/mM, where nm is mM. The basis
    is greedy: each vector is the least element of M/mM that the earlier
    ones do not span. m annihilates M/mM, so ring spans there are F-spans
    and the greedy generators are a basis."""
    v, _, lift = quotient_module(m, nm)
    field, _, field_lift = residue_field(ideal)
    basis = submodule_generators(v, v.full_mask)
    if field.size ** len(basis) != v.size:
        raise AssertionError("quotient by a maximal ideal is not a vector space")
    return field, field_lift, [lift(v.element(i)) for i in basis]


def _pullback(m: RealizedModule, start: int, vectors) -> Submodule:
    """The submodule generated by the submodule mask `start` (containing
    mM) and the vectors, which lift the basis of a subspace of M/mM."""
    mask = _span(m, vectors, start)
    return Submodule(m, mask, submodule_generators(m, mask))


def radical_via_maximal(m: RealizedModule) -> int:
    """Intersection of all maximal submodules, as a members bitmask."""
    mask = m.full_mask
    for s in maximal_submodules(m):
        mask &= s.members
    return mask


def radical_via_ideals(m: RealizedModule) -> int:
    """∩_m (mM) over the maximal ideals of the ring, as a members bitmask."""
    mask = m.full_mask
    for ideal in maximal_ideals(m.ring):
        mask &= ideal_action(m, ideal).members
    return mask


def jacobson_radical(m: RealizedModule) -> Submodule:
    """The radical ∩ mM, once per module; the harness check
    radical-agreement compares it with the intersection of the maximal
    submodules."""
    if m._radical is None:
        mask = radical_via_ideals(m)
        m._radical = Submodule(m, mask, submodule_generators(m, mask))
    return m._radical


# -- length, invariants ------------------------------------------------------------


def is_cyclic(m: RealizedModule):
    """Whether one element generates everything; returns (bool, witness).

    Computed once per module.
    """
    if m._cyclic is None:
        m._cyclic = next(
            (
                (True, m.element(idx))
                for idx in range(m.size)
                if _span(m, [m.element(idx)]) == m.full_mask
            ),
            (False, None),
        )
    return m._cyclic


def length(m: RealizedModule) -> int:
    """Composition series length (Jordan–Hölder invariant).

    M is the direct sum of the eM over the primitive idempotents e of the
    ring. eM is a module over the local factor eR, so each of its
    composition factors is that factor's residue field, of size q; hence
    length(eM) = log_q |eM|. eM is isomorphic to M/(1-e)M, and (1-e)M is
    the additive span of (1-e)e_t over the module basis, so |eM| comes
    from a Smith normal form without enumerating M.
    """
    ring = m.ring
    lf = local_factorization(ring)
    total = 0
    for e, mask in zip(lf.idempotents, lf.maximal_ideal_masks):
        q = ring.size // mask.bit_count()
        complement = ring.sub(ring.one, e)
        orders, _, _ = abelian_quotient(
            m.orders, [m.act(complement, x) for x in basis_vectors(m.rank)]
        )
        size = reduce(lambda a, b: a * b, orders, 1)
        total += _exact_log(size, q, f"|eM| is not a power of the residue size {q}")
    return total


def _exact_log(size: int, q: int, message: str) -> int:
    """k with q**k == size; raises AssertionError(message) if there is none."""
    k = 0
    while size % q == 0:
        size //= q
        k += 1
    if size != 1:
        raise AssertionError(message)
    return k


@dataclass(frozen=True)
class SemisimpleEntry:
    ideal: Ideal
    residue_size: int
    multiplicity: int


def semisimple_invariants(m: RealizedModule) -> list:
    """Per maximal ideal m: the dimension of M/mM over R/m (if nonzero).

    Computed once per module.
    """
    if m._semisimple_invariants is None:
        m._semisimple_invariants = tuple(_residue_dimensions(m))
    return list(m._semisimple_invariants)


def _residue_dimensions(m: RealizedModule) -> list:
    out = []
    for ideal in maximal_ideals(m.ring):
        nm = ideal_action(m, ideal)
        vsize = m.size // nm.size
        if vsize == 1:
            continue
        q = ideal.residue_size
        k = _exact_log(vsize, q, "|M/mM| is not a power of |R/m|")
        out.append(SemisimpleEntry(ideal, q, k))
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
    s_ideals = s_set(m)
    if not s_ideals:
        raise ValueError("localization at S requires a nonempty S")
    s_masks = {e.ideal.members for e in s_ideals}
    lf = local_factorization(m.ring)
    chosen = [
        e for e, mask in zip(lf.idempotents, lf.maximal_ideal_masks) if mask in s_masks
    ]
    e_sum = m.ring.zero
    for e in chosen:
        e_sum = m.ring.add(e_sum, e)
    complement = ideal_generated(m.ring, [m.ring.sub(m.ring.one, e_sum)])
    new_ring, _, ring_lift = quotient_ring(m.ring, complement)
    killed = ideal_action(m, complement)
    orders, project, lift = abelian_quotient(
        m.orders, _images(m, killed.generator_coords())
    )
    # the complement ideal annihilates M/killed, so the action factors
    # through the quotient ring: act by lifts of its basis
    lifted = [lift(u) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(m.act(ring_lift(b), x)) for x in lifted]
        for b in basis_vectors(new_ring.rank)
    ]
    localized = RealizedModule(
        new_ring, orders, basis_act, label=f"localized({m.label})"
    )
    return localized, project
