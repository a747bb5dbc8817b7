"""Finitely presented modules over a FiniteRing, realized as explicit
finite structures.

A realized module stores its additive invariant factors (from a Smith
normal form of the relation lattice) plus the action of the ring's
additive basis on the module's additive basis; everything else is the
bilinear extension. Elements are integer coordinate tuples, enumerated
lexicographically. All values are immutable after construction, so each
module stores its maximal submodules, semisimple invariants, radical and
cyclicity once computed.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import reduce

from .errors import GuardExceeded
from .rings import (
    FiniteRing,
    Ideal,
    _additive_closure,
    _greedy_generators,
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
        self._elements = None
        self._index = None
        self._ring_basis_maps = {}
        self._add_table = None
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

    def basis(self, t):
        return tuple(1 if s == t else 0 for s in range(self.rank))

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

    # -- element enumeration (lexicographic on coordinates) --------------------

    @property
    def elements(self):
        if self._elements is None:
            self._elements = list(
                itertools.product(*(range(d) for d in self.orders))
            ) or [()]
            self._index = {e: i for i, e in enumerate(self._elements)}
        return self._elements

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index_of(self, x) -> int:
        self.elements
        return self._index[tuple(x)]

    def element(self, i):
        return self.elements[i]

    @property
    def zero_index(self) -> int:
        return self.index_of(self.zero)

    def add_index(self, i, j) -> int:
        return self.index_of(self.add(self.element(i), self.element(j)))

    def ring_basis_map(self, i):
        """Index-level map x -> b_i . x."""
        if i not in self._ring_basis_maps:
            b = self.ring.basis(i)
            self._ring_basis_maps[i] = [
                self.index_of(self.act(b, x)) for x in self.elements
            ]
        return self._ring_basis_maps[i]

    def add_table(self):
        if self._add_table is None:
            if self.size > LATTICE_GUARD:
                raise GuardExceeded("lattice", "add table only built for small modules")
            self._add_table = [
                [self.add_index(i, j) for j in range(self.size)]
                for i in range(self.size)
            ]
        return self._add_table

    def axiom_check(self, samples=64, seed=0):
        """Spot-check the module axioms on pseudo-random element pairs;
        raises ValueError naming the first law that fails."""
        rng = random.Random(seed)
        relems = self.ring.elements
        melems = self.elements
        for _ in range(samples):
            a, b = rng.choice(relems), rng.choice(relems)
            x, y = rng.choice(melems), rng.choice(melems)
            laws = (
                ("a(x+y) = ax+ay", self.act(a, self.add(x, y)),
                 self.add(self.act(a, x), self.act(a, y))),
                ("(a+b)x = ax+bx", self.act(self.ring.add(a, b), x),
                 self.add(self.act(a, x), self.act(b, x))),
                ("(ab)x = a(bx)", self.act(self.ring.mul(a, b), x),
                 self.act(a, self.act(b, x))),
                ("1x = x", self.act(self.ring.one, x), x),
            )
            for law, lhs, rhs in laws:
                if lhs != rhs:
                    raise ValueError(
                        f"{self.label}: {law} fails at a={a}, b={b}, x={x}, y={y}"
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

    addgens = [
        flatten(tuple(ring.mul(ring.basis(i), comp) for comp in rel))
        for rel in pres.relations
        for i in range(r)
    ]
    orders, project, lift = abelian_quotient(full_orders, addgens)
    t = len(orders)

    def unit(j):
        return tuple(1 if s == j else 0 for s in range(t))

    basis_act = [
        [
            project(flatten(tuple(ring.mul(ring.basis(i), comp) for comp in unflatten(lift(unit(j))))))
            for j in range(t)
        ]
        for i in range(r)
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

    def member_indices(self):
        return [i for i in range(self.parent.size) if self.members >> i & 1]

    def generator_coords(self):
        return tuple(self.parent.element(i) for i in self.generators)

    def __repr__(self):
        return f"Submodule(gens={self.generator_coords()}, size={self.size})"


def _closure_indices(m: RealizedModule, gen_indices, start=None):
    """Indices of the submodule generated by the given element indices
    and the submodule `start`: the additive span of their ring-basis images."""
    images = [m.ring_basis_map(i)[g] for g in gen_indices for i in range(m.ring.rank)]
    return _additive_closure(m.add_index, m.zero_index, images, start)


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def submodule_generated(m: RealizedModule, gen_indices) -> Submodule:
    gen_indices = tuple(sorted(set(gen_indices)))
    return Submodule(m, _mask(_closure_indices(m, gen_indices)), gen_indices)


def full_submodule(m: RealizedModule) -> Submodule:
    gens = submodule_generators(m, range(m.size))
    return Submodule(m, m.full_mask, gens)


def submodule_generators(m: RealizedModule, member_indices) -> tuple:
    """Greedy small generating set for a given submodule index set."""
    return _greedy_generators(
        member_indices, m.zero_index, lambda idx, span: _closure_indices(m, [idx], span)
    )


def all_submodules(m: RealizedModule, max_count=LATTICE_COUNT_BUDGET) -> list:
    """Every submodule, by closing the cyclic submodules under joins.

    The join of two submodules is their elementwise sumset. Guarded both
    by |M| and by a lattice-size budget: some semisimple modules within
    the size guard still have astronomically many submodules.
    """
    if m.size > LATTICE_GUARD:
        raise GuardExceeded("lattice", f"|M| = {m.size} exceeds guard {LATTICE_GUARD}")
    add = m.add_table()
    cyclics = {}
    for idx in range(m.size):
        s = _closure_indices(m, [idx])
        cyclics.setdefault(_mask(s), (tuple(sorted(s)), idx))
    zero_mask = 1 << m.zero_index
    lattice = {zero_mask: ()}
    members_of = {zero_mask: (m.zero_index,)}
    work = [zero_mask]
    cyclic_items = sorted(cyclics.items())
    while work:
        smask = work.pop()
        sidx = members_of[smask]
        sgens = lattice[smask]
        for cmask, (cidx, cgen) in cyclic_items:
            if cmask & smask == cmask:
                continue
            jset = {add[x][y] for x in sidx for y in cidx}
            jmask = _mask(jset)
            if jmask not in lattice:
                lattice[jmask] = tuple(sorted(set(sgens) | {cgen}))
                members_of[jmask] = tuple(sorted(jset))
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
        m.index_of(m.act(g, m.basis(t)))
        for g in ideal.generators
        for t in range(m.rank)
    ]
    return submodule_generated(m, gens)


def quotient_module(m: RealizedModule, n: Submodule):
    """Cosets of a submodule; returns (quotient, projection index map)."""
    if n.parent is not m:
        raise ValueError("submodule belongs to a different module")
    addgens = [
        m.act(m.ring.basis(i), m.element(g))
        for g in n.generators
        for i in range(m.ring.rank)
    ]
    orders, project, lift = abelian_quotient(m.orders, addgens)
    t = len(orders)

    def unit(j):
        return tuple(1 if s == j else 0 for s in range(t))

    basis_act = [
        [project(m.act(m.ring.basis(i), lift(unit(j)))) for j in range(t)]
        for i in range(m.ring.rank)
    ]
    q = RealizedModule(m.ring, orders, basis_act, label=f"({m.label})/N")
    proj_map = [q.index_of(project(x)) for x in m.elements]
    return q, proj_map


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
    out = []
    for ideal in maximal_ideals(m.ring):
        nm = ideal_action(m, ideal)
        if nm.members == m.full_mask:
            continue
        v, proj = quotient_module(m, nm)
        field, _, field_lift = residue_field(ideal)
        coords, basis = _vector_space_coords(v, field, field_lift)
        k = len(basis)
        for phi in _monic_functionals(field, k):
            kernel = {
                idx
                for idx, c in coords.items()
                if _functional_value(field, phi, c) == field.zero
            }
            mask = 0
            for x in range(m.size):
                if proj[x] in kernel:
                    mask |= 1 << x
            gens = submodule_generators(m, [i for i in range(m.size) if mask >> i & 1])
            out.append(Submodule(m, mask, gens))
    out.sort(key=lambda s: s.members)
    return out


def _vector_space_coords(v: RealizedModule, field, field_lift):
    """Coordinates of every element of v in a greedily chosen field basis.

    v must be annihilated by the maximal ideal defining `field`, so the
    ring action of coset representatives gives a well-defined field
    action.
    """
    coords = {v.zero_index: ()}
    basis = []
    scalars = [(c, field_lift(c)) for c in field.elements]
    for idx in range(v.size):
        if idx in coords:
            continue
        basis.append(idx)
        newcoords = {}
        for c, rep in scalars:
            cv = v.index_of(v.act(rep, v.element(idx)))
            for s, sc in coords.items():
                newcoords[v.add_index(s, cv)] = sc + (c,)
        coords = newcoords
    q = field.size
    if q ** len(basis) != v.size:
        raise AssertionError("quotient by a maximal ideal is not a vector space")
    return coords, basis


def _monic_functionals(field, k):
    """Nonzero functionals on field^k up to scalar: first nonzero entry 1."""
    elems = field.elements
    for lead in range(k):
        for tail in itertools.product(elems, repeat=k - lead - 1):
            yield (field.zero,) * lead + (field.one,) + tail


def _functional_value(field, phi, coords):
    acc = field.zero
    for p, c in zip(phi, coords):
        acc = field.add(acc, field.mul(p, c))
    return acc


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
        gens = submodule_generators(m, [i for i in range(m.size) if mask >> i & 1])
        m._radical = Submodule(m, mask, gens)
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
                if len(_closure_indices(m, [idx])) == m.size
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
            m.orders, [m.act(complement, m.basis(t)) for t in range(m.rank)]
        )
        size = reduce(lambda a, b: a * b, orders, 1)
        k = 0
        while size % q == 0:
            size //= q
            k += 1
        if size != 1:
            raise AssertionError(f"|eM| is not a power of the residue size {q}")
        total += k
    return total


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
        k = 0
        p = 1
        while p < vsize:
            p *= q
            k += 1
        if p != vsize:
            raise AssertionError("|M/mM| is not a power of |R/m|")
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
    maximal ideal lies in S; returns (module over the factored ring,
    projection index map).
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
    new_ring, ring_proj, ring_lift = quotient_ring(m.ring, complement)
    killed = ideal_action(m, complement)
    mq, proj = quotient_module(m, killed)
    # the complement ideal annihilates mq, so the action factors through
    # the quotient ring; rebuild the action tables over its basis
    basis_act = [
        [mq.act(ring_lift(new_ring.basis(i)), mq.basis(t)) for t in range(mq.rank)]
        for i in range(new_ring.rank)
    ]
    localized = RealizedModule(
        new_ring, mq.orders, basis_act, label=f"localized({m.label})"
    )
    return localized, proj
