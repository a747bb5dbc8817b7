"""Elementwise reference algorithms and shared small cases for the tests.

The library keeps subsets as bitmasks and closes them by translating
whole cosets, and finds ring structure by linear algebra over F_p. These
are the earlier algorithms, which add elements one at a time, sweep
every element to pull a subset back or to find idempotents, nilpotents
and units, and search for polynomial factors; the tests compare the
library's answers with them.
"""

import functools
import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

from modcover import modules, rings
from modcover._fp import _apply, _echelon, _fixed_space, _frobenius, _is_field, _kernel, _power
from modcover.covering import CoverCertificate, SearchSpace, greedy_cover
from modcover.modules import (
    RealizedModule,
    Submodule,
    cyclic_sum,
    free_module,
    quotient_module,
    s_set,
    submodule_generated,
)
from modcover.rings import (
    FiniteRing,
    _Coordinates,
    _poly_mulmod,
    basis_vectors,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    residue_field,
    ring_gf,
    ring_zmod,
)
from modcover.snf import abelian_quotient


def zmod_module(n, parts):
    R = ring_zmod(n)
    return cyclic_sum(R, [(a % n,) for a in parts])


TINY_CASES = [
    lambda: free_module(ring_zmod(2), 2),
    lambda: free_module(ring_zmod(3), 2),
    lambda: free_module(ring_zmod(2), 3),
    lambda: zmod_module(4, [2, 4]),
    lambda: zmod_module(6, [2, 2, 3]),
    lambda: zmod_module(6, [2, 3]),
    lambda: free_module(ring_zmod(4), 1),
    lambda: free_module(ring_gf(2, 2), 2),
    lambda: zmod_module(9, [3, 9]),
]


# rings whose maximal ideals and unit counts are pinned, and whose
# ring-info output is pinned in the CLI tests
PINNED_RINGS = ["Z/360", "GF(2^7)", "Z/12 x Z/10", "GF(3^5)", "Z/4096", "GF(4093)"]

# products in which a prime p divides only some of the additive orders, so
# R/pR keeps only some coordinates
MIXED_PRODUCTS = ["Z/6 x Z/4", "Z/2 x Z/9 x Z/5", "GF(2^2) x Z/6", "Z/4 x GF(3^2)"]


def _bench():
    """The benchmark's `reference` and `workloads` modules."""
    path = str(Path(__file__).resolve().parents[1] / "bench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import reference
    import workloads

    return reference, workloads


def large_ring_labels() -> list:
    """One label per ring class of the benchmark's large-ring workload."""
    reference, workloads = _bench()
    return [
        reference.ring_label(workloads.ring_variants(c)[0])
        for _, classes, _, _ in workloads._strata()
        for c in classes
    ]


def sigma_search_labels() -> list:
    """One label per module class of the benchmark's sigma-search workload."""
    reference, workloads = _bench()
    return [
        reference.module_label(workloads.module_variants(c)[0])
        for c in workloads.SIGMA_CLASSES
    ]


def poly_ring(q, f) -> FiniteRing:
    """Z/q[x]/(f) for monic f (coefficients low degree first), on the
    basis 1, x, ..., x^(k-1)."""
    k = len(f) - 1
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    table = [[tuple(_poly_mulmod(a, b, f, q)) for b in units] for a in units]
    label = f"Z/{q}[x]/({','.join(str(c) for c in f)})"
    return FiniteRing([q] * k, table, tuple(units[0]), label)


def gf4_on_x_and_1() -> FiniteRing:
    """GF(4) = Z/2[x]/(x^2 + x + 1) on the basis (x, 1), so that 1 is its
    second basis vector and x^2 = x + 1 is (1, 1). No constructor ring
    puts 1 anywhere but first, so this one tells which residue column is
    exchanged for 1: exchanging the first would leave 1 twice."""
    return FiniteRing([2, 2], [[(1, 1), (1, 0)], [(1, 0), (0, 1)]], (0, 1), "GF(4) on (x, 1)")


# q -> the largest degree of f tried; every monic f up to it, so reducible
# and repeated factors of f mod p are all there
POLY_DEGREES = {2: 5, 3: 3, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}


def monic_polynomials(q):
    """Every monic f over Z/q of degree 1 to POLY_DEGREES[q]."""
    for k in range(1, POLY_DEGREES[q] + 1):
        for tail in itertools.product(range(q), repeat=k):
            yield list(tail) + [1]


def corpus_modules():
    """The 200 modules of the seed-1 corpus."""
    from modcover.dsl import parse_module
    from modcover.harness import corpus_generate

    return [parse_module(s.module_expr) for s in corpus_generate(seed=1, count=200)]


def small_corpus_modules() -> list:
    """The modules of the default corpora of seeds 1, 2, 3 and 7 with
    1 < |M| <= 64, in corpus order, seed by seed."""
    from modcover.dsl import parse_module
    from modcover.harness import corpus_generate

    return [
        m
        for seed in (1, 2, 3, 7)
        for m in (parse_module(s.module_expr) for s in corpus_generate(seed=seed, count=200))
        if 1 < m.size <= 64
    ]


def additive_closure(add, zero, gens, start=None):
    """Subgroup generated by the gens and the subgroup `start` (default
    {zero}), under `add` with identity `zero`."""
    members = {zero} if start is None else set(start)
    for g in gens:
        if g in members:
            continue
        base = list(members)
        cur = g
        while cur not in members:
            members.update(add(x, cur) for x in base)
            cur = add(cur, g)
    return members


def dense_product(coords, a, x) -> tuple:
    """Σ a_i x_t (b_i · e_t) for a ring or module `coords`, by the full
    bilinear loop over its dense basis table, zero entries included."""
    acc = [0] * coords.rank
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = coords.table[i]
        for t, xt in enumerate(x):
            if not xt:
                continue
            c = ai * xt
            for s, v in enumerate(row[t]):
                if v:
                    acc[s] += c * v
    return tuple(v % d for v, d in zip(acc, coords.orders))


def dense_images(coords, elems) -> list:
    """The b_i · x over the ring basis, for each x in turn, each by
    `dense_product` with the basis vector b_i."""
    bs = basis_vectors(len(coords.table))
    return [dense_product(coords, b, x) for x in elems for b in bs]


def elements(x) -> list:
    """Every element of a ring or module, in index order."""
    return [x.element(i) for i in range(x.size)]


def member_indices(sub) -> list:
    """The element indices of a submodule, ascending."""
    return [i for i in range(sub.parent.size) if sub.members >> i & 1]


def member_elements(ideal) -> list:
    """The elements of an ideal, in index order."""
    return [x for i, x in enumerate(elements(ideal.ring)) if ideal.members >> i & 1]


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def add_index(m, i, j) -> int:
    return m.index_of(m.add(m.element(i), m.element(j)))


def span_indices(m, gen_indices, start=None) -> set:
    """Indices of the submodule generated by the element indices and the
    submodule `start` (an index set): the span of the ring-basis images."""
    images = [
        m.index_of(m.act(b, m.element(g)))
        for g in gen_indices
        for b in basis_vectors(m.ring.rank)
    ]
    return additive_closure(lambda i, j: add_index(m, i, j), 0, images, start)


def generators(m, mask) -> tuple:
    """Greedy generators: each member, in ascending order, that the span
    of those kept so far misses."""
    members = [i for i in range(m.size) if mask >> i & 1]
    gens, span = [], {0}
    for idx in members:
        if idx in span:
            continue
        gens.append(idx)
        span = span_indices(m, [idx], span)
    return tuple(gens)


def vector_space_coords(v, field, field_lift) -> dict:
    """Coordinates of every element of v in the greedy field basis, as
    {index: coordinate tuple}."""
    coords = {0: ()}
    for idx in range(v.size):
        if idx in coords:
            continue
        newcoords = {}
        for c in elements(field):
            cv = v.index_of(v.act(field_lift(c), v.element(idx)))
            for s, sc in coords.items():
                newcoords[add_index(v, s, cv)] = sc + (c,)
        coords = newcoords
    return coords


# -- the residue layer by ring products and R-spans --------------------------------


def ideal_action_by_products(m, ideal):
    """I·M as the span of the g·e_t, for g over the spanning elements of
    I, each made by a product, and spanned through the ring-basis images."""
    products = [m.act(g, e) for g in ideal.spanning for e in basis_vectors(m.rank)]
    return Submodule(m, m.span(products))


def residue_steps_by_span(m, nm) -> list:
    """(index, mask after the step) for each step of the greedy basis of
    M over the mask nm, each step spanned by `m.span`."""
    steps, start = [], nm
    while start != m.full_mask:
        rest = m.full_mask & ~start
        idx = (rest & -rest).bit_length() - 1
        start = m.span([m.element(idx)], start)
        steps.append((idx, start))
    return steps


def field_multiples_by_act(m, ideal, u) -> list:
    """c·u for each c of R/m in field order, each by one product with
    the lift of c."""
    field, _, field_lift = residue_field(ideal)
    return [m.act(field_lift(c), u) for c in field.iter_elements()]


def hyperplanes_by_span(m, ideal, start, basis) -> list:
    """The masks of the hyperplane pullbacks over `start`, in the order
    of `modules.hyperplanes`: each lead start spanned from `start` again,
    the multiples by `field_multiples_by_act` and every span by `m.span`."""
    out = []
    for lead, u in enumerate(basis):
        lead_start = m.span(basis[:lead], start)
        rest = basis[lead + 1 :]
        scaled = field_multiples_by_act(m, ideal, u) if rest else []
        for tail in itertools.product(scaled, repeat=len(rest)):
            vectors = [m.add(w, cu) for w, cu in zip(rest, tail)]
            out.append(m.span(vectors, lead_start))
    return out


def _residue_space(m, ideal):
    """The residue field, the index map of M -> M/mM and the coordinates
    of M/mM in the greedy field basis."""
    nm = ideal_action_by_products(m, ideal)
    v, project, _ = quotient_module(m, nm)
    proj = [v.index_of(project(x)) for x in elements(m)]
    field, _, field_lift = residue_field(ideal)
    return field, proj, vector_space_coords(v, field, field_lift)


def _pullback(m, proj, kernel):
    mask = mask_of(x for x in range(m.size) if proj[x] in kernel)
    return mask, generators(m, mask)


def maximal_submodules(m) -> list:
    """(members, generators) of every hyperplane pullback, sorted: each
    element x is kept when proj(x) lies in ker φ."""
    out = []
    for ideal in maximal_ideals(m.ring):
        if ideal_action_by_products(m, ideal).members == m.full_mask:
            continue
        field, proj, coords = _residue_space(m, ideal)
        k = len(next(iter(coords.values())))
        for lead in range(k):
            for tail in itertools.product(elements(field), repeat=k - lead - 1):
                phi = (field.zero,) * lead + (field.one,) + tail
                kernel = set()
                for idx, c in coords.items():
                    acc = field.zero
                    for p, x in zip(phi, c):
                        acc = field.add(acc, field.mul(p, x))
                    if acc == field.zero:
                        kernel.add(idx)
                out.append(_pullback(m, proj, kernel))
    return sorted(out)


def nm_indices(m, ideal) -> set:
    """The indices of mM: the additive span of the a e_t over the members
    a of the ideal and the basis e_t."""
    products = [
        m.index_of(m.act(a, e)) for a in member_elements(ideal) for e in basis_vectors(m.rank)
    ]
    return additive_closure(lambda i, j: add_index(m, i, j), 0, products)


def residue_basis(m, ideal) -> tuple:
    """The least-index greedy basis of M over mM: each element, in index
    order, that mM and those kept so far do not span."""
    basis, span = [], nm_indices(m, ideal)
    for idx in range(m.size):
        if idx in span:
            continue
        basis.append(m.element(idx))
        span = span_indices(m, [idx], span)
    return tuple(basis)


def residue_coords(m, ideal) -> dict:
    """{index: coordinates} of every element of M in `residue_basis`: the
    element Σ c_j u_j + y for each y in mM has coordinates c."""
    field, _, field_lift = residue_field(ideal)
    basis = residue_basis(m, ideal)
    nm = [m.element(i) for i in nm_indices(m, ideal)]
    coords = {}
    for c in itertools.product(elements(field), repeat=len(basis)):
        x = m.zero
        for cj, u in zip(c, basis):
            x = m.add(x, m.act(field_lift(cj), u))
        for y in nm:
            coords[m.index_of(m.add(x, y))] = c
    assert len(coords) == m.size
    return coords


def construct_cover_lines(m, ideal) -> list:
    """(members, generators) of the q + 1 line pullbacks construct_cover
    builds, in its order: {y = c x} for each scalar c, then {x = 0}, on
    the first two coordinates in `residue_basis`."""
    field = residue_field(ideal)[0]
    coords = residue_coords(m, ideal)
    directions = [(field.one, c) for c in elements(field)] + [(field.zero, field.one)]
    out = []
    for dx, dy in directions:
        mask = mask_of(
            idx
            for idx, c in coords.items()
            if field.mul(dy, c[0]) == field.mul(dx, c[1])
        )
        out.append((mask, generators(m, mask)))
    return out


def all_submodules(m) -> list:
    """(members, greedy generators) of every submodule, sorted by (size,
    members): cyclic submodules closed under joins, a join being the
    elementwise sumset."""
    cyclics = {}
    for idx in range(m.size):
        s = span_indices(m, [idx])
        cyclics.setdefault(mask_of(s), tuple(sorted(s)))
    zero_mask = 1  # zero is index 0
    members_of = {zero_mask: (0,)}
    work = [zero_mask]
    while work:
        smask = work.pop()
        for cmask, cidx in sorted(cyclics.items()):
            if cmask & smask == cmask:
                continue
            jset = {add_index(m, x, y) for x in members_of[smask] for y in cidx}
            jmask = mask_of(jset)
            if jmask not in members_of:
                members_of[jmask] = tuple(sorted(jset))
                work.append(jmask)
    return sorted(
        ((mask, generators(m, mask)) for mask in members_of),
        key=lambda item: (item[0].bit_count(), item[0]),
    )


def all_submodules_by_every_join(m) -> list:
    """(members, greedy generators) of every submodule, sorted by (size,
    members): the bitmask walk that joins every submodule with every
    cyclic submodule not inside it, with no step skipped."""
    cyclics = {}
    for idx in range(m.size):
        cyclics.setdefault(submodule_generated(m, [idx]).members, idx)
    cyclic_items = [
        (cmask, m.images([m.element(cgen)])) for cmask, cgen in sorted(cyclics.items())
    ]
    lattice = {1}
    work = [1]
    while work:
        smask = work.pop()
        for cmask, images in cyclic_items:
            if cmask & smask == cmask:
                continue
            jmask = m.shifts.closure(images, smask)
            if jmask not in lattice:
                lattice.add(jmask)
                work.append(jmask)
    return sorted(
        ((mask, generators(m, mask)) for mask in lattice),
        key=lambda item: (item[0].bit_count(), item[0]),
    )


def coatoms_by_containment(m) -> set:
    """The masks of the proper submodules that no other proper submodule
    contains, by comparing every pair of `all_submodules`: the scan the
    harness check maximal-count made before it read `lattice_coatoms`."""
    # all_submodules is sorted by size and holds no mask twice, so only a
    # later submodule can strictly contain an earlier one
    proper = [s for s in modules.all_submodules(m) if s.is_proper()]
    return {
        s.members
        for i, s in enumerate(proper)
        if not any(s.members & ~t.members == 0 for t in proper[i + 1 :])
    }


def sigma_exact_by_enumeration(m, space=SearchSpace.MAXIMAL_ONLY):
    """`covering.sigma_exact` as it was before the root check moved ahead
    of the candidates: the candidates are built and sorted by (size
    descending, members) first, the lattice walked for ALL_PROPER, and
    the root bound is read from the largest candidate by the search,
    which has no node budget."""
    if space is SearchSpace.MAXIMAL_ONLY:
        candidates = modules.maximal_submodules(m)
    else:
        candidates = [s for s in modules.all_submodules(m) if s.is_proper()]
    candidates.sort(key=lambda s: (-s.size, s.members))
    greedy = greedy_cover(m)
    if not greedy.is_cover:
        return CoverCertificate((), False, None, True, 0, 0.0)

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
        if len(chosen) + -(-uncovered // (max_size - 1)) >= best_len:
            return
        for i in range(start, n):
            if not masks[i] & ~covered:
                continue
            nodes += 1
            chosen.append(i)
            search(i + 1, covered | masks[i], chosen)
            chosen.pop()

    search(0, 1, [])  # zero is bit 0
    subs = tuple(candidates[i] for i in sorted(best_sel))
    return CoverCertificate(subs, True, best_len, True, nodes, 0.0)


def without_keys(payload, keys):
    """A JSON payload with every dict entry whose key is in `keys` removed,
    at any depth."""
    if isinstance(payload, dict):
        return {k: without_keys(v, keys) for k, v in payload.items() if k not in keys}
    if isinstance(payload, list):
        return [without_keys(v, keys) for v in payload]
    return payload


def cyclic_witness(m):
    """(True, x) for the least-index x that generates m, or (False,
    None): a sweep closing the cyclic submodule of every index."""
    for idx in range(m.size):
        if not submodule_generated(m, [idx]).is_proper():
            return True, m.element(idx)
    return False, None


def local_factors(ring) -> SimpleNamespace:
    """The local factors eR ≅ R/(1-e)R over the library's primitive
    idempotents e, each with its projection and lift, and the maps
    R -> ∏ eR (`iso_forward`) and back (`iso_backward`)."""
    idempotents = [f.idempotent for f in local_factorization(ring)]
    factors, projections, lifts = zip(
        *(
            quotient_ring(ring, ideal_generated(ring, [ring.sub(ring.one, e)]))
            for e in idempotents
        )
    )

    def iso_forward(x):
        return tuple(project(x) for project in projections)

    def iso_backward(ys):
        acc = ring.zero
        for e, lift, y in zip(idempotents, lifts, ys):
            acc = ring.add(acc, ring.mul(e, lift(y)))
        return acc

    return SimpleNamespace(
        factors=factors,
        projections=projections,
        lifts=lifts,
        iso_forward=iso_forward,
        iso_backward=iso_backward,
    )


def residue_field_by_snf(ideal):
    """``(field, project, lift)`` for R/m by `quotient_ring`, a Smith
    normal form of the ideal that m's greedy generators span: a path
    independent of the echelon that builds the library's residue fields."""
    ring = ideal.ring
    return quotient_ring(ring, ideal_generated(ring, ideal.generators))


def maximal_ideal_masks(ring) -> tuple:
    """Per local factor, the mask of the ring elements whose projection
    is a non-unit (a nilpotent) of the factor."""
    lf = local_factors(ring)
    out = []
    for factor, proj in zip(lf.factors, lf.projections):
        nilpotent = set()
        for y in factor.iter_elements():
            power = y
            for _ in range(factor.size):
                power = factor.mul(power, y)
            if power == factor.zero:
                nilpotent.add(y)
        out.append(mask_of(i for i, x in enumerate(elements(ring)) if proj(x) in nilpotent))
    return tuple(out)


def length_by_snf(m) -> int:
    """Σ_e log_q |eM| over the primitive idempotents e, with |eM| =
    |M/(1-e)M| read off a Smith normal form of the span of the (1-e)e_t."""
    ring = m.ring
    total = 0
    for factor in local_factorization(ring):
        q = ring.size // factor.ideal.size
        complement = ring.sub(ring.one, factor.idempotent)
        orders, _, _ = abelian_quotient(
            m.orders, [m.act(complement, x) for x in basis_vectors(m.rank)]
        )
        size = 1
        for d in orders:
            size *= d
        k = 0
        while size % q == 0:
            size //= q
            k += 1
        assert size == 1, f"|eM| is not a power of the residue size {q}"
        total += k
    return total


# -- quotients by lifted bases ------------------------------------------------------


def realize_by_flatten(pres):
    """``(orders, basis_act, project, lift)`` for R^k modulo the relations,
    R^k flattened to k blocks of R's coordinates: a Smith normal form of
    the b_i·rel, each componentwise product by `ring.mul`, and the action
    of each b_i on the unflattened lift of each quotient basis vector."""
    ring, k = pres.ring, pres.num_generators
    r = ring.rank

    def flatten(vec):
        return tuple(c for comp in vec for c in comp)

    def unflatten(flat):
        return tuple(tuple(flat[j * r : (j + 1) * r]) for j in range(k))

    bs = basis_vectors(r)
    addgens = [
        flatten(tuple(ring.mul(b, comp) for comp in rel))
        for rel in pres.relations
        for b in bs
    ]
    orders, project, lift = abelian_quotient(list(ring.additive_orders) * k, addgens)
    lifted = [unflatten(lift(u)) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(flatten(tuple(ring.mul(b, comp) for comp in x))) for x in lifted]
        for b in bs
    ]
    return orders, basis_act, project, lift


def free_coordinates(ring, k):
    """R^k as k blocks of R's coordinates, with the table b_i·e_(j,t) built
    by `ring.mul` of basis vectors and placed in block j."""
    table = [
        [
            ring.zero * j + ring.mul(b, e) + ring.zero * (k - 1 - j)
            for j in range(k)
            for e in basis_vectors(ring.rank)
        ]
        for b in basis_vectors(ring.rank)
    ]
    return _Coordinates(tuple(ring.additive_orders) * k, table)


def quotient_module_by_lifts(m, n):
    """``(quotient, project, lift)`` for M/N: a Smith normal form of the
    images of N's generators, and the action of each b_i on the lift of
    each quotient basis vector, projected."""
    orders, project, lift = abelian_quotient(m.orders, m.images(n.generator_coords()))
    lifted = [lift(u) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(m.act(b, x)) for x in lifted] for b in basis_vectors(m.ring.rank)
    ]
    return RealizedModule(m.ring, orders, basis_act), project, lift


def quotient_ring_by_lifts(ring, ideal):
    """``(quotient, project, lift)`` for R/I: a Smith normal form of the
    images of I's spanning elements, and the products of the lifts of the
    quotient basis in R, projected."""
    orders, project, lift = abelian_quotient(
        ring.additive_orders, ring.images(ideal.spanning)
    )
    lifted = [lift(u) for u in basis_vectors(len(orders))]
    table = [[project(ring.mul(x, y)) for y in lifted] for x in lifted]
    q = FiniteRing(orders, table, project(ring.one), "quotient", validate=False)
    return q, project, lift


def localize_at_s(m):
    """``(localized, project)``: M/(1-e)M over R/(1-e)R for the sum e of
    the S-idempotents, with its own Smith normal forms of (1-e)R and
    (1-e)M and the action of the quotient ring's basis through its lifts."""
    s_masks = {e.ideal.members for e in s_set(m)}
    e_sum = m.ring.zero
    for factor in local_factorization(m.ring):
        if factor.ideal.members in s_masks:
            e_sum = m.ring.add(e_sum, factor.idempotent)
    complement = ideal_generated(m.ring, [m.ring.sub(m.ring.one, e_sum)])
    new_ring, _, ring_lift = quotient_ring_by_lifts(m.ring, complement)
    killed = ideal_action_by_products(m, complement)
    orders, project, lift = abelian_quotient(
        m.orders, m.images(killed.generator_coords())
    )
    lifted = [lift(u) for u in basis_vectors(len(orders))]
    basis_act = [
        [project(m.act(ring_lift(b), x)) for x in lifted]
        for b in basis_vectors(new_ring.rank)
    ]
    return RealizedModule(new_ring, orders, basis_act), project


# -- ring structure by sweeping every element -------------------------------------


def idempotents_by_squaring(ring) -> tuple:
    """The primitive idempotents, sorted: the nonzero x with x^2 = x
    under which no other nonzero idempotent f lies (ef = f)."""
    idems = [x for x in elements(ring) if x != ring.zero and ring.mul(x, x) == x]
    return tuple(
        sorted(e for e in idems if not any(f != e and ring.mul(e, f) == f for f in idems))
    )


def nilpotents_by_squaring(ring) -> set:
    """Elements with some power zero. If x^n = 0 with n least, then R,
    xR, ..., x^n R = 0 strictly shrink, so n <= log2 |R|, and s squarings
    with 2^s > log2 |R| reach zero."""
    steps = (ring.size.bit_length() - 1).bit_length()
    out = set()
    for x in elements(ring):
        y = x
        for _ in range(steps):
            y = ring.mul(y, y)
        if y == ring.zero:
            out.add(x)
    return out


def is_field_by_power_walk(ring) -> bool:
    """Whether every nonzero element is a unit: the powers of each one not
    yet known to be a unit reach 1, never 0, within |R| steps."""
    units = {ring.one}
    for x in elements(ring):
        if x == ring.zero or x in units:
            continue
        powers = [x]
        while powers[-1] != ring.one:
            y = ring.mul(powers[-1], x)
            if y == ring.zero or len(powers) == ring.size:
                return False
            powers.append(y)
        units.update(powers)
    return True


def factor_by_sweeps(ring) -> tuple:
    """(primitive idempotents, maximal ideal masks) found by sweeping:
    for each idempotent e, the closure of (1-e)R with the lifts of the
    nilpotents of the factor R/(1-e)R."""
    idems = idempotents_by_squaring(ring)
    masks = []
    for e in idems:
        complement = ideal_generated(ring, [ring.sub(ring.one, e)])
        factor, _, lift = quotient_ring(ring, complement)
        nilpotents = [lift(y) for y in nilpotents_by_squaring(factor)]
        masks.append(ring.shifts.closure(nilpotents, complement.members))
    return idems, tuple(masks)


# -- the factorization by A's own structure constants ------------------------------


def algebra(ring, p) -> _Coordinates:
    """A = R/pR over the coordinates `rings._support(ring, p)`, with R's
    table on them read mod p as its structure constants."""
    support = rings._support(ring, p)
    table = [[[ring.mul_table[i][j][s] for s in support] for j in support] for i in support]
    return _Coordinates((p,) * len(support), table)


def lift_idempotent(ring, e):
    """The idempotent congruent to e modulo a nilpotent ideal containing
    e^2 - e, by Newton's step e <- 3e^2 - 2e^3."""
    for _ in range(ring.size.bit_length()):
        square = ring.mul(e, e)
        if square == e:
            return e
        e = ring.sub(ring.scale(3, square), ring.scale(2, ring.mul(square, e)))
    raise AssertionError(f"{ring.label}: idempotent lifting does not converge")


def primary_idempotents_by_algebra(ring, p, e_p) -> tuple:
    """``(idempotents, radical_gens, frobenius)`` of R_p = e_p R: A = R/pR
    multiplied by its own structure constants (`algebra`), 1 split over
    the fixed space of A's Frobenius, and every idempotent lifted to R_p
    by Newton's step, one factor or many."""
    support = rings._support(ring, p)
    lift = rings._placing(ring.rank, support)
    n = len(support)
    mul = algebra(ring, p)._product
    frobenius = _frobenius(mul, n, p)
    nil, reach = frobenius, p
    while reach < n:
        nil = [_apply(frobenius, x, p) for x in nil]
        reach *= p
    radical_gens = [ring.scale(p, ring.one)] + [lift(r) for r in _kernel(nil, p)]
    one = tuple(ring.one[i] % p for i in support)
    fixed = _fixed_space(frobenius, p)
    idems = [one]
    for b in fixed:
        if len(idems) == len(fixed):
            break
        split = []
        for c in range(p):
            shifted = tuple((v - c * o) % p for v, o in zip(b, one))
            level = _power(mul, shifted, p - 1)
            level = tuple((o - v) % p for o, v in zip(one, level))
            for e in idems:
                part = mul(e, level)
                if any(part):
                    split.append(part)
        idems = split
    idempotents = [lift_idempotent(ring, ring.mul(e_p, lift(e))) for e in idems]
    return idempotents, radical_gens, frobenius


def factor_by_algebra(ring) -> tuple:
    """``(factors, maximal ideal masks)``: the (idempotent, ideal mask,
    spanning, p, rows, pivots) of each local factor, sorted by the
    idempotent, and the masks in the order of `maximal_ideals`. Each p
    runs `primary_idempotents_by_algebra`, and every factor, m̄_e = 0
    included, is certified by `_is_field` on the Frobenius of A/m̄_e."""
    char = functools.reduce(
        math.lcm, (d // math.gcd(d, c) for c, d in zip(ring.one, ring.additive_orders))
    )
    parts = []
    for p, a in rings._prime_powers(char):
        rest = char // p**a
        e_p = ring.scale(rest * pow(rest, -1, p**a), ring.one)
        idempotents, radical_gens, frobenius = primary_idempotents_by_algebra(ring, p, e_p)
        parts += [(e, p, radical_gens, frobenius) for e in idempotents]
    parts.sort(key=lambda part: part[0])
    if functools.reduce(ring.add, (e for e, *_ in parts)) != ring.one:
        raise AssertionError("primitive idempotents do not sum to 1")
    factors = []
    for e, p, (r_1, *r_rest), frobenius in parts:
        spanning = [ring.add(ring.sub(ring.one, e), ring.mul(e, r_1))]
        spanning += [g for g in (ring.mul(e, r) for r in r_rest) if g != ring.zero]
        images = ring.images(spanning)
        mask = ring.shifts.closure(images)
        support = rings._support(ring, p)
        rows, pivots = _echelon([[x[i] for i in support] for x in images], p)
        residue = rings._residue_frobenius(frobenius, rows, pivots, p)
        if ring.size != mask.bit_count() * p ** len(residue) or not _is_field(residue, p):
            raise AssertionError(f"{ring.label}: quotient by a maximal ideal is not a field")
        rows = tuple(map(tuple, rows))
        factors.append((e, mask, tuple(spanning), p, rows, tuple(pivots)))
    return factors, sorted(mask for _, mask, *_ in factors)


# -- irreducible polynomials by factor search ----------------------------------------


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def poly_divisible(f, g, p) -> bool:
    """Whether monic g divides f over Z/p (coefficients low degree first)."""
    rem = [c % p for c in f]
    dg = len(g) - 1
    while len(_poly_trim(rem)) - 1 >= dg:
        rem = _poly_trim(rem)
        shift = len(rem) - 1 - dg
        c = rem[-1]
        for j, gj in enumerate(g):
            rem[shift + j] = (rem[shift + j] - c * gj) % p
    return not _poly_trim(rem)


def is_irreducible_by_search(f, p) -> bool:
    """Whether monic f of degree k >= 1 has no monic factor of degree 1 to
    k/2 over Z/p, trying each one."""
    k = len(f) - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if poly_divisible(f, list(tail) + [1], p):
                return False
    return True


def smallest_irreducible_by_search(p, k) -> list:
    """The first monic irreducible of degree k over Z/p in the order of
    (c_0, ..., c_{k-1})."""
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if is_irreducible_by_search(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")
