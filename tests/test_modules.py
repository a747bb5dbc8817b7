import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcover.dsl import parse_module, parse_ring
from modcover.errors import GuardExceeded
from modcover.modules import (
    LATTICE_GUARD,
    ModulePresentation,
    RealizedModule,
    Submodule,
    _field_multiples,
    _residue_span,
    all_submodules,
    cyclic_sum,
    direct_sum,
    free_module,
    hdim,
    hyperplanes,
    ideal_action,
    is_cyclic,
    jacobson_radical,
    lattice_coatoms,
    length,
    localize_at_s,
    maximal_submodules,
    quotient_module,
    radical_via_ideals,
    radical_via_maximal,
    realize,
    s_set,
    semisimple_invariants,
    submodule_generated,
)
from modcover.rings import (
    FiniteRing,
    Ideal,
    _Coordinates,
    basis_vectors,
    ideal_generated,
    maximal_ideals,
    ring_gf,
    ring_product,
    ring_zmod,
)

import oracles
from oracles import (
    MIXED_PRODUCTS,
    PINNED_RINGS,
    POLY_DEGREES,
    TINY_CASES,
    elements,
    member_indices,
    monic_polynomials,
    poly_ring,
    zmod_module,
)


def brute_submodule_masks(m):
    """Subset-filter oracle: every subset closed under subtraction and
    the ring action. Only viable for tiny modules."""
    assert m.size <= 16
    elems = elements(m)
    masks = set()
    for bits in range(1 << m.size):
        if not bits & 1:  # zero is index 0
            continue
        members = [i for i in range(m.size) if bits >> i & 1]
        ok = True
        for i in members:
            for j in members:
                d = m.index_of(m.sub(elems[i], elems[j]))
                if not bits >> d & 1:
                    ok = False
                    break
            if not ok:
                break
            for r in elements(m.ring):
                if not bits >> m.index_of(m.act(r, elems[i])) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            masks.add(bits)
    return masks


def cyclic_closure(m, idx):
    return submodule_generated(m, [idx]).members


def simple_submodule_by_descent(m, rng=None):
    """Reference: some simple (minimal nonzero) submodule, found by
    descending through cyclic submodules until none is smaller."""
    order = list(range(1, m.size))  # the nonzero indices
    if rng is not None:
        rng.shuffle(order)
    idx = order[0]
    current = cyclic_closure(m, idx)
    while True:
        for y in order:
            if current >> y & 1:
                inner = cyclic_closure(m, y)
                if inner.bit_count() < current.bit_count():
                    idx, current = y, inner
                    break
        else:
            return submodule_generated(m, [idx])


def length_by_descent(m, rng=None):
    """Reference composition length: quotient out simple submodules until
    nothing is left; `rng` shuffles which simple submodule is taken."""
    total = 0
    while m.size > 1:
        m, _, _ = quotient_module(m, simple_submodule_by_descent(m, rng))
        total += 1
    return total


# -- realization ---------------------------------------------------------------


def test_free_module_over_z6_has_36_elements():
    m = free_module(ring_zmod(6), 2)
    assert m.size == 36


def test_cyclic_sum_invariants():
    m = zmod_module(6, [2, 2, 3])
    assert m.size == 12
    assert sorted(m.orders) == [2, 6]
    m.axiom_check()


def test_realize_respects_relations():
    R = ring_zmod(4)
    # Z/2 (+) Z/4 over Z/4
    m = realize(ModulePresentation(R, 2, (((2,), (0,)),)))
    assert m.size == 8
    assert sorted(m.orders) == [2, 4]


@pytest.mark.parametrize(
    "ring, relation, message",
    [
        (ring_gf(2, 2), ((1,),), "relation entry"),  # an entry too short
        (ring_gf(2, 2), ((1, 5, 7),), "relation entry"),  # an entry too long
        (ring_zmod(6), (7,), "relation entry"),  # a bare int, not a coordinate tuple
        (ring_zmod(6), 7, "arity"),  # a bare int, not a relation
    ],
)
def test_presentation_rejects_malformed_relation_entries(ring, relation, message):
    # each relation is a tuple of k entries, each a tuple of ring.rank
    # ints, or the presentation is refused before anything is realized
    with pytest.raises(ValueError, match=message):
        ModulePresentation(ring, 1, (relation,))


@pytest.mark.parametrize("gens", [-2, True, 2.0])
def test_presentation_rejects_a_bad_generator_count(gens):
    # a negative count would realize as the zero module under a label that
    # does not parse back; a bool or a float is not a count
    with pytest.raises(ValueError, match="generator count"):
        ModulePresentation(ring_zmod(4), gens, ())


def test_realize_intermediate_guard(monkeypatch):
    # |R|^k is capped before the Smith normal form runs, also when the
    # relations would leave a small module
    import sys

    import modcover.snf as snf

    def no_snf(*args):
        raise AssertionError("abelian_quotient ran")

    # every binding of it, whichever module calls it
    patched = [
        mod
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "modcover"
        and getattr(mod, "abelian_quotient", None) is snf.abelian_quotient
    ]
    for mod in patched:
        monkeypatch.setattr(mod, "abelian_quotient", no_snf)
    assert len(patched) >= 2  # snf itself and its caller
    z2 = ring_zmod(2)
    units = tuple(tuple(z2.one if j == i else z2.zero for j in range(1000)) for i in range(1000))
    for build in (
        lambda: realize(ModulePresentation(ring_zmod(64), 4, ())),
        lambda: realize(ModulePresentation(z2, 5000, ())),
        lambda: cyclic_sum(ring_zmod(4), [(2,)] * 1000),
        lambda: realize(ModulePresentation(z2, 1000, units)),
    ):
        with pytest.raises(GuardExceeded) as exc:
            build()
        assert exc.value.guard == "realize-intermediate"


def test_module_size_guard_env(monkeypatch):
    monkeypatch.setenv("MODCOVER_MAX_MODULE", "8")
    with pytest.raises(GuardExceeded):
        free_module(ring_zmod(3), 2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_presentations_satisfy_module_axioms(data):
    n = data.draw(st.sampled_from([2, 3, 4, 6, 8, 9]))
    R = ring_zmod(n)
    k = data.draw(st.integers(1, 2))
    nrels = data.draw(st.integers(0, 2))
    rels = tuple(
        tuple((data.draw(st.integers(0, n - 1)),) for _ in range(k))
        for _ in range(nrels)
    )
    m = realize(ModulePresentation(R, k, rels))
    assert n**k % m.size == 0
    m.axiom_check()


# -- submodules -------------------------------------------------------------------


def test_all_submodules_against_subset_filter_oracle():
    cases = [
        free_module(ring_zmod(2), 2),
        free_module(ring_zmod(3), 2),
        cyclic_sum(ring_zmod(8), [(0,)]),
        zmod_module(4, [2, 4]),
        zmod_module(6, [2, 3]),
    ]
    for m in cases:
        got = {s.members for s in all_submodules(m)}
        assert got == brute_submodule_masks(m)


def test_all_submodules_counts():
    # subspace counts: (Z/2)^2 has 5, (Z/3)^2 has 6; Z/8 has one per divisor
    assert len(all_submodules(free_module(ring_zmod(2), 2))) == 5
    assert len(all_submodules(free_module(ring_zmod(3), 2))) == 6
    assert len(all_submodules(cyclic_sum(ring_zmod(8), [(0,)]))) == 4


def test_all_submodules_size_guard():
    m = free_module(ring_gf(2, 3), 3)  # 512 elements
    with pytest.raises(GuardExceeded):
        all_submodules(m)


def test_submodule_generated_matches_oracle():
    m = zmod_module(4, [2, 4])
    oracle = brute_submodule_masks(m)
    for idx in range(m.size):
        s = submodule_generated(m, [idx])
        assert s.members in oracle
        # smallest closed superset containing idx
        assert all(
            not (om >> idx & 1) or om & s.members == s.members or om == s.members
            for om in oracle
            if om & s.members == s.members or not om >> idx & 1
        )


def test_maximal_submodules_counts():
    assert len(maximal_submodules(free_module(ring_zmod(2), 2))) == 3
    assert len(maximal_submodules(free_module(ring_zmod(3), 2))) == 4
    assert len(maximal_submodules(cyclic_sum(ring_zmod(8), [(0,)]))) == 1
    assert len(maximal_submodules(cyclic_sum(ring_zmod(12), [(0,)]))) == 2
    assert len(maximal_submodules(zmod_module(4, [2, 4]))) == 3


@pytest.mark.parametrize(
    "text, reads",
    [
        ("free 1 over Z/157", 0),
        ("free 2 over Z/7", 1),
        ("free 3 over Z/3", 2),
        ("free 2 over GF(2^3)", 3),
    ],
)
def test_hyperplanes_scale_only_a_lead_vector_with_a_tail(text, reads, monkeypatch):
    # the multiples c*u_l of the lead vector are read only by the vectors
    # after it, so the last lead index scales nothing; the others are
    # combinations of the f rows b_i·u_l over R/m's residue columns, f the
    # degree of R/m, and no product is made
    import modcover.modules

    m = parse_module(text)
    semisimple_invariants(m)
    acts, row_reads, scaling = [], [], []
    act, row_image = RealizedModule.act, _Coordinates.row_image
    field_multiples = modcover.modules._field_multiples

    def counted_row_image(self, i, x):
        if scaling:  # inside `_field_multiples`, not a span
            row_reads.append(i)
        return row_image(self, i, x)

    def scaled(*args):
        scaling.append(1)
        try:
            return field_multiples(*args)
        finally:
            scaling.pop()

    monkeypatch.setattr(RealizedModule, "act", counted(act, acts))
    monkeypatch.setattr(_Coordinates, "row_image", counted_row_image)
    monkeypatch.setattr(modcover.modules, "_field_multiples", scaled)
    assert len(maximal_submodules(m)) == sum(
        e.residue_size ** k for e in semisimple_invariants(m) for k in range(e.multiplicity)
    )
    assert acts == []
    assert len(row_reads) == reads


def test_maximal_submodules_are_maximal_in_the_lattice():
    for m in [free_module(ring_zmod(2), 2), zmod_module(6, [2, 2, 3])]:
        lattice = [s.members for s in all_submodules(m) if s.is_proper()]
        maximal = {
            s
            for s in lattice
            if not any(s != t and s & ~t == 0 for t in lattice)
        }
        assert {s.members for s in maximal_submodules(m)} == maximal


def assert_residue_layer_matches_the_references(m):
    # mM, each greedy step of the basis of M/mM, each hyperplane, each
    # multiple c·u and `construct_cover`'s plane, against the products,
    # R-spans and per-c products that built them before
    for ideal in maximal_ideals(m.ring):
        reference = oracles.ideal_action_by_products(m, ideal)
        assert ideal_action(m, ideal).members == reference.members
    for entry in semisimple_invariants(m):
        span = _residue_span(m, entry.ideal)
        steps = oracles.residue_steps_by_span(m, entry.nm)
        assert tuple(m.element(i) for i, _ in steps) == entry.basis
        start = entry.nm
        for u, (_, mask) in zip(entry.basis, steps):
            start = span([u], start)
            assert start == mask
        for u in entry.basis[:-1]:
            got = _field_multiples(m, entry.ideal, u)
            assert got == oracles.field_multiples_by_act(m, entry.ideal, u)
        planes = [(entry.nm, entry.basis)]
        if entry.multiplicity >= 2:
            u, w, *rest = entry.basis
            assert span(rest, entry.nm) == m.span(rest, entry.nm)
            planes.append((span(rest, entry.nm), (w, u)))
        for start, basis in planes:
            got = [s.members for s in hyperplanes(m, entry, start, basis)]
            assert got == oracles.hyperplanes_by_span(m, entry.ideal, start, basis)


def test_residue_layer_matches_the_references_on_the_corpus():
    for m in oracles.corpus_modules():
        assert_residue_layer_matches_the_references(m)


# R and R^2 over the pinned rings and GF(2^2) x Z/9, whose residue
# fields are prime and not; R^2 only where the realize guard admits |R|^2
RESIDUE_LAYER_MODULES = (
    [f"free 1 over {text}" for text in PINNED_RINGS + ["GF(2^2) x Z/9"]]
    + [
        f"free 2 over {text}"
        for text in ["Z/360", "GF(2^7)", "Z/12 x Z/10", "GF(3^5)", "GF(2^2) x Z/9"]
    ]
    + ["Z/6 (+) Z/6 over Z/6", "free 3 over Z/3", "free 2 over GF(2^3)", "free 2 over GF(3^2)"]
)


@pytest.mark.parametrize("text", RESIDUE_LAYER_MODULES)
def test_residue_layer_matches_the_references(text, monkeypatch):
    monkeypatch.setenv("MODCOVER_MAX_MODULE", str(360**2))
    assert_residue_layer_matches_the_references(parse_module(text))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("times_z3", [False, True], ids=["GF(4)", "Z/3 x GF(4)"])
def test_residue_layer_matches_the_references_when_one_is_not_the_first_column(
    k, times_z3
):
    # over GF(4) on the basis (x, 1) the residue of 1 is zero on the first
    # residue column, so the span columns must leave out the second
    ring = oracles.gf4_on_x_and_1()
    if times_z3:
        ring = ring_product(ring_zmod(3), ring)
    m = free_module(ring, k)
    columns = {e.residue_size: e.ideal.span_columns for e in semisimple_invariants(m)}
    assert columns[4] == (ring.rank - 2,)  # x's column, not 1's
    assert_residue_layer_matches_the_references(m)


def test_hyperplanes_reject_a_start_without_mm():
    # over F_p a span over the start is an additive closure, which is a
    # submodule only when the start holds mM; an explicit check, not an
    # assert, so that it holds under python -O too
    m = parse_module("free 2 over Z/4")
    (entry,) = semisimple_invariants(m)
    assert entry.nm != 1
    with pytest.raises(ValueError, match="mM"):
        hyperplanes(m, entry, 1, entry.basis)
    assert len(hyperplanes(m, entry, entry.nm, entry.basis)) == 3


@pytest.mark.parametrize("text", ["free 2 over Z/13", "Z/6 (+) Z/6 over Z/6"])
def test_residue_layer_over_prime_fields_takes_no_images_on_m(text, monkeypatch):
    # every span over mM is an additive closure when R/m = F_p, and mM is
    # read off the module table; the ring's images of an ideal's spanning
    # elements, its additive generators, are read on R
    m = parse_module(text)
    maximal_ideals(m.ring)
    calls = []
    images = _Coordinates.images

    def counted_images(self, elems):
        if self is m:
            calls.append(1)
        return images(self, elems)

    monkeypatch.setattr(_Coordinates, "images", counted_images)
    assert semisimple_invariants(m) and maximal_submodules(m)
    assert calls == []


@pytest.mark.parametrize(
    "text", ["free 2 over Z/6", "free 2 over GF(2^2) x Z/9", "Z/2 (+) Z/4 over Z/12"]
)
def test_ideal_action_makes_no_product(text, monkeypatch):
    # `mul` and `act` are aliases of `_product` bound when their classes
    # were made, so each is patched
    m = parse_module(text)
    ideals = maximal_ideals(m.ring)
    calls = []
    for cls, name in (_Coordinates, "_product"), (FiniteRing, "mul"), (RealizedModule, "act"):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name), calls))
    assert all(ideal_action(m, ideal).size > 1 for ideal in ideals)
    assert calls == []


@pytest.mark.parametrize("text, closures", [("free 2 over Z/2", 4), ("free 3 over Z/2", 9)])
def test_hyperplanes_close_each_lead_vector_once(text, closures, monkeypatch):
    # one closure per hyperplane, and each lead start is the previous one
    # with one more vector closed in
    m = parse_module(text)
    (entry,) = semisimple_invariants(m)
    calls = []
    monkeypatch.setattr(_Coordinates, "closure", counted(_Coordinates.closure, calls))
    count = len(hyperplanes(m, entry, entry.nm, entry.basis))
    assert len(calls) == closures == count + entry.multiplicity - 1


def oracle_modules(max_size=None):
    """TINY_CASES and the 200 seed-1 corpus modules."""
    modules = [make() for make in oracles.TINY_CASES] + oracles.corpus_modules()
    return [m for m in modules if max_size is None or m.size <= max_size]


def test_maximal_submodules_match_the_elementwise_pullback():
    # reference: keep each x with proj(x) in ker φ, generators from
    # elementwise closures
    for m in oracle_modules():
        got = [(s.members, s.generators) for s in maximal_submodules(m)]
        assert got == oracles.maximal_submodules(m), m.label


def test_residue_basis_is_the_least_index_greedy_over_mm():
    for m in oracle_modules():
        for entry in semisimple_invariants(m):
            assert entry.basis == oracles.residue_basis(m, entry.ideal), m.label


def test_all_submodules_match_the_sumset_join():
    for m in oracle_modules(max_size=64):
        got = [(s.members, s.generators) for s in all_submodules(m)]
        assert got == oracles.all_submodules(m), m.label


# The sigma-search benchmark's module classes with |M| <= 64, and two whose
# cyclics have many generators: all 60 nonzero elements of Z/61 generate
# it, and on the Z/54 module of exponent 6 the maximal ideals (2) and (3)
# of both local factors act as zero, so every m_e·Rx is zero.
LATTICE_CASES = [
    "free 3 over Z/2",
    "free 4 over Z/2",
    "free 2 over Z/3",
    "free 3 over Z/3",
    "free 2 over GF(2^2)",
    "free 3 over GF(2^2)",
    "free 2 over Z/5",
    "free 2 over Z/7",
    "free 2 over GF(2^3)",
    "free 2 over Z/2 x Z/2",
    "free 3 over Z/2 x Z/2",
    "free 2 over Z/2 x Z/3",
    "Z/2 (+) Z/2 over Z/4",
    "Z/2 (+) Z/2 (+) Z/2 over Z/4",
    "Z/2 (+) Z/4 over Z/8",
    "Z/4 (+) Z/4 over Z/8",
    "Z/3 (+) Z/3 over Z/9",
    "Z/3 (+) Z/9 over Z/9",
    "Z/6 (+) Z/6 over Z/6",
    "Z/2 (+) Z/2 (+) Z/3 over Z/6",
    "Z/10 (+) Z/5 over Z/10",
    "free 1 over Z/61",
    "module over Z/54: gens=3; rels=[(2,0,0), (0,3,0), (0,0,6)]",
    # the product over the local factors: three factors on one coordinate,
    # so the idempotents cut across coordinates; a factor with eM = 0; a
    # local factor that is not a field; two composite coordinates; three
    # factors of one residue field
    "free 1 over Z/30",
    "Z/2 (+) Z/2 over Z/6",
    "free 2 over Z/4 x Z/2",
    "Z/6 (+) Z/10 over Z/30",
    "free 1 over Z/2 x Z/2 x Z/2",
]


@pytest.mark.parametrize("label", LATTICE_CASES)
def test_all_submodules_match_every_join(label):
    m = parse_module(label)
    assert m.size <= 64
    got = [(s.members, s.generators) for s in all_submodules(m)]
    assert got == oracles.all_submodules_by_every_join(m)


def test_all_submodules_closure_count(monkeypatch):
    # skipping the joins whose result is known cut this from 13,847
    # closures to 2,409; walking each local factor's interval and joining
    # the two by AND cut it to 90. The count is exact, so any growth shows
    m = parse_module("free 3 over Z/2 x Z/2")
    m.ring.units()  # stored ring facts, so that only the walk is counted
    calls = 0
    closure = _Coordinates.closure

    def counting(self, gens, start=1):
        nonlocal calls
        calls += 1
        return closure(self, gens, start)

    monkeypatch.setattr(_Coordinates, "closure", counting)
    assert len(all_submodules(m)) == 256
    assert calls == 90


def counted(f, calls):
    """f, appending to the list `calls` on each call."""

    def call(*args, **kwargs):
        calls.append(1)
        return f(*args, **kwargs)

    return call


@pytest.mark.parametrize(
    "label, closures",
    [
        # acting with each of the 60 units on 0 and 1 took 182 products
        ("free 1 over Z/61", 5),
        # and here, with 18 units, 58
        ("module over Z/54: gens=3; rels=[(2,0,0), (0,3,0), (0,0,6)]", 27),
        # the maximal ideal (2) of Z/8 moves these elements, so each
        # cyclic also closes its m·Rx: 28 products and 54 closures when
        # the walk cleared each unit orbit
        ("Z/4 (+) Z/4 over Z/8", 60),
    ],
)
def test_all_submodules_products_and_closures(label, closures, monkeypatch):
    # no product: the e·e_t and (1−e)·e_t of each local factor are read
    # off the table's rows by `multiples`, and every m_e·x off the images
    # of x. `mul` and `act` are aliases of `_product` bound when their
    # classes were made, so each is patched
    m = parse_module(label)
    maximal_ideals(m.ring)  # stored ring facts, so that only the walk is counted
    product_calls, closure_calls = [], []
    for cls, name in (_Coordinates, "_product"), (FiniteRing, "mul"), (RealizedModule, "act"):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name), product_calls))
    monkeypatch.setattr(_Coordinates, "closure", counted(_Coordinates.closure, closure_calls))
    all_submodules(m)
    assert (len(product_calls), len(closure_calls)) == (0, closures)


def test_all_submodules_reads_no_multiple_over_a_product_of_fields(monkeypatch):
    # Z/6 is Z/2 x Z/3: each eJ is zero, so no a·x is formed
    import modcover.modules

    m = parse_module("free 2 over Z/6")
    calls = []
    combine = modcover.modules.combine
    monkeypatch.setattr(modcover.modules, "combine", counted(combine, calls))
    assert len(all_submodules(m)) == 5 * 6
    assert calls == []


# Z/4[x]/(x^2) is local with the maximal ideal (2, x), which no one element
# generates; its coordinates are those of a + bx. The counts are the
# oracle's.
NON_PRINCIPAL = [
    (1, (), 7),  # R: 0, (2x), (x), (2), (2 + x), (2, x) and R
    (2, (((2, 0), (0, 0)), ((0, 0), (0, 1))), 13),  # R/(2) (+) R/(x)
    (2, (((0, 1), (0, 0)), ((0, 0), (0, 1))), 15),  # R/(x) (+) R/(x)
    (3, (((2, 0), (0, 0), (0, 0)), ((0, 0), (0, 1), (0, 0)), ((0, 0), (0, 0), (2, 1))), 81),
]


@pytest.mark.parametrize("k, rels, count", NON_PRINCIPAL)
def test_all_submodules_over_a_non_principal_local_ring(k, rels, count, monkeypatch):
    ring = poly_ring(4, [0, 0, 1])
    units = []
    monkeypatch.setattr(FiniteRing, "units", counted(FiniteRing.units, units))
    m = realize(ModulePresentation(ring, k, rels))
    got = [(s.members, s.generators) for s in all_submodules(m)]
    assert units == []  # neither realize nor the walk lists units
    assert got == oracles.all_submodules_by_every_join(m)
    assert len(got) == count


@pytest.mark.parametrize("k, rels, count", NON_PRINCIPAL)
def test_residue_layer_matches_the_references_over_a_non_principal_ring(k, rels, count):
    ring = poly_ring(4, [0, 0, 1])
    assert_residue_layer_matches_the_references(realize(ModulePresentation(ring, k, rels)))


def test_all_submodules_budget_trips_only_past_the_lattice_size(monkeypatch):
    import modcover.modules

    m = parse_module("free 3 over Z/2 x Z/2")
    for budget in (1, 17, 100, 255):
        monkeypatch.setattr(modcover.modules, "LATTICE_COUNT_BUDGET", budget)
        with pytest.raises(GuardExceeded) as exc:
            all_submodules(m)
        assert exc.value.guard == "lattice-count"
    monkeypatch.setattr(modcover.modules, "LATTICE_COUNT_BUDGET", 256)
    assert len(all_submodules(m)) == 256


def test_lattice_coatoms_match_the_containment_scan():
    modules = [make() for make in TINY_CASES] + oracles.small_corpus_modules()
    for m in modules:
        got = [s.members for s in lattice_coatoms(m)]
        assert got == sorted(oracles.coatoms_by_containment(m)), m.label
    assert len(modules) > 600  # 675


def test_lattice_coatoms_are_the_maximal_submodules():
    # read off the lattice walk with no hyperplane fact, and past |M| = 64
    # on intervals of up to 2,825 masks (F_2^6) and on two factors of 67
    modules = [make() for make in TINY_CASES] + oracles.small_corpus_modules()
    modules += [parse_module(t) for t in ("free 6 over Z/2", "free 4 over Z/2 x Z/2")]
    for m in modules:
        got = [s.members for s in lattice_coatoms(m)]
        assert got == [s.members for s in maximal_submodules(m)], m.label


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# semisimple modules: (label, the (q, n) of each factor F_q^n)
SEMISIMPLE_LATTICES = [
    ("free 3 over Z/2 x Z/3", [(2, 3), (3, 3)]),  # 16 x 28 = 448
    ("free 4 over Z/2 x Z/2", [(2, 4), (2, 4)]),  # 67^2 = 4489, |M| = 256
    ("free 2 over Z/2 x Z/2 x Z/2", [(2, 2)] * 3),
    ("free 2 over GF(2^2) x Z/3", [(4, 2), (3, 2)]),
    ("free 4 over Z/3", [(3, 4)]),
]


@pytest.mark.parametrize("label,factors", SEMISIMPLE_LATTICES)
def test_semisimple_lattice_sizes_match_the_subspace_counts(label, factors):
    # a semisimple module is ⊕ F_q^n over its factors, so its lattice is
    # the product of the subspace lattices: Π Σ_k [n choose k]_q
    expected = 1
    for q, n in factors:
        expected *= sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    m = parse_module(label)
    assert len(all_submodules(m)) == expected


def test_all_submodules_budget_at_the_lattice_guard(monkeypatch):
    import modcover.modules

    m = parse_module("free 4 over Z/2 x Z/2")
    assert m.size == LATTICE_GUARD
    monkeypatch.setattr(modcover.modules, "LATTICE_COUNT_BUDGET", 4488)
    with pytest.raises(GuardExceeded) as exc:
        all_submodules(m)
    assert exc.value.guard == "lattice-count"
    monkeypatch.setattr(modcover.modules, "LATTICE_COUNT_BUDGET", 4489)
    assert len(all_submodules(m)) == 67**2


def test_is_cyclic_matches_the_least_index_sweep():
    for m in oracle_modules() + [free_module(ring_gf(5), 5)]:
        assert is_cyclic(m) == oracles.cyclic_witness(m), m.label


def test_free_5_over_gf5_without_element_sweeps():
    # |M| = 3125: large enough that per-element sweeps per hyperplane
    # would take most of a minute
    from modcover.covering import construct_cover, verify_cover

    m = free_module(ring_gf(5), 5)
    assert not is_cyclic(m)[0]
    assert length(m) == 5
    assert hdim(m) == 5
    assert jacobson_radical(m).size == 1
    maximal = maximal_submodules(m)
    assert len(maximal) == 781  # (5^5 - 1) / (5 - 1)
    assert {s.size for s in maximal} == {625}
    cert = construct_cover(m)
    assert cert.is_cover and cert.size == 6
    assert verify_cover(m, cert.submodules)


# -- quotients, radical -------------------------------------------------------------


def test_quotient_module_by_diagonal():
    m = free_module(ring_zmod(2), 2)
    diag = submodule_generated(m, [m.index_of((1, 1))])
    q, project, _ = quotient_module(m, diag)
    assert q.size == 2
    assert project((1, 1)) == q.zero
    assert project((1, 0)) != q.zero


def test_radical_of_z8_is_2z8():
    m = cyclic_sum(ring_zmod(8), [(0,)])
    rad = jacobson_radical(m)
    assert {m.element(i)[0] for i in member_indices(rad)} == {0, 2, 4, 6}


def test_radical_two_computations_agree_on_assorted_modules():
    cases = [
        free_module(ring_zmod(2), 2),
        cyclic_sum(ring_zmod(12), [(0,)]),
        zmod_module(4, [2, 4]),
        zmod_module(6, [2, 2, 3]),
        free_module(ring_gf(2, 2), 2),
    ]
    for m in cases:
        assert radical_via_maximal(m) == radical_via_ideals(m)


def test_quotient_by_radical_has_zero_radical():
    for m in [cyclic_sum(ring_zmod(8), [(0,)]), zmod_module(4, [2, 4])]:
        top, _, _ = quotient_module(m, jacobson_radical(m))
        assert jacobson_radical(top).size == 1


def test_the_map_onto_the_top_is_onto():
    # q : M -> Π M/mM has kernel J(M) = ∩ mM, and the mM are pairwise
    # comaximal, so q is onto: |M| / |J(M)| = Π q_m^{d_m}
    for m in oracles.corpus_modules():
        top = math.prod(e.residue_size**e.multiplicity for e in semisimple_invariants(m))
        assert jacobson_radical(m).size * top == m.size, m.label


def test_ideal_action_on_z8():
    m = cyclic_sum(ring_zmod(8), [(0,)])
    (ideal,) = maximal_ideals(m.ring)
    assert ideal_action(m, ideal).size == 4


# -- length, hdim, cyclicity --------------------------------------------------------


LENGTH_EXAMPLES = [
    (lambda: cyclic_sum(ring_zmod(8), [(0,)]), 3),
    (lambda: cyclic_sum(ring_zmod(12), [(0,)]), 3),
    (lambda: free_module(ring_zmod(2), 2), 2),
    (lambda: free_module(ring_zmod(6), 2), 4),
    (lambda: free_module(ring_gf(2, 2), 2), 2),
]


@pytest.mark.parametrize("make,want", LENGTH_EXAMPLES)
def test_length_examples(make, want):
    assert length(make()) == want


def snf_comparison_modules():
    return (
        [make() for make in oracles.TINY_CASES]
        + [make() for make, _ in LENGTH_EXAMPLES]
        + oracles.corpus_modules()
    )


def test_length_matches_the_smith_normal_form():
    # |eM| as the closure of the e·e_t against |M/(1-e)M| from an SNF
    for m in snf_comparison_modules():
        assert length(m) == oracles.length_by_snf(m), m.label


def small_corpus_modules():
    return [m for m in oracles.corpus_modules() if m.size <= 64]


def test_length_closed_form_matches_descent():
    # the closed form from the local factorization against simple-submodule
    # descents in 8 shuffled orders (Jordan-Hölder: all must agree)
    modules = [zmod_module(12, [2, 4, 3])]
    modules += [make() for make, _ in LENGTH_EXAMPLES] + small_corpus_modules()
    for m in modules:
        want = length(m)
        for seed in range(8):
            assert length_by_descent(m, random.Random(seed)) == want, m.label


HDIM_EXAMPLES = [
    (lambda: cyclic_sum(ring_zmod(8), [(0,)]), 1),
    (lambda: free_module(ring_zmod(2), 2), 2),
    (lambda: zmod_module(4, [2, 4]), 2),
    (lambda: zmod_module(6, [2, 2, 3]), 3),
]


@pytest.mark.parametrize("make,want", HDIM_EXAMPLES)
def test_hdim_examples(make, want):
    assert hdim(make()) == want


def test_hdim_is_the_length_of_the_top():
    # hdim is Σ dim M/mM; the length of M/J(M) is its second path
    modules = [make() for make, _ in HDIM_EXAMPLES] + small_corpus_modules()
    for m in modules:
        top, _, _ = quotient_module(m, jacobson_radical(m))
        assert length(top) == hdim(m), m.label


def test_hdim_additive_over_direct_sums():
    R = ring_zmod(6)
    parts = [
        cyclic_sum(R, [(2,)]),
        cyclic_sum(R, [(3,)]),
        zmod_module(6, [2, 3]),
        free_module(R, 1),
    ]
    for a, b in itertools.combinations(parts, 2):
        assert hdim(direct_sum(a, b)) == hdim(a) + hdim(b)


def test_cyclicity():
    cyclic, witness = is_cyclic(zmod_module(6, [2, 3]))
    assert cyclic
    m = zmod_module(6, [2, 3])
    assert len(
        member_indices(submodule_generated(m, [m.index_of(witness)]))
    ) == m.size
    assert not is_cyclic(free_module(ring_zmod(2), 2))[0]


def test_cyclic_iff_s_empty():
    cases = [
        zmod_module(6, [2, 3]),
        zmod_module(6, [2, 2]),
        free_module(ring_zmod(4), 1),
        zmod_module(4, [2, 4]),
        free_module(ring_gf(3), 2),
    ]
    for m in cases:
        assert is_cyclic(m)[0] == (not s_set(m))


# -- semisimple invariants, localization ------------------------------------------


def test_semisimple_invariants_mixed():
    m = zmod_module(6, [2, 2, 3])
    got = sorted((e.residue_size, e.multiplicity) for e in semisimple_invariants(m))
    assert got == [(2, 2), (3, 1)]
    assert [(e.residue_size, e.multiplicity) for e in s_set(m)] == [(2, 2)]


def test_localize_projects_onto_s_factors():
    m = zmod_module(6, [2, 2, 3])
    localized, project = localize_at_s(m)
    assert localized.size == 4
    assert sorted(localized.orders) == [2, 2]
    assert localized.ring.size == 2
    # surjective, kernel is the non-S part
    assert len({project(x) for x in elements(m)}) == 4

    m2 = zmod_module(6, [3, 3, 2])
    loc2, _ = localize_at_s(m2)
    assert sorted(loc2.orders) == [3, 3]
    assert loc2.ring.size == 3


def test_localize_identity_when_s_is_everything():
    m = free_module(ring_zmod(2), 2)
    localized, _ = localize_at_s(m)
    assert localized.size == m.size
    assert localized.ring.size == m.ring.size


def test_localize_requires_nonempty_s():
    with pytest.raises(ValueError):
        localize_at_s(free_module(ring_zmod(6), 1))


def test_localization_matches_its_own_quotient_construction():
    # localize_at_s acts on quotient_module(M, (1-e)M); the reference
    # builds R/(1-e)R and M/(1-e)M from its own SNFs, multiplies lifts in R
    # for the ring's table and acts through the lifts on M; the corpus
    # holds every localization of the seed-1 verify report
    localized = 0
    for m in snf_comparison_modules():
        if not s_set(m):
            continue
        got, project = localize_at_s(m)
        want, want_project = oracles.localize_at_s(m)
        assert (got.ring.table, got.ring.one) == (want.ring.table, want.ring.one)
        assert got.orders == want.orders, m.label
        assert got.table == want.table, m.label
        assert all(project(x) == want_project(x) for x in elements(m)), m.label
        localized += 1
    assert localized >= 40


def test_localized_invariants_match_s_entries():
    m = zmod_module(6, [2, 2, 3])
    s_before = sorted(
        (e.residue_size, e.multiplicity) for e in s_set(m)
    )
    localized, _ = localize_at_s(m)
    inv_after = sorted(
        (e.residue_size, e.multiplicity) for e in semisimple_invariants(localized)
    )
    assert inv_after == s_before


# -- direct sums ------------------------------------------------------------------


def test_direct_sum_size_and_presentation_round_trip():
    from modcover.dsl import parse_module
    from modcover.harness import HDIM_PAIR_BUDGET, corpus_generate, hdim_pairs_from_specs

    a = zmod_module(6, [2])
    b = zmod_module(6, [3, 6])
    c = direct_sum(a, b)
    assert c.size == a.size * b.size
    again = parse_module(c.presentation.to_dsl())
    assert again.size == c.size
    # direct_sum concatenates cyclic orders; realize canonicalizes them,
    # so compare isomorphism invariants rather than raw coordinates
    assert length(again) == length(c)
    assert hdim(again) == hdim(c)

    # over the seed-1 hdim pairs within their budget, the block-diagonal
    # presentation realizes a module of direct_sum's size and invariants,
    # unless R^(ka + kb) is past the guard that caps the Smith form
    def invariants(m):
        return [(e.ideal.members, e.multiplicity) for e in semisimple_invariants(m)]

    checked = 0
    for spec_a, spec_b in hdim_pairs_from_specs(corpus_generate(1, 200), 50):
        a, b = spec_a.module, spec_b.module
        if a.size * b.size > HDIM_PAIR_BUDGET:
            continue
        try:
            summed = realize(a.presentation.direct_sum(b.presentation))
        except GuardExceeded as exc:
            assert exc.guard == "realize-intermediate"
            continue
        c = direct_sum(a, b)
        assert summed.presentation == c.presentation
        assert (summed.size, invariants(summed)) == (c.size, invariants(c))
        checked += 1
    assert checked >= 30  # 32 of the 34 within budget


def test_direct_sum_requires_same_ring():
    with pytest.raises(ValueError):
        direct_sum(free_module(ring_zmod(2), 1), free_module(ring_zmod(3), 1))


def relabelled(ring, label):
    return FiniteRing(ring.orders, ring.table, ring.one, label)


def test_direct_sum_rejects_different_rings_with_one_label():
    # GF(4) and Z/2 x Z/2 have the same additive group but not the same
    # product; the label alone must not make them one ring
    a = free_module(relabelled(ring_gf(2, 2), "R"), 1)
    b = free_module(relabelled(ring_product(ring_zmod(2), ring_zmod(2)), "R"), 1)
    with pytest.raises(ValueError):
        direct_sum(a, b)
    with pytest.raises(ValueError, match="same ring"):
        a.presentation.direct_sum(b.presentation)


def test_direct_sum_accepts_a_rebuilt_copy_of_the_ring():
    r = ring_gf(2, 2)
    total = direct_sum(free_module(r, 1), free_module(relabelled(r, "copy"), 1))
    total.axiom_check()
    assert total.size == 16 and hdim(total) == 2


def test_zero_module_degenerate_invariants():
    m = cyclic_sum(ring_zmod(2), [(1,)])  # R/(1) = 0
    assert m.size == 1
    assert length(m) == 0
    assert hdim(m) == 0
    assert s_set(m) == []
    assert is_cyclic(m)[0]


# -- pointwise examples -------------------------------------------------------------


def test_realize_quotient_of_chain_ring():
    R = ring_zmod(4)
    m = realize(ModulePresentation(R, 1, (((2,),),)))
    assert m.size == 2


def test_submodule_generated_pointwise():
    chain = cyclic_sum(ring_zmod(4), [(0,)])
    two = submodule_generated(chain, [chain.index_of((2,))])
    assert {chain.element(i) for i in member_indices(two)} == {(0,), (2,)}

    plane = free_module(ring_zmod(2), 2)
    diag = submodule_generated(plane, [plane.index_of((1, 1))])
    assert {plane.element(i) for i in member_indices(diag)} == {(0, 0), (1, 1)}

    assert submodule_generated(plane, [plane.index_of(plane.zero)]).size == 1


def test_maximal_submodules_of_z6():
    m = cyclic_sum(ring_zmod(6), [(0,)])
    subs = maximal_submodules(m)
    got = {frozenset(m.element(i)[0] for i in member_indices(s)) for s in subs}
    assert got == {frozenset({0, 2, 4}), frozenset({0, 3})}


def test_ideal_action_pointwise_on_mixed_module():
    m = zmod_module(4, [2, 4])  # Z/2 (+) Z/4 over Z/4
    ideal = maximal_ideals(m.ring)[0]
    twoM = ideal_action(m, ideal)
    members = {m.element(i) for i in member_indices(twoM)}
    assert len(members) == 2
    assert all(m.add(x, x) == m.zero for x in members)

    assert ideal_action(m, Ideal(m.ring, 1, ())).size == 1


def test_ideal_annihilates_residue_power():
    R = ring_zmod(4)
    (ideal,) = maximal_ideals(R)
    # M = (R/m)^2 realized via relations 2*e_i = 0
    m = realize(ModulePresentation(R, 2, (((2,), (0,)), ((0,), (2,)))))
    assert ideal_action(m, ideal).size == 1


def test_quotient_module_degenerate_cases():
    m = zmod_module(4, [2, 4])
    q0, _, _ = quotient_module(m, submodule_generated(m, [m.index_of(m.zero)]))
    assert q0.size == m.size
    qm, _, _ = quotient_module(m, Submodule(m, m.full_mask))
    assert qm.size == 1


def test_radical_of_mixed_chain_module():
    m = zmod_module(4, [2, 4])
    rad = jacobson_radical(m)
    assert rad.size == 2
    members = {m.element(i) for i in member_indices(rad)}
    assert all(m.add(x, x) == m.zero for x in members)


def test_is_cyclic_mixed_chain_module_false():
    assert not is_cyclic(zmod_module(4, [2, 4]))[0]


def test_semisimple_entry_vanishes_when_ideal_acts_invertibly():
    m = zmod_module(6, [2, 2])  # 3M = M kills the (3) entry
    entries = semisimple_invariants(m)
    assert [(e.residue_size, e.multiplicity) for e in entries] == [(2, 2)]


def test_semisimple_invariants_of_cyclic_z6():
    m = cyclic_sum(ring_zmod(6), [(0,)])
    got = sorted((e.residue_size, e.multiplicity) for e in semisimple_invariants(m))
    assert got == [(2, 1), (3, 1)]


def test_hdim_of_cube_is_three():
    assert hdim(free_module(ring_zmod(2), 3)) == 3


def test_direct_sum_with_zero_module_keeps_invariants():
    m = zmod_module(6, [2, 3])
    zero = cyclic_sum(ring_zmod(6), [(1,)])
    s = direct_sum(m, zero)
    assert s.size == m.size
    assert length(s) == length(m)
    assert hdim(s) == hdim(m)


def test_multiplicity_matches_greedy_semisimple_decomposition():
    # pick off simple summands of M/Jac(M) one at a time and tally their
    # residue field sizes; the tally must match the invariant exponents
    for m in [zmod_module(6, [2, 2, 3]), zmod_module(4, [2, 4]),
              free_module(ring_gf(2, 2), 2)]:
        top, _, _ = quotient_module(m, jacobson_radical(m))
        tally = {}
        while top.size > 1:
            s = simple_submodule_by_descent(top)
            tally[s.size] = tally.get(s.size, 0) + 1
            top, _, _ = quotient_module(top, s)
        want = {}
        for e in semisimple_invariants(m):
            want[e.residue_size] = want.get(e.residue_size, 0) + e.multiplicity
        assert tally == want


# -- axiom check without asserts -----------------------------------------------------


BROKEN_UNIT_LAW = (
    "from modcover.modules import RealizedModule\n"
    "from modcover.rings import ring_zmod\n"
    "m = RealizedModule(ring_zmod(2), [2], [[(0,)]])  # 1 . e_0 = 0\n"
    "print('debug', __debug__)\n"
    "try:\n"
    "    m.axiom_check()\n"
    "except ValueError as exc:\n"
    "    print('raised', exc)\n"
)


# neither a non-associative table nor a wrong-shaped one may rest on asserts
BROKEN_TABLES = (
    "from modcover.modules import RealizedModule\n"
    "from modcover.rings import FiniteRing, ring_zmod\n"
    "one, x, y, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)\n"
    "builds = [\n"
    "    lambda: FiniteRing([2, 2, 2], [[one, x, y], [x, zero, one], [y, one, zero]], one, 'R'),\n"
    "    lambda: RealizedModule(ring_zmod(4), [4], [[(1,)], [(1,)]]),\n"
    "]\n"
    "for build in builds:\n"
    "    try:\n"
    "        build()\n"
    "    except ValueError as exc:\n"
    "        print('raised', exc)\n"
)


def assert_the_regular_module_is_the_ring(R):
    # R as a module over itself: its submodules are the ideals, and its
    # maximal submodules the maximal ideals
    M = RealizedModule(R, R.orders, R.table)
    bs = basis_vectors(R.rank)
    assert all(M.act(a, b) == R.mul(a, b) for a in bs for b in bs)
    M.axiom_check()
    assert [s.members for s in maximal_submodules(M)] == [
        i.members for i in maximal_ideals(R)
    ], R.label
    for g in elements(R):
        assert M.span([g]) == ideal_generated(R, [g]).members, (R.label, g)


@pytest.mark.parametrize("text", [f"Z/{n}" for n in range(2, 65)] + MIXED_PRODUCTS)
def test_the_regular_module_is_the_ring(text):
    assert_the_regular_module_is_the_ring(parse_ring(text))


@pytest.mark.parametrize("q", sorted(POLY_DEGREES))
def test_the_regular_module_is_the_ring_on_polynomial_quotients(q):
    for f in monic_polynomials(q):
        if q ** (len(f) - 1) <= 64:
            assert_the_regular_module_is_the_ring(poly_ring(q, f))


@pytest.mark.parametrize(
    "orders, basis_act",
    [
        ((4, 4), [[(1,), (0, 1)]]),  # an entry too short
        ((4,), [[(1,)], [(1,)]]),  # two rows for a ring of rank 1
        ((4, 4), [[(1, 0)]]),  # one entry for a module of rank 2
        ((4,), [[(1, 0)]]),  # an entry too long
    ],
)
def test_rejects_a_table_of_the_wrong_shape(orders, basis_act):
    # a wrong row count is the shape rule's; an entry of the wrong length
    # is rejected by `reduce`, as any element is
    with pytest.raises(ValueError, match="the table must be 1 x|is not of length"):
        RealizedModule(ring_zmod(4), orders, basis_act)


def test_an_element_of_the_wrong_length_is_rejected_where_it_enters():
    # `reduce` once zipped the extra coordinates away: these gave the
    # ideal <2> and the module Z/4/<2>
    with pytest.raises(ValueError, match="is not of length 1"):
        ideal_generated(ring_zmod(4), [(2, 7, 9)])
    with pytest.raises(ValueError, match="is not of length 1"):
        ModulePresentation.diagonal(ring_zmod(4), [(2, 5)])


def test_axiom_check_raises_on_a_broken_unit_law():
    m = RealizedModule(ring_zmod(2), [2], [[(0,)]])
    with pytest.raises(ValueError, match="1x = x"):
        m.axiom_check()


@pytest.mark.parametrize(
    "ring,orders,basis_act,law",
    [
        # Z/2 acting on Z/4 by 1.e = e: 2 * (b_0 e_0) != 0
        (lambda: ring_zmod(2), [4], [[(1,)]], "not well defined"),
        # Z/4[x]/(x^2) on Z/2 (+) Z/4, 1 acting as the identity and x by
        # e_0 -> e_1 -> 0: 2 e_0 = 0 but 2 (x e_0) = 2 e_1 != 0
        (
            lambda: FiniteRing(
                [4, 4], [[(1, 0), (0, 1)], [(0, 1), (0, 0)]], (1, 0), "Z/4[x]/(x^2)"
            ),
            [2, 4],
            [[(1, 0), (0, 1)], [(0, 1), (0, 0)]],
            "not well defined",
        ),
        # GF(4) on Z/2 with x.e = e: (x x)e = (x + 1)e = 0, x(xe) = e
        (lambda: ring_gf(2, 2), [2], [[(1,)], [(1,)]], re.escape("(ab)x = a(bx)")),
    ],
)
def test_axiom_check_names_the_law_that_fails(ring, orders, basis_act, law):
    m = RealizedModule(ring(), orders, basis_act)
    with pytest.raises(ValueError, match=law):
        m.axiom_check()


def satisfies_module_laws(m) -> bool:
    """Exhaustive elementwise oracle: 1x = x, both distributive laws and
    (ab)x = a(bx) on reduced elements."""
    R = m.ring
    relems, melems = elements(R), elements(m)
    if any(m.act(R.one, x) != x for x in melems):
        return False
    for a, b, x in itertools.product(relems, relems, melems):
        if m.act(R.add(a, b), x) != m.add(m.act(a, x), m.act(b, x)):
            return False
        if m.act(R.mul(a, b), x) != m.act(a, m.act(b, x)):
            return False
    for a, x, y in itertools.product(relems, melems, melems):
        if m.act(a, m.add(x, y)) != m.add(m.act(a, x), m.act(a, y)):
            return False
    return True


def checked(m) -> bool:
    try:
        m.axiom_check()
    except ValueError:
        return False
    return True


def test_axiom_check_is_complete_on_every_action():
    # every basis action table of each ring on ⊕ Z/d'_t, against the
    # elementwise laws
    cases = [
        (ring_zmod(2), [4]),
        (ring_zmod(4), [2, 4]),
        (ring_zmod(6), [6]),
        (ring_gf(2, 2), [2, 2]),
        (ring_product(ring_zmod(2), ring_zmod(2)), [2]),
    ]
    outcomes = set()
    for R, orders in cases:
        vectors = list(itertools.product(*(range(d) for d in orders)))
        k = len(orders)
        for flat in itertools.product(vectors, repeat=R.rank * k):
            table = [flat[i * k:(i + 1) * k] for i in range(R.rank)]
            m = RealizedModule(R, orders, table)
            ok = satisfies_module_laws(m)
            assert checked(m) == ok, (R.label, table)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_axiom_check_raises_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_UNIT_LAW],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised") and "1x = x" in lines[1]


def test_ring_and_module_tables_are_checked_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-O", "-c", "assert False\n" + BROKEN_TABLES],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr  # so the asserts are off
    assert out.stdout.splitlines() == [
        "raised R: (ab)x = a(bx) fails at a = b_1, b = b_1, x = e_2",
        "raised module: the table must be 1 x 1, with each entry of length 1",
    ]
