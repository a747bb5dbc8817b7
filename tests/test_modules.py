import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcover.errors import GuardExceeded
from modcover.modules import (
    ModulePresentation,
    RealizedModule,
    all_submodules,
    cyclic_sum,
    direct_sum,
    free_module,
    hdim,
    ideal_action,
    is_cyclic,
    jacobson_radical,
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
from modcover.rings import FiniteRing, maximal_ideals, ring_gf, ring_product, ring_zmod

import oracles
from oracles import elements, member_indices, zmod_module


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
                d = m.index_of(
                    m.add(elems[i], m.neg(elems[j]))
                )
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


def test_realize_intermediate_guard(monkeypatch):
    # |R|^k is capped before the Smith normal form runs, also when the
    # relations would leave a small module
    import modcover.modules as modules

    def no_snf(*args):
        raise AssertionError("abelian_quotient ran")

    monkeypatch.setattr(modules, "abelian_quotient", no_snf)
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


def test_maximal_submodules_are_maximal_in_the_lattice():
    for m in [free_module(ring_zmod(2), 2), zmod_module(6, [2, 2, 3])]:
        lattice = [s.members for s in all_submodules(m) if s.is_proper()]
        maximal = {
            s
            for s in lattice
            if not any(s != t and s & ~t == 0 for t in lattice)
        }
        assert {s.members for s in maximal_submodules(m)} == maximal


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


def test_all_submodules_match_the_sumset_join():
    for m in oracle_modules(max_size=64):
        got = [(s.members, s.generators) for s in all_submodules(m)]
        assert got == oracles.all_submodules(m), m.label


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


def test_direct_sum_requires_same_ring():
    with pytest.raises(ValueError):
        direct_sum(free_module(ring_zmod(2), 1), free_module(ring_zmod(3), 1))


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

    from modcover.rings import zero_ideal

    assert ideal_action(m, zero_ideal(m.ring)).size == 1


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
    from modcover.modules import full_submodule

    qm, _, _ = quotient_module(m, full_submodule(m))
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
