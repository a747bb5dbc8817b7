"""Ring interning and the facts stored on rings and modules."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from modcover import cli, modules, rings, snf
from modcover._fp import _echelon, _frobenius, _is_field, basis_vectors
from modcover.covering import SearchSpace, construct_cover, greedy_cover, sigma_exact
from modcover.dsl import parse_module, parse_ring
from modcover.modules import (
    all_submodules,
    is_cyclic,
    jacobson_radical,
    maximal_submodules,
    radical_via_ideals,
    semisimple_invariants,
)
from modcover.rings import (
    RING_SIZE_GUARD,
    FiniteRing,
    Ideal,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    ring_product,
    ring_zmod,
)

from oracles import (
    MIXED_PRODUCTS,
    PINNED_RINGS,
    POLY_DEGREES,
    algebra,
    elements,
    factor_by_algebra,
    gf4_on_x_and_1,
    large_ring_labels,
    mask_of,
    monic_polynomials,
    poly_ring,
    residue_field,
)

# -- interning ------------------------------------------------------------------


def test_constructors_and_dsl_share_one_ring():
    assert parse_ring("Z/6") is parse_ring("Z/6")
    assert parse_ring("Z/6") is ring_zmod(6)
    assert parse_ring("GF(2^3)") is parse_ring("GF(2^3)")
    assert parse_ring("Z/2 x GF(3)") is parse_ring("Z/2 x GF(3)")
    assert parse_ring("GF(2^2)") is not parse_ring("GF(2^2; f=1,1,1)")


def test_hand_built_ring_is_never_interned():
    hand = FiniteRing([6], [[(1,)]], (1,), "Z/6")
    assert hand is not ring_zmod(6)
    assert all(r is not hand for r in rings._INTERNED.rings.values())


def test_interned_rings_stay_within_the_element_budget():
    first = ring_zmod(97)
    for n in range(100, 200):
        ring_zmod(n)
    table = rings._INTERNED
    sizes = [r.size for r in table.rings.values()]
    assert table.elements == sum(sizes) <= RING_SIZE_GUARD
    assert all(r is not first for r in table.rings.values())  # least recent dropped
    assert ring_zmod(199) is ring_zmod(199)  # most recent kept
    assert ring_zmod(97) is not first  # rebuilt after eviction


def test_a_ring_of_guard_size_evicts_everything_else():
    ring_zmod(6)
    big = ring_zmod(RING_SIZE_GUARD)
    assert list(rings._INTERNED.rings.values()) == [big]
    assert rings._INTERNED.elements == RING_SIZE_GUARD


# -- stored facts are handed out as copies ----------------------------------------


def test_mutating_returned_lists_leaves_the_stored_facts_alone():
    R = ring_zmod(12)
    ideals = maximal_ideals(R)
    maximal_ideals(R).clear()
    assert maximal_ideals(R) == ideals

    m = parse_module("Z/2 (+) Z/6 over Z/6")
    subs = maximal_submodules(m)
    maximal_submodules(m).reverse()
    sigma_exact(m)  # sorts its candidate list in place
    assert maximal_submodules(m) == subs

    invariants = semisimple_invariants(m)
    semisimple_invariants(m).pop()
    assert semisimple_invariants(m) == invariants


def _count_calls(monkeypatch, names, source=modules) -> dict:
    """{name: 0} for functions of the module `source`, each counting its
    calls through every binding, so a module that imported the name is
    counted too."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(source, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "modcover":
                continue
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def _counted_ring_builds(monkeypatch) -> list:
    """The labels of the `FiniteRing`s built from now on, in order."""
    builds = []
    init = FiniteRing.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.label)

    monkeypatch.setattr(FiniteRing, "__init__", counted)
    return builds


@pytest.mark.parametrize(
    "text",
    [
        "free 2 over Z/6",
        "Z/2 (+) Z/2 (+) Z/3 over Z/6",
        "Z/2 (+) Z/2 over Z/6",  # 3M = M: one entry for two ideals
        "free 3 over Z/2 x Z/2",
        "free 2 over GF(2^3)",
    ],
)
def test_mm_and_the_residue_basis_are_derived_once(text, monkeypatch):
    # one mM per maximal ideal and no quotient module: the residue basis is
    # greedy over mM, and every later fact reads them from the entries
    calls = _count_calls(monkeypatch, ["ideal_action", "quotient_module"])
    m = parse_module(text)
    cli._module_facts(m)
    sigma_exact(m)
    construct_cover(m)
    radical_via_ideals(m)
    assert calls == {
        "ideal_action": len(maximal_ideals(m.ring)),
        "quotient_module": 0,
    }


@pytest.mark.parametrize(
    "text,walks",
    [
        ("free 3 over GF(2^2)", 0),  # the greedy seed meets the root bound
        ("free 2 over Z/2 x Z/2", 1),  # the search branches
    ],
)
def test_the_lattice_is_walked_only_by_a_search_that_branches(text, walks, monkeypatch):
    # the search over all proper submodules reads the lattice's coatoms off
    # one walk of the intervals, and builds no product lattice
    m = parse_module(text)
    calls = _count_calls(monkeypatch, ["_intervals", "all_submodules"])
    cert = sigma_exact(m, SearchSpace.ALL_PROPER)
    assert calls == {"_intervals": walks, "all_submodules": 0}
    assert (cert.nodes_explored > 0) == (walks > 0)


@pytest.mark.parametrize(
    "text",
    [
        "free 3 over GF(2^2)",  # settled at the root
        "free 2 over Z/2 x Z/2",  # branches in both spaces
        "Z/2 (+) Z/2 (+) Z/3 over Z/6",
        "free 1 over Z/6",  # cyclic: no seed
    ],
)
def test_the_greedy_seed_is_formed_once_per_module(text, monkeypatch):
    from modcover.harness import InstanceSpec, check_finiteness

    m = parse_module(text)
    calls = _count_calls(monkeypatch, ["_greedy_picks"])
    certs = [sigma_exact(m, space) for space in SearchSpace]
    finiteness = check_finiteness(InstanceSpec("", text, 0, "CURATED"), m)
    greedy = greedy_cover(m)
    assert calls == {"_greedy_picks": 1}
    assert [c.is_cover for c in certs] == [greedy.is_cover] * 2
    assert finiteness.details["coverable"] == greedy.is_cover


def _counted_closures(monkeypatch) -> list:
    calls = []
    closure = rings._Coordinates.closure

    def counted(self, gens, start=1):
        calls.append(1)
        return closure(self, gens, start)

    monkeypatch.setattr(rings._Coordinates, "closure", counted)
    return calls


@pytest.mark.parametrize(
    "text",
    [
        "free 2 over Z/13",
        "free 2 over Z/7 x Z/7",  # two witnesses of one size: the least mask
        "free 2 over GF(2^3)",
        "Z/6 (+) Z/10 (+) Z/15 over Z/30",  # multiplicity 2 at each of 3 ideals
    ],
)
def test_the_witness_plane_is_closed_once(text, monkeypatch):
    # at multiplicity 2 the plane of the formula's cover is all of M/mM,
    # so its q + 1 lines are the witness's maximal submodules: the cover
    # reads them, with no closure, and they are the same objects
    m = parse_module(text)
    maximal = maximal_submodules(m)
    calls = _counted_closures(monkeypatch)
    cert = construct_cover(m)
    assert calls == []
    assert cert.is_cover and len(cert.submodules) == cert.size
    assert all(any(s is t for t in maximal) for s in cert.submodules)


@pytest.mark.parametrize("text, q", [("free 12 over Z/2", 2), ("free 3 over GF(2^4)", 16)])
def test_the_formula_cover_alone_builds_only_its_lines(text, q, monkeypatch):
    # a cover read alone builds the q + 1 lines of its plane and not the
    # maximal submodules, which number 4,095 and 273 here: the start over
    # mM and the rest, q lines through u + c w, then the lead start of w
    # and its line, q + 3 closures
    m = parse_module(text)
    semisimple_invariants(m)
    calls = _counted_closures(monkeypatch)
    cert = construct_cover(m)
    assert cert.size == q + 1
    assert len(calls) == q + 3
    assert "_maximal_submodules" not in vars(m)


def test_each_ideal_is_imaged_once_across_modules(monkeypatch):
    # an ideal keeps its additive generators, so two modules over one
    # interned ring read the images of each maximal ideal's spanning set
    # once between them
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    big, small = parse_module("free 2 over Z/7 x Z/7"), parse_module("free 1 over Z/7 x Z/7")
    assert big.ring is small.ring
    spanning = [ideal.spanning for ideal in maximal_ideals(big.ring)]
    calls = []
    images = rings._Coordinates.images

    def counted(self, elems):
        if self is big.ring and elems in spanning:
            calls.append(elems)
        return images(self, elems)

    monkeypatch.setattr(rings._Coordinates, "images", counted)
    assert [e.multiplicity for e in semisimple_invariants(big)] == [2, 2]
    assert [e.multiplicity for e in semisimple_invariants(small)] == [1, 1]
    assert sorted(calls) == sorted(spanning)


def test_generators_are_derived_only_when_read(monkeypatch):
    # a submodule is its mask; its greedy generators are derived on first
    # read, and no search, cover, radical or lattice reads them
    m = parse_module("free 3 over Z/2 x Z/2")
    semisimple_invariants(m)
    calls = _count_calls(monkeypatch, ["submodule_generators"])
    cert = sigma_exact(m)
    sigma_exact(m, SearchSpace.ALL_PROPER)
    greedy_cover(m)
    construct_cover(m)
    jacobson_radical(m)
    is_cyclic(m)
    all_submodules(m)
    assert calls == {"submodule_generators": 0}
    assert cert.is_cover
    cert.to_json_dict()
    assert calls == {"submodule_generators": len(cert.submodules)}
    cert.to_json_dict()  # read once, then stored on each submodule
    assert calls == {"submodule_generators": len(cert.submodules)}


def test_the_maximal_ideals_of_z12_and_their_residue_field_labels():
    # Z/12 ≅ Z/4 x Z/3. At the field Z/3, e = 4 and m = (1-e)R = (9); at
    # Z/4, e = 9 and m is spanned by g_1 = (1-e) + e*2 = 4 + 6 = 10. R/m
    # is labelled by the elements that span m
    R = ring_zmod(12)
    spanning = {i.residue_size: i.spanning for i in maximal_ideals(R)}
    assert spanning == {3: ((9,),), 2: ((10,),)}


@pytest.mark.parametrize("text,factors", [("Z/4096", 1), ("Z/360", 3), ("Z/12 x Z/10", 4)])
def test_factor_builds_no_ring(text, factors, monkeypatch):
    # `_factor` certifies each m from the Frobenius of R/pR, so neither
    # the residue fields R/m nor the local factors R/(1-e)R are built
    R = parse_ring(text)
    builds = _counted_ring_builds(monkeypatch)
    assert len(rings._factor(R)) == factors
    assert builds == []


@pytest.mark.parametrize("text", ["Z/360", "Z/12 x Z/10", "GF(2^2) x Z/9"])
def test_ring_and_module_facts_build_no_residue_field(text, monkeypatch):
    # the closed form reads only |R/m|, and a module of multiplicity 1 at
    # every m has hyperplanes with no tail, so once parsed, neither the
    # ring's facts nor the module's build a ring
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    R, m = parse_ring(text), parse_module(f"free 1 over {text}")
    builds = _counted_ring_builds(monkeypatch)
    cli._ring_facts(R)
    cli._module_facts(m)
    assert builds == []


@pytest.mark.parametrize(
    "text, sigma, maximal", [("free 2 over Z/6", 3, 7), ("free 2 over GF(2^2)", 5, 5)]
)
def test_the_residue_layer_builds_no_residue_field(text, sigma, maximal, monkeypatch):
    # the hyperplanes, with tails, and the cover's q + 1 lines read R/m's
    # coordinates off its `LocalFactor`, so once the module is parsed, no
    # ring is built, R/m included, by the cover, the search or the greedy
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    m = parse_module(text)
    builds = _counted_ring_builds(monkeypatch)
    cert = construct_cover(m)
    assert cert.is_cover and cert.size == sigma
    assert len(maximal_submodules(m)) == maximal
    greedy_cover(m)
    assert sigma_exact(m).size == sigma
    assert builds == []


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS + ["GF(2^2) x GF(3^2)"])
def test_maximal_ideals_are_one_span_of_their_spanning_elements(text):
    # g_1 = (1-e) + e*p and the nonzero e*r_j; over Z/n, R/pR is a field,
    # so J_p = pR and g_1 alone spans m_e
    R = parse_ring(text)
    for ideal in maximal_ideals(R):
        assert R.span(ideal.spanning) == ideal.members
        assert R.span(ideal.generators) == ideal.members
        if R.rank == 1:
            assert len(ideal.spanning) == 1


# fields and products with a field factor of degree > 1, beside the GF
# rings of PINNED_RINGS
GF_CASES = ["Z/2", "GF(13^2) x Z/4", "GF(2^2) x GF(3^2)"]


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS + GF_CASES)
def test_factor_runs_no_snf_outside_quotient_ring(text, monkeypatch):
    # R/pR is a selection of R's coordinates and each residue field an
    # echelon over F_p in them, so `_factor` builds no quotient ring, and
    # no Smith normal form runs at all
    R = parse_ring(text)
    calls = _count_calls(monkeypatch, ["abelian_quotient"], snf)
    calls.update(_count_calls(monkeypatch, ["quotient_ring"], rings))
    rings._factor(R)
    assert calls == {"abelian_quotient": 0, "quotient_ring": 0}


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS + GF_CASES)
def test_certificate_frobenius_is_that_of_the_residue_field(text, monkeypatch):
    # `_factor` certifies R/m by A's Frobenius reduced modulo m's echelon,
    # or, when that echelon is empty, by A's own Frobenius, whose kernels
    # the split into idempotents formed; either way R/m, built from its
    # coordinates on the record, has the certified Frobenius
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    algebra_frobenius, reduced = {}, {}
    primary, residue_frobenius = rings._primary_idempotents, rings._residue_frobenius

    def recorded_primary(ring, p, e_p):
        out = primary(ring, p, e_p)
        algebra_frobenius[p] = [list(v) for v in out[2]]
        return out

    def recorded(frobenius, rows, pivots, p):
        out = residue_frobenius(frobenius, rows, pivots, p)
        reduced[p, tuple(map(tuple, rows)), tuple(pivots)] = out
        return out

    monkeypatch.setattr(rings, "_primary_idempotents", recorded_primary)
    monkeypatch.setattr(rings, "_residue_frobenius", recorded)
    R = parse_ring(text)
    factors = local_factorization(R)
    assert len(reduced) == sum(bool(factor.rows) for factor in factors)
    for factor in factors:
        key = factor.p, factor.rows, factor.pivots
        certified = reduced[key] if factor.rows else algebra_frobenius[factor.p]
        field = residue_field(factor)[0]
        want = _frobenius(field.mul, field.rank, factor.p)
        assert [list(v) for v in want] == certified, factor


def _ring_or_gf4_on_x_and_1(text) -> FiniteRing:
    """The ring of `text`, where "GF(4) on (x, 1)" names the hand-built
    `gf4_on_x_and_1`, whose 1 is its second basis vector."""
    gf4 = "GF(4) on (x, 1)"
    if gf4 not in text:
        return parse_ring(text)
    ring = gf4_on_x_and_1()
    return ring if text == gf4 else ring_product(parse_ring(text.split(" x ")[0]), ring)


@pytest.mark.parametrize(
    "text",
    PINNED_RINGS + MIXED_PRODUCTS + GF_CASES + ["GF(4) on (x, 1)", "Z/3 x GF(4) on (x, 1)"],
)
def test_residue_columns_are_the_residue_field_coordinates(text):
    # the lift of R/m's basis vector j is R's basis vector on residue
    # column j, and 1 with the b_i of the span columns projects to an
    # F_p-basis of R/m, which `modules._residue_span` relies on
    R = _ring_or_gf4_on_x_and_1(text)
    for factor in local_factorization(R):
        field, project, lift = residue_field(factor)
        columns, span = factor.residue_columns, factor.span_columns
        f = len(columns)
        assert field.size == factor.p**f == factor.residue_size
        for j, u in enumerate(basis_vectors(f)):
            assert lift(u) == basis_vectors(R.rank)[columns[j]]
        assert len(span) == f - 1 and set(span) < set(columns)
        lifts = [R.one] + [basis_vectors(R.rank)[i] for i in span]
        rows, _ = _echelon([project(x) for x in lifts], factor.p)
        assert len(rows) == f, factor


def _factor_calls(monkeypatch, ring) -> dict:
    """The calls of the functions `_factor_work` counts, and the
    `_Coordinates` built, while `_factor` factors the ring."""
    calls = _factor_work(monkeypatch)
    rings._factor(ring)
    return calls


FACTOR_WORK = ["_factor", "_is_field", "_lift_idempotent", "_frobenius", "_kernel", "_echelon"]


def _factor_work(monkeypatch) -> dict:
    """{name: 0} for each function of FACTOR_WORK, counting its calls from
    now on (`_kernel` and `_echelon` inside `_fp` included), and for the
    `_Coordinates` built."""
    calls = _count_calls(monkeypatch, FACTOR_WORK, rings)
    calls["_Coordinates"] = 0
    init = rings._Coordinates.__init__

    def counted(self, *args):
        calls["_Coordinates"] += 1
        init(self, *args)

    monkeypatch.setattr(rings._Coordinates, "__init__", counted)
    return calls


@pytest.mark.parametrize("text", ["Z/30", "GF(13^2)", "GF(2^7)", "Z/12 x Z/35"])
def test_factor_reads_the_certificate_of_a_residue_field_r_mod_p(text, monkeypatch):
    # every R/pR here is a field, so each m̄_e is 0: the certificate is
    # read off the kernels the split formed, with no second field test,
    # each R_p is local, so its idempotent is e_p with no Newton step, and
    # R/pR multiplies by R's product, with no algebra of its own built
    R = parse_ring(text)
    calls = _factor_calls(monkeypatch, R)
    assert calls["_factor"] == 1
    assert calls["_is_field"] == calls["_lift_idempotent"] == calls["_Coordinates"] == 0


@pytest.mark.parametrize("text", ["Z/210", "Z/12 x Z/35", "GF(131^1; f=5,1)"])
def test_a_one_dimensional_r_mod_p_is_factored_with_no_linear_algebra(text, monkeypatch):
    # every R/pR here is one coordinate read mod p, so it is F_p: F = I,
    # with kernel 0 and fixed space R/pR, one idempotent, and m̄_e = 0;
    # building the ring is counted too, so GF(p^1; f) tests no irreducibility
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    calls = _factor_work(monkeypatch)
    R = parse_ring(text)
    assert all(factor.rows == factor.pivots == () for factor in local_factorization(R))
    assert calls["_factor"] == 1
    assert calls["_frobenius"] == calls["_kernel"] == calls["_echelon"] == 0


@pytest.mark.parametrize("text", ["GF(2^7)", "GF(13^2)", "Z/4 x Z/2"])
def test_a_larger_r_mod_p_runs_the_general_split(text, monkeypatch):
    # a field R/pR of degree 2 or more is split and certified by the two
    # kernels of its Frobenius, with no echelon of m̄_e = 0 beside the two
    # inside those kernels; F_2 x F_2 in Z/4 x Z/2 takes the echelon of
    # each m̄_e and a field test on each quotient
    R = parse_ring(text)
    calls = _factor_calls(monkeypatch, R)
    assert calls["_frobenius"] == 1
    if text.startswith("GF"):
        assert calls["_kernel"] == calls["_echelon"] == 2
    else:
        assert calls["_kernel"] == 2 + 2 * calls["_is_field"] == 6
        assert calls["_echelon"] == calls["_kernel"] + 2


def test_factor_runs_the_field_test_once_per_factor_with_a_nonzero_image(monkeypatch):
    # in Z/4 x Z/2, R/2R = F_2 x F_2, and each m̄_e is the other factor;
    # on a ring no test has factored, the two readers share one factoring
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    R = parse_ring("Z/4 x Z/2")
    calls = _factor_work(monkeypatch)
    factors = local_factorization(R)
    assert all(factor.rows for factor in factors)
    ideals = maximal_ideals(R)
    assert {id(factor) for factor in factors} == {id(ideal) for ideal in ideals}
    assert calls["_factor"] == 1
    assert calls["_is_field"] == len(ideals) == 2
    assert calls["_Coordinates"] == 0


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS)
def test_each_maximal_ideal_is_one_record(text):
    # `maximal_ideals`, `local_factorization` and the entries of the
    # semisimple invariants hold one `LocalFactor` per m_e, and each
    # equals, with an equal hash, the ideal its generators span
    R = parse_ring(text)
    ideals = maximal_ideals(R)
    by_members = sorted(local_factorization(R), key=lambda factor: factor.members)
    assert [id(ideal) for ideal in ideals] == [id(factor) for factor in by_members]
    entries = semisimple_invariants(modules.free_module(R, 1))
    assert [id(entry.ideal) for entry in entries] == [id(ideal) for ideal in ideals]
    for ideal in ideals:
        spanned = ideal_generated(R, ideal.generators)
        assert type(spanned) is Ideal and type(ideal) is rings.LocalFactor
        assert ideal == spanned == ideal
        assert hash(ideal) == hash(spanned)


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS + GF_CASES)
def test_algebra_product_is_the_projected_ring_product(text):
    # A = R/pR multiplied by R's table on the support read mod p, as the
    # old factorization did (`oracles.algebra`), is project(lift(x) lift(y))
    # through R, the product `_primary_idempotents` takes
    R = parse_ring(text)
    rng = random.Random(f"algebra/{text}")
    for p in sorted({q for d in R.orders for q, _ in rings._prime_powers(d)}):
        support = rings._support(R, p)
        A = algebra(R, p)
        lift = rings._placing(R.rank, support)

        def project(x):
            return tuple(x[i] % p for i in support)

        for _ in range(40):
            x, y = (tuple(rng.randrange(p) for _ in support) for _ in range(2))
            assert A._product(x, y) == project(R.mul(lift(x), lift(y))), (p, x, y)


def assert_factor_matches_the_algebra(R):
    """`_factor` and the factorization by A's own structure constants,
    with every idempotent lifted by Newton's step and every factor
    certified by `_is_field`, give the same records in the same order."""
    factors, masks = factor_by_algebra(R)
    got = [
        (f.idempotent, f.members, f.spanning, f.p, f.rows, f.pivots)
        for f in local_factorization(R)
    ]
    assert got == factors, R.label
    assert [ideal.members for ideal in maximal_ideals(R)] == masks, R.label


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS + GF_CASES)
def test_factor_matches_the_factorization_by_structure_constants(text):
    assert_factor_matches_the_algebra(parse_ring(text))


def test_factor_matches_the_factorization_by_structure_constants_on_zmod():
    for n in range(2, 513):
        assert_factor_matches_the_algebra(ring_zmod(n))


def test_factor_matches_the_factorization_by_structure_constants_on_zmod_products():
    pairs = [(a, b) for a in range(2, 97) for b in range(2, 192 // a + 1)]
    for a, b in pairs:
        assert_factor_matches_the_algebra(parse_ring(f"Z/{a} x Z/{b}"))


def test_factor_matches_the_factorization_by_structure_constants_on_large_ring_classes():
    # every ring class of the benchmark's large-ring workload, the
    # one-dimensional R/pR of Z/n and GF(p) beside GF(2^7), GF(13^2) and
    # products with a shared prime
    for text in large_ring_labels():
        assert_factor_matches_the_algebra(parse_ring(text))


def test_factor_matches_the_factorization_by_structure_constants_on_prime_fields_by_polynomial():
    # every GF(p^1; f=c,1) that large-ring may write for its prime fields
    primes = [p for p in range(127, 158) if rings._is_prime(p)]
    for p in primes:
        for c in range(p):
            assert_factor_matches_the_algebra(parse_ring(f"GF({p}^1; f={c},1)"))


def test_factor_matches_the_factorization_by_structure_constants_on_polynomial_rings():
    # every Z/q[x]/(f) of the pins, non-reduced ones among them: R/pR with
    # a radical, several local factors or both
    polys = [poly_ring(q, f) for q in sorted(POLY_DEGREES) for f in monic_polynomials(q)]
    assert sum(bool(factor.radical) for R in polys for factor in local_factorization(R))
    for R in polys:
        assert_factor_matches_the_algebra(R)


SUMMED_IDEMPOTENTS = (
    "from functools import reduce\n"
    "from modcover import rings\n"
    "from modcover.dsl import parse_ring\n"
    "primary = rings._primary_idempotents\n"
    "def summed(ring, p, e_p):\n"
    "    idempotents, *rest = primary(ring, p, e_p)\n"
    "    return [reduce(ring.add, idempotents)], *rest\n"
    "def unbuilt(*args, **kwargs):\n"
    "    raise RuntimeError('a ring was built')\n"
    "parsed = {text: parse_ring(text) for text in ['Z/2 x Z/2', 'Z/4 x Z/4']}\n"
    "rings._primary_idempotents = summed\n"
    "rings.FiniteRing.__init__ = unbuilt\n"
    "print('debug', __debug__)\n"
    "for text, ring in parsed.items():\n"
    "    try:\n"
    "        rings.maximal_ideals(ring)\n"
    "    except AssertionError as exc:\n"
    "        print('raised', exc)\n"
    "    else:\n"
    "        print('accepted', text)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_factor_rejects_idempotents_that_are_not_primitive(flags):
    # with the two idempotents of Z/2 x Z/2 summed into 1, m_e is {0} and
    # R would be its own residue field; over Z/4 x Z/4, m_e is 2R. Both
    # are certified inside `_factor`, which builds no ring
    out = subprocess.run(
        [sys.executable, *flags, "-c", SUMMED_IDEMPOTENTS],
        capture_output=True, text=True, env=_env_with_src(), timeout=60,
    )
    assert out.returncode == 0, out.stderr
    debug, *lines = out.stdout.splitlines()
    assert debug == f"debug {not flags}"
    assert len(lines) == 2
    assert all(line.startswith("raised") and "not a field" in line for line in lines), lines


def test_the_library_has_no_bare_assert():
    # `python -O` strips assert statements, so every invariant the library
    # checks raises explicitly instead
    src = Path(__file__).resolve().parents[1] / "src" / "modcover"
    files = sorted(src.glob("*.py"))
    assert files
    bare = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


def test_the_library_sums_rows_in_one_place():
    # `_fp.combine` is the one routine that sums a vector from rows; the
    # Smith form's column step (`add_col`) is the elimination itself. No
    # other function holds a `target[...] += a * b` accumulation
    src = Path(__file__).resolve().parents[1] / "src" / "modcover"
    files = sorted(src.glob("*.py"))
    assert files
    allowed = {("_fp.py", "combine"), ("snf.py", "add_col")}
    loops = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (path.name, fn.name) in allowed:
                continue
            # the statements of fn itself, not of the functions it defines
            work = list(ast.iter_child_nodes(fn))
            while work:
                node = work.pop()
                if isinstance(node, ast.FunctionDef):
                    continue
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.target, ast.Subscript)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Mult)
                ):
                    loops.append(f"{path.name}:{node.lineno} {fn.name}")
                work.extend(ast.iter_child_nodes(node))
    assert loops == []


def _hand_kept_stores(tree) -> list:
    """The functions of a module's ast, by qualified name, that keep a fact
    by hand: an `if x._name is None` branch, an attribute set to None, or
    a write to an attribute of a parameter other than `self`."""
    found = []

    def keeps_by_hand(fn) -> bool:
        params = {
            a.arg
            for f in ast.walk(fn)
            if isinstance(f, (ast.FunctionDef, ast.Lambda))
            for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
        } - {"self"}
        for node in ast.walk(fn):
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
                test = node.test
                if (
                    isinstance(test.left, ast.Attribute)
                    and test.left.attr.startswith("_")
                    and isinstance(test.ops[0], ast.Is)
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                ):
                    return True
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if not isinstance(t, ast.Attribute):
                        continue
                    if isinstance(value, ast.Constant) and value.value is None:
                        return True
                    if isinstance(t.value, ast.Name) and t.value.id in params:
                        return True
        return False

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef) and keeps_by_hand(child):
                found.append(prefix + child.name)

    visit(tree, "")
    return found


def test_rings_and_modules_keep_each_derived_fact_as_a_cached_property():
    # a fact derived from a ring or a module is a cached property of the
    # object it describes: no attribute is set to None to be filled by an
    # `is None` branch later, and no function stores a fact on an object
    # it was handed
    src = Path(__file__).resolve().parents[1] / "src" / "modcover"
    found = []
    for name in ("rings.py", "modules.py", "covering.py"):
        tree = ast.parse((src / name).read_text(), name)
        found += [f"{name} {fn}" for fn in _hand_kept_stores(tree)]
    assert found == []


def test_the_hand_kept_store_check_flags_each_form():
    code = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._fact = None\n"
        "    def fact(self):\n"
        "        if self._fact is None:\n"
        "            self._fact = 1\n"
        "        return self._fact\n"
        "    def read(self):\n"
        "        return self._fact\n"
        "def store(ring):\n"
        "    ring._facts = {}\n"
        "def lift(rank):\n"
        "    x = [0] * rank\n"
        "    x[0] = 1\n"
        "    return x\n"
    )
    assert _hand_kept_stores(ast.parse(code)) == ["A.__init__", "A.fact", "store"]


def test_the_library_reads_every_name_it_imports():
    # an import left behind by a refactor hides what a module depends on;
    # `__init__.py` imports its names to re-export them
    src = Path(__file__).resolve().parents[1] / "src" / "modcover"
    files = sorted(path for path in src.glob("*.py") if path.name != "__init__.py")
    assert files
    unread = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def test_factor_rejects_a_maximal_ideal_that_misses_p(monkeypatch):
    # with 0 in place of r_1 = p, m_e is {0} in Z/4 and 0 x Z/2 in
    # Z/9 x Z/2: R/(m_e + pR) is a field, but not of order |R/m_e|
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    primary = rings._primary_idempotents

    def without_p(ring, p, e_p):
        idempotents, radical_gens, *rest = primary(ring, p, e_p)
        return idempotents, [ring.zero] + radical_gens[1:], *rest

    monkeypatch.setattr(rings, "_primary_idempotents", without_p)
    for text in ["Z/4", "Z/9 x Z/2"]:
        with pytest.raises(AssertionError, match="not a field"):
            maximal_ideals(parse_ring(text))


def test_factor_rejects_a_maximal_ideal_that_misses_the_radical(monkeypatch):
    # in F_2[x]/(x^2), with the lift of x dropped from J_p, m_e is {0} and
    # |R| = 1 * 2^2 passes the size check; R/pR is R, so only its Frobenius
    # kernels, formed from the ring and not from the generators handed to
    # `_factor`, show that x is nilpotent
    primary = rings._primary_idempotents

    def without_radical(ring, p, e_p):
        idempotents, radical_gens, *rest = primary(ring, p, e_p)
        return idempotents, radical_gens[:1], *rest

    monkeypatch.setattr(rings, "_primary_idempotents", without_radical)
    with pytest.raises(AssertionError, match="not a field"):
        maximal_ideals(poly_ring(2, [0, 0, 1]))


def test_one_snf_per_quotient(monkeypatch):
    # `_Coordinates.quotient` is the one Smith normal form: one per module
    # realized, per quotient module and per quotient ring, and localization
    # takes one quotient ring and one quotient module
    calls = _count_calls(monkeypatch, ["abelian_quotient"], snf)

    def count(build):
        calls["abelian_quotient"] = 0
        build()
        return calls["abelian_quotient"]

    for text in [
        "module over Z/4: gens=2; rels=[(2,2)]",
        "module over Z/4 x GF(2^2): gens=3; rels=[((2,1,0),(1,0,1),(0,0,0))]",
        "free 2 over GF(2^2)",
        "free 0 over Z/6",
    ]:
        m = parse_module(text)
        assert count(lambda: parse_module(text)) == 1, text
        assert count(lambda: modules.quotient_module(m, jacobson_radical(m))) == 1, text
    R = parse_ring("Z/12 x Z/10")
    for ideal in maximal_ideals(R) + [Ideal(R, 1, ())]:
        assert count(lambda: quotient_ring(R, ideal)) == 1, ideal
    m = parse_module("Z/2 (+) Z/2 (+) Z/3 over Z/6")
    semisimple_invariants(m)
    assert count(lambda: modules.localize_at_s(m)) == 2


def test_maximal_ideal_generators_are_derived_only_when_read(monkeypatch, capsys):
    # the factorization, module facts and sigma read the spanning elements;
    # only ring-info prints the greedy generators of the ideals
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    calls = []
    greedy = rings._Coordinates.greedy

    def counted(self, members):
        if isinstance(self, FiniteRing):
            calls.append(self.label)
        return greedy(self, members)

    monkeypatch.setattr(rings._Coordinates, "greedy", counted)
    for text in PINNED_RINGS + MIXED_PRODUCTS:
        maximal_ideals(parse_ring(text))
    assert cli.main(["module-info", "free 1 over Z/360"]) == 0
    assert cli.main(["sigma", "--module", "free 2 over Z/30"]) == 0
    assert cli.main(["verify", "--seed", "1", "--count", "20"]) == 0
    assert calls == []
    capsys.readouterr()
    assert cli.main(["ring-info", "Z/360", "--json"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert [i["generators"] for i in facts["maximal_ideals"]] == [[[5]], [[3]], [[2]]]
    assert calls == ["Z/360"] * 3


@pytest.mark.parametrize("text", ["GF(2^7)", "GF(4093)", "GF(3^5)", "Z/2"])
def test_a_field_is_its_own_residue_field(text, monkeypatch):
    # its one maximal ideal is zero, so R/m has R's coordinates, and
    # factoring R builds no quotient ring
    R = parse_ring(text)
    calls = _count_calls(monkeypatch, ["quotient_ring"], rings)
    rings._factor(R)
    assert calls["quotient_ring"] == 0
    [m] = maximal_ideals(R)
    _, project, lift = residue_field(m)
    assert all(project(x) == x == lift(x) for x in elements(R))


@pytest.mark.parametrize("text", PINNED_RINGS)
def test_the_index_codec_is_built_only_when_a_mask_is_read(text, monkeypatch):
    # the factor rings of a product read no mask, and R/m is not built, so
    # the only codec built is R's own, for the ideal spans of `_factor`
    monkeypatch.setattr(rings, "_INTERNED", rings._RingTable())
    builds = []
    codec = rings._Coordinates.__dict__["codec"]
    build = codec.func

    def counted(self):
        builds.append(self.orders)
        return build(self)

    monkeypatch.setattr(codec, "func", counted)
    R = parse_ring(text)
    maximal_ideals(R)
    assert builds == [R.orders]


# -- units and the field check -------------------------------------------------------


def brute_force_units(R):
    """x is a unit iff some y has xy = 1."""
    return {x for x in elements(R) if any(R.mul(x, y) == R.one for y in elements(R))}


@pytest.mark.parametrize(
    "text", [f"Z/{n}" for n in range(2, 65)] + ["GF(2^3)", "Z/4 x GF(2^2)"]
)
def test_units_match_brute_force_oracle(text):
    R = parse_ring(text)
    assert R.units() == brute_force_units(R)


@pytest.mark.parametrize("text", PINNED_RINGS + MIXED_PRODUCTS)
def test_unit_mask_and_count_are_those_of_the_unit_set(text):
    R = parse_ring(text)
    assert R.unit_mask == mask_of(R.index_of(u) for u in R.units())
    assert R.unit_count == len(R.units())


def test_ring_info_counts_units_without_the_unit_set(monkeypatch, capsys):
    def no_set(self):
        raise AssertionError("ring-info built the unit set")

    monkeypatch.setattr(FiniteRing, "units", no_set)
    assert cli.main(["ring-info", "Z/360", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["units"] == 96  # φ(360)


def passes_the_field_check(R) -> bool:
    """`_is_field`, the predicate of `_factor`'s certificate, on R as an
    F_p-algebra, p its first additive order."""
    p = R.orders[0]
    return _is_field(_frobenius(R.mul, R.rank, p), p)


def test_field_check_accepts_fields():
    for text in ("Z/2", "Z/13", "GF(2^3)", "GF(3^2)"):
        assert passes_the_field_check(parse_ring(text)), text


@pytest.mark.parametrize(
    "make",
    [
        lambda: poly_ring(2, [0, 0, 1]),  # F_2[x]/(x^2): x is nilpotent
        lambda: poly_ring(2, [0, 1, 1]),  # F_2[x]/(x^2 + x): two fixed idempotents
        lambda: parse_ring("GF(2) x GF(2)"),
    ],
)
def test_field_check_rejects_an_algebra_that_is_not_a_field(make):
    assert not passes_the_field_check(make())


def _env_with_src() -> dict:
    """This environment with the repository's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
