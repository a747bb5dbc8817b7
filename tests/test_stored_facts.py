"""Ring interning and the facts stored on rings and modules."""

import sys

import pytest

from modcover import cli, modules, rings
from modcover.covering import construct_cover, sigma_exact
from modcover.dsl import parse_module, parse_ring
from modcover.modules import (
    maximal_submodules,
    radical_via_ideals,
    semisimple_invariants,
)
from modcover.rings import (
    RING_SIZE_GUARD,
    FiniteRing,
    _assert_is_field,
    ideal_generated,
    local_factorization,
    maximal_ideals,
    quotient_ring,
    residue_field,
    ring_zmod,
    zero_ideal,
)

from oracles import elements, poly_ring

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
    # one mM per maximal ideal and one M/mM per semisimple entry; every
    # later fact reads them from the entries
    calls = {"ideal_action": 0, "quotient_module": 0}
    for name in calls:
        original = getattr(modules, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        # every binding, so a module that imported the name is counted too
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "modcover":
                continue
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    m = parse_module(text)
    cli._module_facts(m)
    sigma_exact(m)
    construct_cover(m)
    radical_via_ideals(m)
    assert calls == {
        "ideal_action": len(maximal_ideals(m.ring)),
        "quotient_module": len(semisimple_invariants(m)),
    }


def test_residue_field_is_stored_once_per_maximal_ideal():
    R = ring_zmod(30)
    for ideal in maximal_ideals(R):
        field, project, lift = residue_field(ideal)
        assert residue_field(ideal) is residue_field(ideal)
        assert field.size == ideal.residue_size
        assert all(project(lift(c)) == c for c in elements(field))
    with pytest.raises(ValueError):
        residue_field(ideal_generated(R, [(6,)]))


def test_a_factor_that_is_a_field_is_its_residue_field():
    R = ring_zmod(12)  # Z/4 x Z/3
    lf = local_factorization(R)
    fields = {residue_field(i)[0].size: residue_field(i)[0] for i in maximal_ideals(R)}
    assert fields[3] in lf.factors  # Z/3 is a field already
    assert fields[2] not in lf.factors  # Z/4 is not: Z/2 is built from it


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


@pytest.mark.parametrize("n", [4, 6, 8, 9])
def test_field_check_rejects_a_quotient_that_is_not_a_field(n):
    R = ring_zmod(n)
    Q, _, _ = quotient_ring(R, zero_ideal(R))
    with pytest.raises(AssertionError, match="not a field"):
        _assert_is_field(Q)


def test_field_check_accepts_fields():
    for text in ("Z/2", "Z/13", "GF(2^3)", "GF(3^2)"):
        _assert_is_field(parse_ring(text))


@pytest.mark.parametrize(
    "make",
    [
        lambda: poly_ring(2, [0, 0, 1]),  # F_2[x]/(x^2): x is nilpotent
        lambda: poly_ring(2, [0, 1, 1]),  # F_2[x]/(x^2 + x): two fixed idempotents
        lambda: parse_ring("GF(2) x GF(2)"),
    ],
)
def test_field_check_rejects_an_algebra_that_is_not_a_field(make):
    with pytest.raises(AssertionError, match="not a field"):
        _assert_is_field(make())


NOT_A_FIELD = (
    "from modcover.rings import _assert_is_field, ring_product, ring_zmod\n"
    "print('debug', __debug__)\n"
    "try:\n"
    "    _assert_is_field(ring_product(ring_zmod(2), ring_zmod(2)))\n"
    "except AssertionError as exc:\n"
    "    print('raised', exc)\n"
)


def test_field_check_raises_under_python_O():
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-O", "-c", NOT_A_FIELD],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("raised") and "not a field" in lines[1]
