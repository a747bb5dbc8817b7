import hashlib
import itertools
import json

import pytest

from modcover.covering import (
    SearchSpace,
    construct_cover,
    greedy_cover,
    sigma_exact,
    sigma_formula,
    verify_cover,
)
from modcover.modules import (
    all_submodules,
    cyclic_sum,
    direct_sum,
    free_module,
    is_cyclic,
    jacobson_radical,
    maximal_submodules,
    submodule_generated,
)
from modcover.rings import maximal_ideals, ring_gf, ring_zmod

import oracles
from oracles import TINY_CASES, zmod_module


def brute_minimum_cover(m):
    """Smallest number of proper submodules covering m, by exhausting
    combinations in increasing size. None when no cover exists."""
    proper = [s.members for s in all_submodules(m) if s.is_proper()]
    full = m.full_mask
    union = 0
    for p in proper:
        union |= p
    if union != full:
        return None
    for size in range(1, len(proper) + 1):
        for combo in itertools.combinations(proper, size):
            acc = 0
            for c in combo:
                acc |= c
            if acc == full:
                return size
    return None


@pytest.mark.parametrize("make", TINY_CASES)
def test_exact_search_matches_brute_force_oracle(make):
    m = make()
    want = brute_minimum_cover(m)
    for space in (SearchSpace.MAXIMAL_ONLY, SearchSpace.ALL_PROPER):
        cert = sigma_exact(m, space)
        assert cert.size == want
        assert cert.is_cover == (want is not None)
        assert cert.optimal
        if cert.is_cover:
            assert verify_cover(m, cert.submodules)
            assert len(cert.submodules) == cert.size


@pytest.mark.parametrize("make", TINY_CASES)
def test_formula_matches_exact(make):
    m = make()
    pred = sigma_formula(m)
    cert = sigma_exact(m)
    assert pred.value == cert.size
    assert pred.coverable == cert.is_cover


def test_formula_examples():
    assert sigma_formula(free_module(ring_zmod(2), 2)).value == 3
    assert sigma_formula(free_module(ring_zmod(6), 1)).value is None
    mixed = direct_sum(zmod_module(6, [2, 2]), zmod_module(6, [3, 3]))
    assert sigma_formula(mixed).value == 3  # min(2, 3) + 1


def test_formula_witness_has_smallest_residue_field():
    mixed = direct_sum(zmod_module(6, [2, 2]), zmod_module(6, [3, 3]))
    pred = sigma_formula(mixed)
    assert pred.residue_size == 2
    assert pred.witness_ideal.residue_size == 2


@pytest.mark.parametrize("q,make", [
    (2, lambda: free_module(ring_zmod(2), 2)),
    (3, lambda: free_module(ring_zmod(3), 2)),
    (4, lambda: free_module(ring_gf(2, 2), 2)),
    (5, lambda: free_module(ring_zmod(5), 2)),
])
def test_plane_over_field_needs_q_plus_1(q, make):
    # q + 1 lines cover the plane and nothing smaller does
    cert = sigma_exact(make())
    assert cert.size == q + 1


def test_construct_cover_is_verified_and_optimal_size():
    for make in TINY_CASES:
        m = make()
        pred = sigma_formula(m)
        cert = construct_cover(m)
        if pred.coverable:
            assert cert.is_cover
            assert cert.size == pred.value
            assert verify_cover(m, cert.submodules)
        else:
            assert not cert.is_cover


def test_construct_cover_lines_are_one_dimensional_for_plane():
    m = free_module(ring_zmod(3), 2)
    cert = construct_cover(m)
    assert cert.size == 4
    assert all(s.size == 3 for s in cert.submodules)
    # distinct lines pairwise intersect in zero only
    for a, b in itertools.combinations(cert.submodules, 2):
        assert (a.members & b.members).bit_count() == 1


def test_construct_cover_matches_the_elementwise_line_test():
    # reference: keep each x whose image in M/mM lies on the line, by its
    # first two coordinates in the greedy basis
    compared = 0
    for m in [make() for make in TINY_CASES] + oracles.corpus_modules():
        pred = sigma_formula(m)
        if not pred.coverable:
            continue
        got = [(s.members, s.generators) for s in construct_cover(m).submodules]
        assert got == oracles.construct_cover_lines(m, pred.witness_ideal), m.label
        compared += 1
    assert compared >= 50


def test_verify_cover_rejects_bad_inputs():
    m = free_module(ring_zmod(2), 2)
    good = sigma_exact(m).submodules
    assert verify_cover(m, good)
    assert not verify_cover(m, good[:2])  # union too small
    full = submodule_generated(m, [m.index_of((1, 0)), m.index_of((0, 1))])
    assert not verify_cover(m, list(good) + [full])  # improper member
    other = free_module(ring_zmod(2), 2)
    assert not verify_cover(other, good)  # wrong parent


def test_greedy_cover_upper_bounds_exact():
    for make in TINY_CASES:
        m = make()
        exact = sigma_exact(m)
        greedy = greedy_cover(m)
        assert greedy.is_cover == exact.is_cover
        if exact.is_cover:
            assert greedy.size >= exact.size
            assert verify_cover(m, greedy.submodules)


def test_not_coverable_iff_cyclic():
    from modcover.harness import InstanceSpec, check_finiteness

    mixed = lambda: direct_sum(zmod_module(6, [2, 2]), zmod_module(6, [3, 3]))
    makes = TINY_CASES + [
        lambda: free_module(ring_zmod(2), 2),
        lambda: free_module(ring_zmod(6), 1),
        mixed,
    ]
    for make in makes:
        m = make()
        result = check_finiteness(InstanceSpec("", m.label, 0, "CURATED"), m)
        assert result.status == "PASS", result.details
        assert result.details["coverable"] == (not is_cyclic(m)[0])
    assert not is_cyclic(mixed())[0]
    assert is_cyclic(free_module(ring_zmod(6), 1))[0]


def greedy_over_all_proper(m):
    """Greedy cover over every proper submodule, candidates ordered as
    sigma_exact orders them; the picked masks in pick order."""
    candidates = [s for s in all_submodules(m) if s.is_proper()]
    candidates.sort(key=lambda s: (-s.size, s.members))
    picks = []
    covered = 1  # zero is bit 0
    while covered != m.full_mask:
        best = max(candidates, key=lambda s: (s.members & ~covered).bit_count())
        picks.append(best.members)
        covered |= best.members
    return picks


def test_greedy_seed_is_the_same_over_all_proper_submodules():
    # sigma_exact seeds ALL_PROPER from greedy_cover over maximal
    # submodules; a greedy over all proper candidates picks the same ones
    from modcover.dsl import parse_module
    from modcover.harness import corpus_generate

    modules = [make() for make in TINY_CASES]
    corpus = (parse_module(s.module_expr) for s in corpus_generate(seed=1, count=200))
    modules += [m for m in corpus if m.size <= 64]
    compared = 0
    for m in modules:
        greedy = greedy_cover(m)
        if not greedy.is_cover:
            continue
        assert greedy_over_all_proper(m) == [s.members for s in greedy.submodules], m.label
        compared += 1
    assert compared >= 20  # 28 of them are coverable


def test_optimal_certificates_are_minimal():
    # dropping any member of an optimal cover must leave a hole
    for make in TINY_CASES:
        m = make()
        cert = sigma_exact(m)
        if not cert.is_cover:
            continue
        subs = list(cert.submodules)
        for i in range(len(subs)):
            assert not verify_cover(m, subs[:i] + subs[i + 1 :])


def test_certificate_serialization():
    cert = sigma_exact(free_module(ring_zmod(2), 2))
    payload = cert.to_json_dict()
    assert payload["size"] == 3
    assert payload["optimal"] is True
    assert len(payload["submodules"]) == 3
    for sub in payload["submodules"]:
        assert all(isinstance(c, int) for g in sub["generators"] for c in g)


def test_zero_module_rejected():
    zero = cyclic_sum(ring_zmod(2), [(1,)])
    for fn in (sigma_formula, sigma_exact, construct_cover, greedy_cover):
        with pytest.raises(ValueError):
            fn(zero)


def test_node_budget_guard():
    from modcover.errors import GuardExceeded

    # (Z/3)^2 (+) Z/2 needs real branching: the greedy seed is one above
    # the root lower bound, so the search must expand nodes
    m = zmod_module(6, [3, 3, 2])
    assert sigma_exact(m).nodes_explored > 1
    with pytest.raises(GuardExceeded):
        sigma_exact(m, SearchSpace.ALL_PROPER, node_budget=1)


def test_search_is_deterministic():
    m = zmod_module(6, [2, 2, 3])
    a = sigma_exact(m)
    b = sigma_exact(m)
    assert [s.members for s in a.submodules] == [s.members for s in b.submodules]
    assert a.nodes_explored == b.nodes_explored


# sha256 of `pinned_answers()` as the elementwise closures computed it; a
# change that alters generators or certificates on purpose re-records it
PINNED_DIGEST = "ebe97701e9e88326705e7e5ab373413cde260924ee330bebcda00914dff418f2"

PINNED_RINGS = ["Z/360", "GF(2^7)", "Z/12 x Z/10", "GF(3^5)", "Z/4096", "GF(4093)"]


def pinned_answers() -> list:
    """Generators and certificates of the seed-1 corpus modules and the
    maximal ideals of PINNED_RINGS, as JSON-ready rows."""
    from modcover.dsl import parse_ring

    def cert(c):
        payload = c.to_json_dict()
        del payload["time_ms"]
        return payload

    rows = []
    for m in oracles.corpus_modules():
        witness = is_cyclic(m)[1]
        row = {
            "module": m.label,
            "maximal": [list(s.generators) for s in maximal_submodules(m)],
            "radical": list(jacobson_radical(m).generators),
            "witness": list(witness) if witness is not None else None,
        }
        if m.size > 1:
            row["exact"] = cert(sigma_exact(m))
            row["construct"] = cert(construct_cover(m))
            row["greedy"] = cert(greedy_cover(m))
        if 1 < m.size <= 64:
            row["all"] = cert(sigma_exact(m, SearchSpace.ALL_PROPER))
            row["lattice"] = [[s.members, list(s.generators)] for s in all_submodules(m)]
        rows.append(row)
    for label in PINNED_RINGS:
        R = parse_ring(label)
        rows.append({
            "ring": label,
            "ideals": [[list(g) for g in i.generators] for i in maximal_ideals(R)],
            "units": len(R.units()),
        })
    return rows


def pinned_digest() -> str:
    text = json.dumps(pinned_answers(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_generators_and_certificates_are_pinned():
    assert pinned_digest() == PINNED_DIGEST
