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
from oracles import PINNED_RINGS, TINY_CASES, zmod_module


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


def test_the_root_check_matches_the_enumerating_search():
    # sigma_exact checks the root bound before it builds any candidate, and
    # cuts only nodes that hold no smaller cover; the search that first
    # enumerated and sorted every candidate, with the plain size bound,
    # returns the same certificate, having explored at least as many nodes,
    # and the bound it read from the largest candidate is the one read from
    # the largest maximal submodule
    modules = [make() for make in TINY_CASES] + oracles.small_corpus_modules()
    settled = branched = 0
    for m in modules:
        largest_proper = max(s.size for s in all_submodules(m) if s.is_proper())
        assert largest_proper == max(s.size for s in maximal_submodules(m)), m.label
        for space in SearchSpace:
            got = sigma_exact(m, space)
            want = oracles.sigma_exact_by_enumeration(m, space)
            assert [s.members for s in got.submodules] == [
                s.members for s in want.submodules
            ], (m.label, space)
            assert (got.is_cover, got.size, got.optimal) == (
                want.is_cover, want.size, want.optimal
            ), (m.label, space)
            assert got.nodes_explored <= want.nodes_explored, (m.label, space)
            if got.is_cover:
                settled += got.nodes_explored == 0
                branched += got.nodes_explored > 0
    assert settled >= 150 and branched >= 20, (settled, branched)


def test_every_all_proper_certificate_member_is_a_coatom():
    from modcover.dsl import parse_module

    modules = [make() for make in TINY_CASES] + oracles.small_corpus_modules()
    modules += [parse_module(label) for label in oracles.sigma_search_labels()]
    checked = 0
    for m in modules:
        if m.size > 64:
            continue
        cert = sigma_exact(m, SearchSpace.ALL_PROPER)
        coatoms = oracles.coatoms_by_containment(m)
        assert all(s.members in coatoms for s in cert.submodules), m.label
        checked += cert.is_cover
    assert checked >= 100, checked


# sha256 of the member masks of the certificate of Z/5 (+) Z/5 (+) Z/10 over
# Z/20, as the search with the plain size bound found it in 412,761 nodes
Z20_CERTIFICATE = "98e499bc6193b6657efd5000f911ab2c5383d35843e98057ce82a52bcf1d8ae6"


@pytest.mark.parametrize("space", list(SearchSpace))
def test_the_z20_search_keeps_its_certificate(space):
    from modcover.dsl import parse_module

    m = parse_module("Z/5 (+) Z/5 (+) Z/10 over Z/20")
    cert = sigma_exact(m, space)
    masks = json.dumps([s.members for s in cert.submodules])
    assert (cert.is_cover, cert.size, cert.optimal) == (True, 6, True)
    assert hashlib.sha256(masks.encode()).hexdigest() == Z20_CERTIFICATE
    assert 0 < cert.nodes_explored < 1000  # 203


@pytest.mark.parametrize(
    "label, sigma, nodes, masks_digest",
    [
        # sha256 of the certificate's member masks, as for Z20_CERTIFICATE;
        # without the search's exit at depth + 1 >= best_len these take 26
        # and 45 nodes
        ("free 2 over Z/3 x Z/2 x Z/2", 3, 22,
         "15135e8f16770f75639d976de429b51976caaaa8b2eacbefb16adeebec6c9c53"),
        ("Z/15 (+) Z/30 over Z/30", 4, 39,
         "6922c4ca6ce884b0f29a85b1a7179b3d3968a48592af50b935b8026c99a7646a"),
    ],
)
def test_the_search_leaves_a_node_once_no_smaller_cover_fits(label, sigma, nodes, masks_digest):
    from modcover.dsl import parse_module

    cert = sigma_exact(parse_module(label))
    masks = json.dumps([s.members for s in cert.submodules])
    assert (cert.is_cover, cert.size, cert.nodes_explored) == (True, sigma, nodes)
    assert hashlib.sha256(masks.encode()).hexdigest() == masks_digest


def test_minimum_certificates_are_pencils():
    # a cover by q + 1 maximal submodules is the pullback of the q + 1
    # hyperplanes of some M/mM, |R/m| = q, through one subspace of
    # codimension 2, so its members meet in a submodule of |M|/q² elements
    from modcover.dsl import parse_module

    modules = oracles.corpus_modules()
    modules += [parse_module(label) for label in oracles.sigma_search_labels()]
    checked = 0
    for m in modules:
        pred = sigma_formula(m)
        if not pred.coverable:
            continue
        certs = [sigma_exact(m), construct_cover(m)]
        if m.size <= 64:
            certs.append(sigma_exact(m, SearchSpace.ALL_PROPER))
        for cert in certs:
            assert cert.size == pred.value, m.label
            meet = m.full_mask
            for s in cert.submodules:
                meet &= s.members
            assert meet.bit_count() * pred.residue_size**2 == m.size, m.label
            checked += 1
    assert checked >= 200  # 214


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


def test_the_search_space_is_a_member_or_its_value():
    from modcover.dsl import parse_module

    def fields(cert):
        return (cert.size, cert.optimal, cert.nodes_explored,
                [s.members for s in cert.submodules])

    # |M| = 625 is past the lattice guard, so only the maximal search answers
    m = parse_module("free 2 over Z/5 x Z/5")
    want = fields(sigma_exact(m, SearchSpace.MAXIMAL_ONLY))
    assert want[0] == 6
    assert fields(sigma_exact(m, "maximal")) == want
    small = free_module(ring_zmod(2), 2)
    assert fields(sigma_exact(small, "all")) == fields(
        sigma_exact(small, SearchSpace.ALL_PROPER)
    )
    for space in (None, "bogus", "MAXIMAL_ONLY"):
        with pytest.raises(ValueError, match="is not a valid SearchSpace"):
            sigma_exact(m, space)


def test_node_budget_guard(monkeypatch):
    from modcover import covering
    from modcover.errors import GuardExceeded

    # (Z/3)^2 (+) Z/2 needs real branching: the greedy seed is one above
    # the root lower bound, so the search must expand nodes
    m = zmod_module(6, [3, 3, 2])
    assert sigma_exact(m).nodes_explored > 1
    monkeypatch.setattr(covering, "BNB_NODE_BUDGET", 1)
    with pytest.raises(GuardExceeded):
        sigma_exact(m, SearchSpace.ALL_PROPER)


def test_search_is_deterministic():
    m = zmod_module(6, [2, 2, 3])
    a = sigma_exact(m)
    b = sigma_exact(m)
    assert [s.members for s in a.submodules] == [s.members for s in b.submodules]
    assert a.nodes_explored == b.nodes_explored


# sha256 of `pinned_answers()` as the elementwise closures computed it; a
# change that alters generators or certificates on purpose re-records it
PINNED_DIGEST = "fa4a4d0a8c0c77ea131f3a852b2cf8a1cfe57160d34f6bc6e6446953a9473753"


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


# sha256 of `pinned_answers()` with every submodule generator list and every
# node count removed; a re-pin of PINNED_DIGEST that moves only generators
# or the search's effort leaves it alone
PINNED_MASKS_DIGEST = "2966a390380ed065365bdebd512502b36aca51a709e5d0dd9eb34879252f5e82"


def pinned_masks() -> list:
    """`pinned_answers()` without the maximal and radical generator lists,
    the generators and the node count of each certificate and the
    generator tuple of each lattice entry, which leaves its mask."""
    rows = []
    for row in pinned_answers():
        row = {k: v for k, v in row.items() if k not in ("maximal", "radical")}
        if "lattice" in row:
            row["lattice"] = [mask for mask, _ in row["lattice"]]
        rows.append(oracles.without_keys(row, ("generators", "nodes_explored")))
    return rows


def test_masks_and_certificates_are_pinned():
    text = json.dumps(pinned_masks(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MASKS_DIGEST


# sha256 of `pinned_member_masks()`, recorded before constructor rings
# skipped validation. The digests above record the maximal submodules,
# the radical and each certificate submodule only by generators and size,
# so an equal-sized but different optimal cover would move only
# generators; this pins their members
PINNED_MEMBER_MASKS_DIGEST = "dfa99e14c094777e8c336b95f9b8e60964083e6683cb1ca17b610cd37107ff71"


def pinned_member_masks() -> list:
    """The members masks of the maximal submodules, the radical and every
    certificate submodule of the seed-1 corpus modules, and of the
    maximal ideals of PINNED_RINGS, as JSON-ready rows."""
    from modcover.dsl import parse_ring

    def masks(cert):
        return [s.members for s in cert.submodules]

    rows = []
    for m in oracles.corpus_modules():
        row = {
            "module": m.label,
            "maximal": [s.members for s in maximal_submodules(m)],
            "radical": jacobson_radical(m).members,
        }
        if m.size > 1:
            row["exact"] = masks(sigma_exact(m))
            row["construct"] = masks(construct_cover(m))
            row["greedy"] = masks(greedy_cover(m))
        if 1 < m.size <= 64:
            row["all"] = masks(sigma_exact(m, SearchSpace.ALL_PROPER))
        rows.append(row)
    for label in PINNED_RINGS:
        ideals = maximal_ideals(parse_ring(label))
        rows.append({"ring": label, "ideals": [i.members for i in ideals]})
    return rows


def test_member_masks_are_pinned():
    text = json.dumps(pinned_member_masks(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MEMBER_MASKS_DIGEST
