"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete. The shared corpus is seed=1, 200 instances, rings up to
64 elements, modules up to 512.
"""

import random
import time

import pytest

from modcover.covering import (
    SearchSpace,
    construct_cover,
    sigma_exact,
    sigma_formula,
    verify_cover,
)
from modcover.dsl import parse_module
from modcover.errors import GuardExceeded
from modcover.harness import corpus_generate
from modcover.modules import (
    all_submodules,
    direct_sum,
    free_module,
    hdim,
    is_cyclic,
    localize_at_s,
    maximal_submodules,
    s_set,
    semisimple_invariants,
)
from modcover.rings import maximal_ideals, ring_gf, ring_zmod

FIELDS = {
    2: lambda: ring_zmod(2),
    3: lambda: ring_zmod(3),
    4: lambda: ring_gf(2, 2),
    5: lambda: ring_zmod(5),
    7: lambda: ring_zmod(7),
    8: lambda: ring_gf(2, 3),
    9: lambda: ring_gf(3, 2),
}


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    specs = corpus_generate(seed=1, count=200, max_ring=64, max_module=512)
    return [(spec, parse_module(spec.module_expr)) for spec in specs]


def test_criterion_1_plane_covering_number():
    worst_plane = 0.0
    for q, make in FIELDS.items():
        t0 = time.perf_counter()
        cert = sigma_exact(free_module(make(), 2))
        dt = time.perf_counter() - t0
        worst_plane = max(worst_plane, dt)
        assert dt < 5.0, f"F_{q}^2 took {dt:.2f}s"
        if cert.size != q + 1:
            report(1, False, f"F_{q}^2 gave {cert.size}, wanted {q + 1}")
    worst_cube = 0.0
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        cert = sigma_exact(free_module(ring_zmod(2), n))
        dt = time.perf_counter() - t0
        worst_cube = max(worst_cube, dt)
        assert dt < 30.0, f"F_2^{n} took {dt:.2f}s"
        if cert.size != 3:
            report(1, False, f"F_2^{n} gave {cert.size}, wanted 3")
    report(
        1,
        True,
        f"sigma(F_q^2)=q+1 for q in {sorted(FIELDS)} and sigma(F_2^n)=3 for "
        f"n in (2,3,4); slowest {max(worst_plane, worst_cube) * 1000:.0f} ms",
    )


def test_criterion_2_explicit_line_covers():
    worst = 0.0
    for q, make in FIELDS.items():
        m = free_module(make(), 2)
        t0 = time.perf_counter()
        cert = construct_cover(m)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert dt < 1.0, f"construct_cover on F_{q}^2 took {dt:.2f}s"
        ok = (
            cert.is_cover
            and cert.size == q + 1
            and len(cert.submodules) == q + 1
            and all(s.size == q for s in cert.submodules)
            and verify_cover(m, cert.submodules)
        )
        if not ok:
            report(2, False, f"F_{q}^2 construction invalid: size={cert.size}")
    report(
        2,
        True,
        f"construct_cover yields q+1 verified one-dimensional subspaces on "
        f"F_q^2 for q in {sorted(FIELDS)}; slowest {worst * 1000:.0f} ms",
    )


def test_criterion_3_formula_matches_search_on_corpus(corpus):
    t0 = time.perf_counter()
    mismatches = []
    for spec, m in corpus:
        pred = sigma_formula(m)
        cert = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
        cyclic, _ = is_cyclic(m)
        if pred.value != cert.size or pred.coverable != cert.is_cover:
            mismatches.append((spec.module_expr, pred.value, cert.size))
        if (not pred.coverable) != cyclic:
            mismatches.append((spec.module_expr, "coverability", cyclic))
    dt = time.perf_counter() - t0
    assert dt < 600.0, f"corpus run took {dt:.1f}s"
    report(
        3,
        not mismatches,
        f"{len(corpus)} instances, {len(mismatches)} mismatches, {dt:.1f}s"
        + (f"; first: {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_4_radical_agreement_on_corpus(corpus):
    from modcover.modules import radical_via_ideals, radical_via_maximal

    bad = [
        spec.module_expr
        for spec, m in corpus
        if radical_via_maximal(m) != radical_via_ideals(m)
    ]
    report(
        4,
        not bad,
        f"both radical computations agree on {len(corpus)}/{len(corpus)} instances"
        if not bad
        else f"disagreement on {bad[:3]}",
    )


def test_criterion_5_hdim_additivity_50_pairs():
    rng = random.Random(1)
    rings = [ring_zmod(n) for n in (2, 3, 4, 6, 8, 12)] + [ring_gf(2, 2)]
    pairs = 0
    failures = []
    while pairs < 50:
        R = rng.choice(rings)
        def small(k=None):
            k = k or rng.randint(1, 2)
            from modcover.modules import ModulePresentation, realize

            rels = tuple(
                tuple((rng.randrange(R.size),) if R.rank == 1
                      else tuple(rng.randrange(d) for d in R.orders)
                      for _ in range(k))
                for _ in range(rng.randint(0, k))
            )
            rels = tuple(
                tuple(R.reduce(c if isinstance(c, tuple) else (c,)) for c in rel)
                for rel in rels
            )
            return realize(ModulePresentation(R, k, rels))

        a, b = small(), small()
        if a.size * b.size > 1024 or a.size < 2 or b.size < 2:
            continue
        pairs += 1
        if hdim(direct_sum(a, b)) != hdim(a) + hdim(b):
            failures.append((R.label, a.orders, b.orders))
    report(
        5,
        not failures,
        f"hdim additive on 50/50 random direct-sum pairs"
        if not failures
        else f"failures: {failures[:3]}",
    )


def test_criterion_6_localization_preserves_sigma(corpus):
    tested = 0
    failures = []
    for spec, m in corpus:
        entries = s_set(m)
        if not entries:
            continue
        if len(entries) == len(maximal_ideals(m.ring)):
            continue
        tested += 1
        before = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
        localized, _ = localize_at_s(m)
        after = sigma_exact(localized, SearchSpace.MAXIMAL_ONLY)
        s_local = {e.ideal.members for e in s_set(localized)}
        mspec_local = {i.members for i in maximal_ideals(localized.ring)}
        if before.size != after.size or s_local != mspec_local:
            failures.append((spec.module_expr, before.size, after.size))
    ok = not failures and tested >= 1
    report(
        6,
        ok,
        f"sigma preserved and S=mSpec after localization on {tested} "
        f"qualifying instances"
        if ok
        else f"tested={tested}, failures={failures[:3]}",
    )


def test_criterion_7_maximal_count_identity(corpus):
    tested = 0
    failures = []
    for spec, m in corpus:
        if m.size > 64:
            continue
        tested += 1
        expected = sum(
            (e.residue_size**e.multiplicity - 1) // (e.residue_size - 1)
            for e in semisimple_invariants(m)
        )
        maximal = maximal_submodules(m)
        proper = [s for s in all_submodules(m) if s.is_proper()]
        lattice_maximal = {
            s.members
            for s in proper
            if not any(
                s.members != t.members and s.members & ~t.members == 0
                for t in proper
            )
        }
        if len(maximal) != expected or {s.members for s in maximal} != lattice_maximal:
            failures.append((spec.module_expr, expected, len(maximal)))
    report(
        7,
        not failures and tested >= 1,
        f"count identity and lattice cross-validation hold on {tested} "
        f"instances with |M| <= 64"
        if not failures
        else f"failures: {failures[:3]}",
    )


def test_criterion_8_search_space_equivalence(corpus):
    tested = 0
    skipped = 0
    failures = []
    for spec, m in corpus:
        if m.size > 256:
            continue
        a = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
        try:
            b = sigma_exact(m, SearchSpace.ALL_PROPER)
        except GuardExceeded:
            skipped += 1
            continue
        tested += 1
        if a.size != b.size or a.is_cover != b.is_cover:
            failures.append((spec.module_expr, a.size, b.size))
    report(
        8,
        not failures and tested >= 1,
        f"MAXIMAL_ONLY = ALL_PROPER on {tested} instances with |M| <= 256 "
        f"({skipped} skipped by the lattice budget)"
        if not failures
        else f"failures: {failures[:3]}",
    )
