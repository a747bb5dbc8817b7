"""The benchmark's workloads: seeded inputs, the queries run on them, and
the checks that each answer matches an independent reference.

A workload produces its inputs in passes. Pass 0 is built during set-up;
later passes, built only when a run has time left, use inputs derived
from the same seed, so every pass has the same mix. The program under
test receives only DSL strings. Each query is a callable that returns
None when every answer checks out and raises Mismatch otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import modcover
import reference as ref
from modcover.harness import FAIL, PASS

# Library calls go through the `modcover` namespace, never a local binding,
# so that the traced run's wrappers see them.

GOLDEN_PATH = Path(__file__).with_name("golden_verify.json")


class Mismatch(Exception):
    """An answer disagrees with its reference."""


def expect(ok: bool, what: str, got, want):
    if not ok:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# -- verify-corpus ---------------------------------------------------------


def result_digest(results) -> str:
    """Digest of (check, status, details) for each CheckResult, ms left out."""
    rows = [[c.check, c.status, c.details] for c in results]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class VerifyCorpus:
    """`modcover verify --count 200 --hdim-pairs 50`, one call per instance.

    Each pass is corpus_generate(s, 200), which parses and realizes every
    instance as the CLI does, then one run_suite([spec]) per instance and
    one run_hdim_pairs([pair]) per hdim pair. Pass 0 uses the run's seed.
    Pass j > 0 replays corpus 1000 + j, the same for every run: corpora
    differ in cost by up to 25%, and a run measures at least two passes,
    so that the fixed pass halves how much of that reaches its figures.
    """

    name = "verify-corpus"
    count = 200
    pairs = 50
    min_passes = 2

    def __init__(self, golden=None):
        if golden is None:
            golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        self.golden = golden
        self.tally = {"PASS": 0, "FAIL": 0, "SKIPPED": 0, "pairs_pass": 0, "pairs": 0}
        self.check_stats = {}  # check name -> [seconds, skipped]

    @staticmethod
    def corpus_seed(seed, index):
        return seed if index == 0 else 1000 + index

    def inputs(self, seed, index):
        specs = modcover.corpus_generate(self.corpus_seed(seed, index), self.count)
        return specs, modcover.harness.hdim_pairs_from_specs(specs, self.pairs)

    def make_pass(self, seed, index):
        specs, pairs = self.inputs(seed, index)
        items = [(self.instance, s) for s in specs] + [(self.pair, p) for p in pairs]
        want = self.golden.get(str(self.corpus_seed(seed, index)), "").split()
        digests = want or [None] * len(items)
        return [lambda f=f, x=x, d=d, first=index == 0: f(x, d, first)
                for (f, x), d in zip(items, digests, strict=True)]

    def _record(self, results, first_pass):
        for c in results:
            slot = self.check_stats.setdefault(c.check, [0.0, 0])
            slot[0] += c.ms / 1000
            slot[1] += c.status == "SKIPPED"
            if first_pass and c.check != "hdim-additivity":
                self.tally[c.status] += 1

    def instance(self, spec, digest, first_pass):
        reports, _ = modcover.run_suite([spec])
        results = reports[0].results
        self._record(results, first_pass)
        failed = [c.check for c in results if c.status == FAIL]
        expect(not failed, f"{spec.module_expr}: failing checks", failed, [])
        if digest is not None:
            expect(result_digest(results) == digest, f"{spec.module_expr}: digest",
                   result_digest(results), digest)
        module = ref.parse_module_label(spec.module_expr)
        if module is None:
            return
        sigma = ref.sigma(module)
        want = {
            "sigma-agreement": ("sigma", sigma),
            "cyclicity": ("cyclic", sigma is None),
            "finiteness": ("coverable", sigma is not None),
            "maximal-count": ("count", ref.maximal_submodule_count(module)),
            "radical-agreement": ("radical_size", ref.module_radical_size(module)),
            "localization": ("sigma", sigma),
        }
        for c in results:
            if c.status == PASS and c.check in want:
                key, value = want[c.check]
                expect(c.details.get(key) == value,
                       f"{spec.module_expr}: {c.check} {key}", c.details.get(key), value)

    def pair(self, pair, digest, first_pass):
        (result,) = modcover.harness.run_hdim_pairs([pair])
        self._record([result], False)
        if first_pass:
            self.tally["pairs"] += 1
            self.tally["pairs_pass"] += result.status == PASS
        a, b = pair
        expect(result.status != FAIL, f"hdim pair {a.module_expr} / {b.module_expr}",
               result.details, "PASS")
        if digest is not None:
            expect(result_digest([result]) == digest, f"hdim pair {a.module_expr}: digest",
                   result_digest([result]), digest)
        ma, mb = ref.parse_module_label(a.module_expr), ref.parse_module_label(b.module_expr)
        if result.status == PASS and ma is not None and mb is not None:
            want = ref.hdim(ma) + ref.hdim(mb)
            expect(result.details["hdim"] == want, f"hdim pair {a.module_expr}",
                   result.details["hdim"], want)

    def summary(self):
        t = self.tally
        return (f"{self.name} pass 0: {t['PASS']} PASS, {t['FAIL']} FAIL, "
                f"{t['SKIPPED']} SKIPPED; hdim pairs {t['pairs_pass']}/{t['pairs']} PASS")


# -- equivalent labels -----------------------------------------------------


def irreducible_polys(p: int, k: int) -> list:
    """Monic irreducible polynomials of degree k over F_p, low degree first.

    A polynomial of degree k is irreducible iff no monic polynomial of
    degree 1..k/2 divides it; plain long division decides that.
    """

    def divides(g, f):
        rem = list(f)
        dg = len(g) - 1
        for top in range(len(rem) - 1, dg - 1, -1):
            c = rem[top]
            if c:
                for j, gj in enumerate(g):
                    rem[top - dg + j] = (rem[top - dg + j] - c * gj) % p
        return not any(rem[:dg])

    out = []
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if not any(
            divides(list(low) + [1], f)
            for d in range(1, k // 2 + 1)
            for low in itertools.product(range(p), repeat=d)
        ):
            out.append(tuple(f))
    return out


def ring_variants(ring) -> list:
    """Every way this benchmark writes one ring.

    Z/p, GF(p) and GF(p^1; f=c,1) give the same ring, as do GF(p^k) under
    each defining polynomial, and A x B and B x A. Queries on variants cost
    the same, so the seed picks among them without moving the cost.
    """
    kind = ring[0]
    if kind == "x":
        left, right = ring_variants(ring[1]), ring_variants(ring[2])
        out = [("x", a, b) for a in left for b in right]
        if ring[1] != ring[2]:
            out += [("x", b, a) for a in left for b in right]
        return out
    if kind == "Z" and not ref.is_prime(ring[1]):
        return [ring]
    p, k = (ring[1], 1) if kind == "Z" else ring[1:3]
    out = [("GF", p, k, None)] + [("GF", p, k, f) for f in irreducible_polys(p, k)]
    return out + [("Z", p)] if k == 1 else out


def module_variants(module) -> list:
    if module[0] == "free":
        return [("free", r, module[2]) for r in ring_variants(module[1])]
    _, n, parts = module
    return [("sum", n, order) for order in sorted(set(itertools.permutations(parts)))]


def nth_variant(variants, key: str, occurrence: int):
    """The occurrence-th entry of a permutation seeded by key: no variant
    repeats until all of them have been used."""
    order = list(range(len(variants)))
    random.Random(key).shuffle(order)
    return variants[order[occurrence % len(order)]]


# -- sigma-search ----------------------------------------------------------

# Module classes in three families, all coverable (non-cyclic). Products of
# two copies of one residue field make the maximal-submodule search branch.
FREE_OVER_FIELDS = [
    ("free", ("Z", 2), 3), ("free", ("Z", 2), 4), ("free", ("Z", 3), 2),
    ("free", ("Z", 3), 3), ("free", ("GF", 2, 2, None), 2), ("free", ("GF", 2, 2, None), 3),
    ("free", ("Z", 5), 2), ("free", ("Z", 7), 2), ("free", ("GF", 2, 3, None), 2),
    ("free", ("GF", 3, 2, None), 2), ("free", ("Z", 11), 2), ("free", ("Z", 13), 2),
]
FREE_OVER_PRODUCTS = [
    ("free", ("x", ("Z", 2), ("Z", 2)), 2), ("free", ("x", ("Z", 2), ("Z", 2)), 3),
    ("free", ("x", ("Z", 2), ("Z", 3)), 2), ("free", ("x", ("Z", 3), ("Z", 3)), 2),
    ("free", ("x", ("Z", 4), ("Z", 4)), 2), ("free", ("x", ("Z", 5), ("Z", 5)), 2),
    ("free", ("x", ("Z", 7), ("Z", 7)), 2), ("free", ("x", ("Z", 3), ("Z", 5)), 2),
]
CYCLIC_SUMS = [
    ("sum", 4, (2, 2)), ("sum", 4, (2, 2, 2)), ("sum", 8, (2, 4)), ("sum", 8, (4, 4)),
    ("sum", 9, (3, 3)), ("sum", 9, (3, 9)), ("sum", 6, (6, 6)), ("sum", 6, (2, 2, 3)),
    ("sum", 10, (10, 5)), ("sum", 12, (12, 6)), ("sum", 30, (30, 30)),
    ("sum", 30, (6, 10, 15)),
]
SIGMA_CLASSES = FREE_OVER_FIELDS + FREE_OVER_PRODUCTS + CYCLIC_SUMS

ALL_PROPER_LIMIT = 64  # |M| up to which the search also runs over every submodule


class SigmaSearch:
    """Batch `sigma` queries on coverable modules.

    Every pass asks each module class `asks` times, so passes cost the same
    whatever the seed. The seed sets the order and, for each ask, which
    equivalent label is used (`free 2 over Z/7 x GF(7)`, summands in any
    order, ...); an exact label repeats only once a class has used all of
    its labels, as in batch use where the same module comes back.
    """

    name = "sigma-search"
    asks = 4
    min_passes = 1

    def inputs(self, seed, index):
        out = []
        for c, module in enumerate(SIGMA_CLASSES):
            variants = module_variants(module)
            for ask in range(self.asks):
                label = nth_variant(variants, f"{self.name}/{seed}/{c}", index * self.asks + ask)
                out.append((ref.module_label(label), ref.sigma(module)))
        pass_rng(self.name, seed, index).shuffle(out)
        return out

    def make_pass(self, seed, index):
        return [lambda t=text, s=sigma: self.query(t, s) for text, sigma in self.inputs(seed, index)]

    @staticmethod
    def query(text, sigma):
        m = modcover.parse_module(text)
        pred = modcover.sigma_formula(m)
        cert = modcover.sigma_exact(m, modcover.SearchSpace.MAXIMAL_ONLY)
        built = modcover.construct_cover(m)
        expect(pred.value == sigma, f"{text}: sigma_formula", pred.value, sigma)
        expect(cert.is_cover and cert.size == sigma, f"{text}: sigma_exact", cert.size, sigma)
        expect(built.is_cover and built.size == sigma, f"{text}: construct_cover",
               built.size, sigma)
        expect(modcover.verify_cover(m, cert.submodules), f"{text}: verify_cover(search)",
               False, True)
        expect(modcover.verify_cover(m, built.submodules), f"{text}: verify_cover(construct)",
               False, True)
        if m.size <= ALL_PROPER_LIMIT:
            full = modcover.sigma_exact(m, modcover.SearchSpace.ALL_PROPER)
            expect(full.size == sigma, f"{text}: sigma_exact(ALL_PROPER)", full.size, sigma)


# -- large-ring ------------------------------------------------------------


def _factored(lo, hi, keep):
    return [("Z", n) for n in range(lo, hi + 1) if keep(ref.factorize(n))]


def _products(lo, hi):
    return [("x", ("Z", a), ("Z", b))
            for a in range(2, hi) for b in range(a, hi // a + 1) if lo <= a * b <= hi]


def _field_products(lo, hi):
    return [("x", ("GF", p, k, None), ("Z", n))
            for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (7, 2))
            for n in range(2, hi // p**k + 1) if lo <= n * p**k <= hi]


def _strata():
    """(name, ring classes, ring-info rings per pass, module-info rings per pass).

    module-info costs several times ring-info on the same ring, so its
    rings are smaller.
    """
    primes = [("Z", p) for p in range(127, 160) if ref.is_prime(p)]

    def squarefree(f):
        return len(f) >= 3 and max(f.values()) == 1

    def mixed(f):
        return len(f) >= 2 and max(f.values()) > 1

    return [
        ("prime-field", primes, 4, 1),
        ("GF(13^2)", [("GF", 13, 2, None)], 2, 0),
        ("GF(2^7)", [("GF", 2, 7, None)], 1, 0),
        ("prime-power", _factored(128, 512, lambda f: len(f) == 1 and max(f.values()) > 1), 1, 0),
        ("squarefree", _factored(128, 256, squarefree), 2, 2),
        ("mixed-large", _factored(256, 512, mixed), 2, 0),
        ("mixed-small", _factored(128, 192, mixed), 0, 5),
        ("product", _products(128, 192), 2, 5),
        ("field-product", _field_products(128, 192), 2, 3),
    ]


class LargeRing:
    """`ring-info R` and `module-info "free 1 over R"` on rings of 128-512.

    Each pass runs ring-info on 16 rings and module-info on 16 others, taken
    from strata of one shape and size range each. Every stratum lists its
    ring classes in one fixed order and a pass takes the next ones, so pass
    j costs the same whatever the seed. The seed sets the query order and
    which equivalent label each ring is written with. No label repeats in a
    run until a stratum has used all its labels. Its heaviest queries take
    up to a second, so a run measures at least six passes, enough for a
    steady 90th percentile.
    """

    name = "large-ring"
    min_passes = 6

    def __init__(self):
        self.strata = []
        for name, classes, n_ring, n_module in _strata():
            random.Random(f"{self.name}/{name}").shuffle(classes)
            variants = [ring_variants(c) for c in classes]
            self.strata.append((name, variants, n_ring, n_module))

    def inputs(self, seed, index):
        picks = []
        for name, variants, n_ring, n_module in self.strata:
            per_pass = n_ring + n_module
            for i in range(per_pass):
                slot = index * per_pass + i
                c = slot % len(variants)
                ring = nth_variant(variants[c], f"{self.name}/{seed}/{name}/{c}",
                                   slot // len(variants))
                picks.append(("ring-info" if i < n_ring else "module-info", ring))
        pass_rng(self.name, seed, index).shuffle(picks)
        return picks

    def make_pass(self, seed, index):
        out = []
        for kind, ring in self.inputs(seed, index):
            fn = self.ring_info if kind == "ring-info" else self.module_info
            out.append(lambda f=fn, r=ring: f(r))
        return out

    @staticmethod
    def ring_info(ring):
        text = ref.ring_label(ring)
        r = modcover.parse_ring(text)
        units = len(r.units())
        ideals = modcover.maximal_ideals(r)
        expect(r.size == ref.ring_size(ring), f"{text}: |R|", r.size, ref.ring_size(ring))
        expect(units == ref.unit_count(ring), f"{text}: units", units, ref.unit_count(ring))
        residues = sorted(i.residue_size for i in ideals)
        expect(residues == ref.residue_sizes(ring), f"{text}: residue fields",
               residues, ref.residue_sizes(ring))
        sizes = [i.size * i.residue_size for i in ideals]
        expect(all(s == r.size for s in sizes), f"{text}: |m| * |R/m|", sizes, r.size)

    @staticmethod
    def module_info(ring):
        text = f"free 1 over {ref.ring_label(ring)}"
        m = modcover.parse_module(text)
        cyclic, _ = modcover.is_cyclic(m)
        rad = modcover.jacobson_radical(m)
        got = {
            "cyclic": cyclic,
            "length": modcover.length(m),
            "hdim": modcover.hdim(m),
            "radical_size": rad.size,
            "invariants": sorted((e.residue_size, e.multiplicity) for e in modcover.semisimple_invariants(m)),
            "s_set": len(modcover.s_set(m)),
            "maximal_submodules": len(modcover.maximal_submodules(m)),
        }
        residues = ref.residue_sizes(ring)
        want = {
            "cyclic": True,
            "length": ref.ring_length(ring),
            "hdim": len(residues),
            "radical_size": ref.radical_size(ring),
            "invariants": [(q, 1) for q in residues],
            "s_set": 0,
            "maximal_submodules": len(residues),
        }
        expect(got == want, f"{text}: module-info", got, want)


WORKLOADS = {w.name: w for w in (VerifyCorpus, SigmaSearch, LargeRing)}
