"""Corpus generation and identity checks over generated module instances.

Instances are pairs of DSL strings (ring, module), so every reported
counterexample can be replayed through the CLI verbatim. Checks return
PASS, FAIL with a payload, or SKIPPED with the violated guard. The
check names are short labels for the identities they test:

    sigma-agreement     exact minimum cover size equals the closed form
    radical-agreement   both radical computations coincide
    cyclicity           not coverable exactly when one generator suffices
    localization        the covering number survives localization
    finiteness          a finite cover exists exactly when predicted
    maximal-count       maximal-submodule count matches the hyperplane tally
    hdim-additivity     hdim adds over direct sums and is the length of
                        M/J(M) (pairs of instances)
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import random
import time
from dataclasses import dataclass

from .covering import SearchSpace, sigma_exact, sigma_formula
from .errors import GuardExceeded
from .modules import (
    all_submodules,
    direct_sum,
    hdim,
    is_cyclic,
    jacobson_radical,
    length,
    localize_at_s,
    maximal_submodules,
    quotient_module,
    radical_via_ideals,
    radical_via_maximal,
    s_set,
    semisimple_invariants,
    submodule_generated,
)
from .rings import maximal_ideals

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class InstanceSpec:
    ring_expr: str
    module_expr: str
    seed: int
    provenance: str  # GENERATED | CURATED

    @property
    def key(self):
        return (self.ring_expr, self.module_expr, self.seed)


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    details: dict
    ms: float


@dataclass(frozen=True)
class VerificationReport:
    instance: InstanceSpec
    results: tuple

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.results)


def _realize_spec(spec: InstanceSpec):
    from .dsl import parse_module

    return parse_module(spec.module_expr)


# -- corpus -------------------------------------------------------------------


def _ring_pool(max_ring: int):
    pool = [f"Z/{n}" for n in range(2, max_ring + 1)]
    for p in (2, 3, 5, 7):
        q = p * p
        k = 2
        while q <= max_ring:
            pool.append(f"GF({p}^{k})")
            q *= p
            k += 1
    for a in (2, 3, 4, 5):
        for b in (2, 3, 4, 5, 8, 9):
            if a * b <= max_ring:
                pool.append(f"Z/{a} x Z/{b}")
    return pool


def _random_presentation(rng, ring_expr, ring):
    k = rng.randint(1, 3)
    if ring.size**k > 2**20:
        k = 1
    nrels = rng.randint(0, k + 1)
    rels = []
    for _ in range(nrels):
        rels.append(
            "("
            + ",".join(
                "(" + ",".join(str(rng.randrange(d)) for d in ring.additive_orders) + ")"
                if ring.rank > 1
                else str(rng.randrange(ring.size))
                for _ in range(k)
            )
            + ")"
        )
    return f"module over {ring_expr}: gens={k}; rels=[{', '.join(rels)}]"


def corpus_generate(seed: int, count: int, max_ring: int = 64, max_module: int = 512):
    """Deterministic instance list; quotas keep both coverability branches hot.

    At least a fifth of the instances are cyclic and at least a fifth
    live over a ring with two or more maximal ideals. Raises ValueError
    when max_ring leaves no ring with two maximal ideals, or when the
    quotas cannot be met within max_module.
    """
    from .dsl import parse_module, parse_ring

    rng = random.Random(seed)
    pool = _ring_pool(max_ring)
    multi_pool = [
        e for e in pool if " x " in e or ("Z/" in e and _squarefree_composite_part(e))
    ]
    if count > 0 and not multi_pool:  # also when the whole pool is empty
        raise ValueError(
            f"max_ring = {max_ring} leaves no ring with two maximal ideals, "
            "which the corpus quotas need"
        )
    specs = []
    quota_cyclic = -(-count // 5)
    quota_multi = -(-count // 5)

    def admit(ring_expr, module_expr):
        try:
            m = parse_module(module_expr)
        except Exception:
            return None
        if m.size < 2 or m.size > max_module:
            return None
        spec = InstanceSpec(ring_expr, module_expr, seed, "GENERATED")
        specs.append(spec)
        return m

    attempts = 0
    while len(specs) < count and attempts < count * 200:
        attempts += 1
        i = len(specs)
        if i < quota_cyclic:
            ring_expr = rng.choice(pool)
            admit(ring_expr, f"free 1 over {ring_expr}")
            continue
        if i < quota_cyclic + quota_multi:
            ring_expr = rng.choice(multi_pool)
            ring = parse_ring(ring_expr)
            expr = _random_presentation(rng, ring_expr, ring)
            admit(ring_expr, expr)
            continue
        ring_expr = rng.choice(pool)
        style = rng.random()
        if style < 0.35 and ring_expr.startswith("Z/") and " x " not in ring_expr:
            n = int(ring_expr.split("/")[1])
            divisors = [d for d in range(2, n + 1) if n % d == 0]
            parts = [rng.choice(divisors) for _ in range(rng.randint(1, 3))]
            expr = " (+) ".join(f"Z/{d}" for d in parts) + f" over {ring_expr}"
        elif style < 0.55:
            ring = parse_ring(ring_expr)
            k = 2 if ring.size * ring.size <= max_module else 1
            expr = f"free {k} over {ring_expr}"
        else:
            ring = parse_ring(ring_expr)
            expr = _random_presentation(rng, ring_expr, ring)
        admit(ring_expr, expr)
    if len(specs) < count:
        raise ValueError(
            f"corpus generation failed to meet its quotas: {len(specs)} of {count} "
            f"instances admitted with max_module = {max_module}"
        )
    return specs


def _squarefree_composite_part(expr: str) -> bool:
    n = int(expr.split("/")[1])
    f = 2
    distinct = 0
    while f * f <= n:
        if n % f == 0:
            distinct += 1
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        distinct += 1
    return distinct >= 2


# -- checks -------------------------------------------------------------------


def _counterexample(spec: InstanceSpec, **values) -> dict:
    return {"ring": spec.ring_expr, "module": spec.module_expr, **values}


def check_sigma_agreement(spec: InstanceSpec, m) -> CheckResult:
    """Exact covering number against the closed form."""

    def run():
        pred = sigma_formula(m)
        cert = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
        if pred.coverable != cert.is_cover or pred.value != cert.size:
            return CheckResult(
                "sigma-agreement",
                FAIL,
                _counterexample(spec, formula=pred.value, exact=cert.size),
                0,
            )
        return CheckResult(
            "sigma-agreement", PASS, {"sigma": pred.value}, 0
        )

    return _guarded("sigma-agreement", run)


def check_radical_agreement(spec: InstanceSpec, m) -> CheckResult:
    def run():
        a = radical_via_maximal(m)
        b = radical_via_ideals(m)
        if a != b:
            return CheckResult(
                "radical-agreement",
                FAIL,
                _counterexample(
                    spec, via_maximal=a.bit_count(), via_ideals=b.bit_count()
                ),
                0,
            )
        return CheckResult("radical-agreement", PASS, {"radical_size": a.bit_count()}, 0)

    return _guarded("radical-agreement", run)


def check_cyclicity(spec: InstanceSpec, m) -> CheckResult:
    """Cyclicity (some element lies in no maximal submodule) against
    S = ∅ (from residue dimensions), and the witness against its own
    closure."""

    def run():
        cyclic, witness = is_cyclic(m)
        coverable = sigma_formula(m).coverable
        if coverable == cyclic:
            return CheckResult(
                "cyclicity",
                FAIL,
                _counterexample(spec, cyclic=cyclic, coverable=coverable),
                0,
            )
        if cyclic and submodule_generated(m, [m.index_of(witness)]).is_proper():
            return CheckResult(
                "cyclicity",
                FAIL,
                _counterexample(spec, cyclic=cyclic, witness=list(witness)),
                0,
            )
        details = {"cyclic": cyclic}
        if witness is not None:
            details["witness"] = list(witness)
        return CheckResult("cyclicity", PASS, details, 0)

    return _guarded("cyclicity", run)


def check_localization(spec: InstanceSpec, m) -> CheckResult:
    def run():
        entries = s_set(m)
        if not entries:
            return CheckResult("localization", SKIPPED, {"reason": "S empty"}, 0)
        if len(entries) == len(maximal_ideals(m.ring)):
            return CheckResult(
                "localization", SKIPPED, {"reason": "S already equals mSpec"}, 0
            )
        before = sigma_formula(m)
        localized, _ = localize_at_s(m)
        after = sigma_formula(localized)
        after_exact = sigma_exact(localized, SearchSpace.MAXIMAL_ONLY)
        ok = (
            before.value == after.value
            and after_exact.size == after.value
            and {e.ideal.members for e in s_set(localized)}
            == {i.members for i in maximal_ideals(localized.ring)}
        )
        if not ok:
            return CheckResult(
                "localization",
                FAIL,
                _counterexample(
                    spec,
                    sigma_before=before.value,
                    sigma_after=after.value,
                    sigma_after_exact=after_exact.size,
                ),
                0,
            )
        return CheckResult("localization", PASS, {"sigma": before.value}, 0)

    return _guarded("localization", run)


def check_finiteness(spec: InstanceSpec, m) -> CheckResult:
    def run():
        cert = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
        has_s = bool(s_set(m))
        cyclic, _ = is_cyclic(m)
        if not (cert.is_cover == has_s == (not cyclic)):
            return CheckResult(
                "finiteness",
                FAIL,
                _counterexample(
                    spec, cover_exists=cert.is_cover, s_nonempty=has_s, cyclic=cyclic
                ),
                0,
            )
        return CheckResult("finiteness", PASS, {"coverable": cert.is_cover}, 0)

    return _guarded("finiteness", run)


def check_maximal_count(spec: InstanceSpec, m) -> CheckResult:
    def run():
        expected = sum(
            (e.residue_size**e.multiplicity - 1) // (e.residue_size - 1)
            for e in semisimple_invariants(m)
        )
        maximal = maximal_submodules(m)
        actual = len(maximal)
        if expected != actual:
            return CheckResult(
                "maximal-count",
                FAIL,
                _counterexample(spec, expected=expected, actual=actual),
                0,
            )
        if m.size <= 64:
            # all_submodules is sorted by size and holds no mask twice, so
            # only a later submodule can strictly contain an earlier one
            proper = [s for s in all_submodules(m) if s.is_proper()]
            lattice = {
                s.members
                for i, s in enumerate(proper)
                if not any(s.members & ~t.members == 0 for t in proper[i + 1 :])
            }
            if lattice != {s.members for s in maximal}:
                return CheckResult(
                    "maximal-count",
                    FAIL,
                    _counterexample(spec, hyperplane=actual, lattice=len(lattice)),
                    0,
                )
        return CheckResult("maximal-count", PASS, {"count": actual}, 0)

    return _guarded("maximal-count", run)


def check_hdim_additivity(
    spec_a: InstanceSpec, a, spec_b: InstanceSpec, b
) -> CheckResult:
    """hdim(a (+) b) = hdim(a) + hdim(b), with each hdim (Σ dim M/mM) also
    compared with the length of M/J(M); lists are for a, b, a (+) b."""

    def run():
        modules = (a, b, direct_sum(a, b))
        via_sum = [hdim(x) for x in modules]
        via_length = [length(quotient_module(x, jacobson_radical(x))[0]) for x in modules]
        ha, hb, total = via_sum
        if via_sum != via_length or total != ha + hb:
            return CheckResult(
                "hdim-additivity",
                FAIL,
                {
                    "ring": spec_a.ring_expr,
                    "module_a": spec_a.module_expr,
                    "module_b": spec_b.module_expr,
                    "hdim_sum": ha + hb,
                    "hdim_direct_sum": total,
                    "hdim": via_sum,
                    "length_top": via_length,
                },
                0,
            )
        return CheckResult("hdim-additivity", PASS, {"hdim": total}, 0)

    return _guarded("hdim-additivity", run)


def _guarded(name, run) -> CheckResult:
    t0 = time.perf_counter()
    try:
        res = run()
    except GuardExceeded as exc:
        res = CheckResult(name, SKIPPED, {"reason": f"guard {exc.guard}: {exc}"}, 0)
    ms = (time.perf_counter() - t0) * 1000
    return CheckResult(res.check, res.status, res.details, round(ms, 3))


DEFAULT_CHECKS = ("sigma-agreement", "radical-agreement", "cyclicity", "localization", "finiteness", "maximal-count")
_CHECK_FNS = {
    "sigma-agreement": check_sigma_agreement,
    "radical-agreement": check_radical_agreement,
    "cyclicity": check_cyclicity,
    "localization": check_localization,
    "finiteness": check_finiteness,
    "maximal-count": check_maximal_count,
}


def _run_one(args):
    spec_tuple, checks = args
    spec = InstanceSpec(*spec_tuple)
    try:
        m = _realize_spec(spec)
    except GuardExceeded as exc:
        results = tuple(
            CheckResult(name, SKIPPED, {"reason": f"guard {exc.guard}"}, 0)
            for name in checks
        )
        return VerificationReport(spec, results)
    results = tuple(_CHECK_FNS[name](spec, m) for name in checks)
    return VerificationReport(spec, results)


def run_suite(specs, checks=DEFAULT_CHECKS, parallelism: int = 1):
    """Run every check on every instance; returns (reports, summary).

    Output is sorted by instance key, so the report is byte-identical
    regardless of the worker count.
    """
    unknown = [c for c in checks if c not in _CHECK_FNS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    jobs = [
        ((s.ring_expr, s.module_expr, s.seed, s.provenance), tuple(checks))
        for s in specs
    ]
    if parallelism > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            reports = list(pool.map(_run_one, jobs, chunksize=4))
    else:
        reports = [_run_one(j) for j in jobs]
    reports.sort(key=lambda r: r.instance.key)
    summary = {"instances": len(reports), "PASS": 0, "FAIL": 0, "SKIPPED": 0}
    per_check = {}
    for r in reports:
        for c in r.results:
            summary[c.status] += 1
            slot = per_check.setdefault(c.check, {"PASS": 0, "FAIL": 0, "SKIPPED": 0})
            slot[c.status] += 1
    summary["per_check"] = per_check
    return reports, summary


def hdim_pairs_from_specs(specs, limit=None):
    """Consecutive same-ring instance pairs, for the additivity check."""
    by_ring = {}
    for s in specs:
        by_ring.setdefault(s.ring_expr, []).append(s)
    pairs = []
    for ring_expr in sorted(by_ring):
        group = by_ring[ring_expr]
        for i in range(0, len(group) - 1, 2):
            pairs.append((group[i], group[i + 1]))
    if limit is not None:
        pairs = pairs[:limit]
    return pairs


def run_hdim_pairs(pairs, max_product=1024):
    """Additivity reports for instance pairs within the size budget."""
    out = []
    for spec_a, spec_b in pairs:
        try:
            a = _realize_spec(spec_a)
            b = _realize_spec(spec_b)
        except GuardExceeded as exc:
            out.append(
                CheckResult("hdim-additivity", SKIPPED, {"reason": f"guard {exc.guard}"}, 0)
            )
            continue
        if a.size * b.size > max_product:
            out.append(
                CheckResult(
                    "hdim-additivity",
                    SKIPPED,
                    {"reason": f"|A|*|B| = {a.size * b.size} over budget {max_product}"},
                    0,
                )
            )
            continue
        out.append(check_hdim_additivity(spec_a, a, spec_b, b))
    return out


# -- serialization -------------------------------------------------------------


def reports_to_json(reports, summary, extra_results=()) -> str:
    payload = {
        "summary": summary,
        "reports": [
            {
                "instance": {
                    "ring": r.instance.ring_expr,
                    "module": r.instance.module_expr,
                    "seed": r.instance.seed,
                    "provenance": r.instance.provenance,
                },
                "checks": [
                    {
                        "check": c.check,
                        "status": c.status,
                        "details": c.details,
                        "ms": c.ms,
                    }
                    for c in r.results
                ],
            }
            for r in reports
        ],
    }
    if extra_results:
        payload["pair_checks"] = [
            {"check": c.check, "status": c.status, "details": c.details, "ms": c.ms}
            for c in extra_results
        ]
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_to_csv(reports, extra_results=()) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["ring", "module", "seed", "check", "status", "details", "ms"])
    for r in reports:
        for c in r.results:
            w.writerow(
                [
                    r.instance.ring_expr,
                    r.instance.module_expr,
                    r.instance.seed,
                    c.check,
                    c.status,
                    json.dumps(c.details, sort_keys=True),
                    c.ms,
                ]
            )
    for c in extra_results:
        w.writerow(["", "", "", c.check, c.status, json.dumps(c.details, sort_keys=True), c.ms])
    return buf.getvalue()
