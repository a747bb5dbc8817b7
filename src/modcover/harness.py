"""Corpus generation and identity checks over generated module instances.

Instances are pairs of DSL strings (ring, module), so every reported
counterexample can be replayed through the CLI verbatim. A check body
returns (status, details): PASS, FAIL with a payload, or SKIPPED with a
reason; `_check` names and times it, and turns a tripped guard into
SKIPPED naming the guard. The check names are short labels for the
identities they test:

    sigma-agreement     exact minimum cover size equals the closed form
    radical-agreement   both radical computations coincide
    cyclicity           not coverable exactly when one generator suffices
    localization        the covering number survives localization
    finiteness          a finite cover exists exactly when predicted
    maximal-count       maximal-submodule count matches the hyperplane tally,
                        and for |M| <= 64 the maximal submodules are the
                        coatoms of the submodule lattice, read off its walk
    hdim-additivity     hdim adds over direct sums and is the length of
                        M/J(M) (pairs of instances)

`run_suite` and `run_hdim_pairs` run them, `tally` counts their results
into the summary, and `reports_to_text`, `reports_to_json` and
`reports_to_csv` render the report.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field

from .covering import SearchSpace, greedy_cover, sigma_exact, sigma_formula
from .errors import GuardExceeded
from .modules import (
    REALIZE_INTERMEDIATE_GUARD,
    ModulePresentation,
    direct_sum,
    hdim,
    is_cyclic,
    jacobson_radical,
    lattice_coatoms,
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
from .rings import _prime_powers, maximal_ideals, power_exceeds

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

HDIM_PAIR_BUDGET = 1024  # the largest |A| * |B| an hdim pair is checked at


@dataclass(frozen=True)
class InstanceSpec:
    """One instance as replayable text. `corpus_generate` also keeps the
    module it realized to admit the instance, so the checks reuse it;
    the module takes no part in equality, hashing or the sort key, and a
    pickled spec is its four other fields alone."""

    ring_expr: str
    module_expr: str
    seed: int
    provenance: str  # GENERATED | CURATED
    module: object = field(default=None, compare=False, repr=False)

    @property
    def key(self):
        return (self.ring_expr, self.module_expr, self.seed)

    def __reduce__(self):
        return InstanceSpec, (self.ring_expr, self.module_expr, self.seed, self.provenance)

    def record(self) -> dict:
        """The instance as a JSON record, in `corpus --json` key order."""
        return {
            "ring": self.ring_expr,
            "module": self.module_expr,
            "seed": self.seed,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    details: dict
    ms: float

    def record(self) -> dict:
        """The result as a JSON record."""
        return {"check": self.check, "status": self.status, "details": self.details, "ms": self.ms}


@dataclass(frozen=True)
class VerificationReport:
    instance: InstanceSpec
    results: tuple


def _realize_spec(spec: InstanceSpec):
    """The spec's module; parsed from its text only when it carries none."""
    if spec.module is not None:
        return spec.module
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


def _random_presentation(rng, ring):
    k = rng.randint(1, 3)
    if power_exceeds(ring.size, k, REALIZE_INTERMEDIATE_GUARD):
        k = 1
    rels = tuple(
        tuple(tuple(rng.randrange(d) for d in ring.orders) for _ in range(k))
        for _ in range(rng.randint(0, k + 1))
    )
    return ModulePresentation(ring, k, rels).to_dsl()


def corpus_generate(seed: int, count: int, max_ring: int = 64, max_module: int = 512):
    """Deterministic instance list; quotas keep both coverability branches hot.

    At least a fifth of the instances are cyclic and at least a fifth
    live over a ring with two or more maximal ideals. Raises ValueError
    when max_ring leaves no ring with two maximal ideals, or when the
    quotas cannot be met within max_module; both are found before any
    draw when no ring or no module fits.
    """
    from .dsl import parse_module, parse_ring

    rng = random.Random(seed)
    pool = _ring_pool(max_ring)
    multi_pool = [
        e
        for e in pool
        if " x " in e or ("Z/" in e and len(_prime_powers(int(e.split("/")[1]))) >= 2)
    ]
    if count > 0 and not multi_pool:  # also when the whole pool is empty
        raise ValueError(
            f"max_ring = {max_ring} leaves no ring with two maximal ideals, "
            "which the corpus quotas need"
        )
    if count > 0 and max_module < 2:
        raise ValueError(
            "corpus generation failed to meet its quotas: no module of at least "
            f"2 elements fits in max_module = {max_module}"
        )
    specs = []
    quota_cyclic = -(-count // 5)
    quota_multi = -(-count // 5)

    def admit(ring_expr, module_expr):
        try:
            m = parse_module(module_expr)
        except GuardExceeded:
            return None
        if m.size < 2 or m.size > max_module:
            return None
        specs.append(InstanceSpec(ring_expr, module_expr, seed, "GENERATED", m))
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
            expr = _random_presentation(rng, ring)
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
            expr = _random_presentation(rng, ring)
        admit(ring_expr, expr)
    if len(specs) < count:
        raise ValueError(
            f"corpus generation failed to meet its quotas: {len(specs)} of {count} "
            f"instances admitted with max_module = {max_module}"
        )
    return specs


# -- checks -------------------------------------------------------------------


def _check(name):
    """Give a check body its report name. The body returns
    ``(status, details)``; the check returns one timed CheckResult, and a
    GuardExceeded inside the body becomes SKIPPED naming the guard."""

    def wrap(body):
        @functools.wraps(body)
        def check(*args) -> CheckResult:
            t0 = time.perf_counter()
            try:
                status, details = body(*args)
            except GuardExceeded as exc:
                status, details = SKIPPED, {"reason": f"guard {exc.guard}: {exc}"}
            ms = (time.perf_counter() - t0) * 1000
            return CheckResult(name, status, details, round(ms, 3))

        check.name = name
        return check

    return wrap


def _counterexample(spec: InstanceSpec, **values) -> dict:
    return {"ring": spec.ring_expr, "module": spec.module_expr, **values}


@_check("sigma-agreement")
def check_sigma_agreement(spec: InstanceSpec, m):
    """Exact covering number against the closed form."""
    pred = sigma_formula(m)
    cert = sigma_exact(m, SearchSpace.MAXIMAL_ONLY)
    if pred.coverable != cert.is_cover or pred.value != cert.size:
        return FAIL, _counterexample(spec, formula=pred.value, exact=cert.size)
    return PASS, {"sigma": pred.value}


@_check("radical-agreement")
def check_radical_agreement(spec: InstanceSpec, m):
    a = radical_via_maximal(m)
    b = radical_via_ideals(m)
    if a != b:
        return FAIL, _counterexample(
            spec, via_maximal=a.bit_count(), via_ideals=b.bit_count()
        )
    return PASS, {"radical_size": a.bit_count()}


@_check("cyclicity")
def check_cyclicity(spec: InstanceSpec, m):
    """Cyclicity (some element lies in no maximal submodule) against
    S = ∅ (from residue dimensions), and the witness against its own
    closure."""
    cyclic, witness = is_cyclic(m)
    coverable = sigma_formula(m).coverable
    if coverable == cyclic:
        return FAIL, _counterexample(spec, cyclic=cyclic, coverable=coverable)
    if cyclic and submodule_generated(m, [m.index_of(witness)]).is_proper():
        return FAIL, _counterexample(spec, cyclic=cyclic, witness=list(witness))
    details = {"cyclic": cyclic}
    if witness is not None:
        details["witness"] = list(witness)
    return PASS, details


@_check("localization")
def check_localization(spec: InstanceSpec, m):
    entries = s_set(m)
    if not entries:
        return SKIPPED, {"reason": "S empty"}
    if len(entries) == len(maximal_ideals(m.ring)):
        return SKIPPED, {"reason": "S already equals mSpec"}
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
        return FAIL, _counterexample(
            spec,
            sigma_before=before.value,
            sigma_after=after.value,
            sigma_after_exact=after_exact.size,
        )
    return PASS, {"sigma": before.value}


@_check("finiteness")
def check_finiteness(spec: InstanceSpec, m):
    """A cover exists (the maximal submodules union to M, which is where
    `sigma_exact` reads coverability) exactly when S is nonempty and M
    is not cyclic."""
    covers = greedy_cover(m).is_cover
    has_s = bool(s_set(m))
    cyclic, _ = is_cyclic(m)
    if not (covers == has_s == (not cyclic)):
        return FAIL, _counterexample(
            spec, cover_exists=covers, s_nonempty=has_s, cyclic=cyclic
        )
    return PASS, {"coverable": covers}


@_check("maximal-count")
def check_maximal_count(spec: InstanceSpec, m):
    expected = sum(
        (e.residue_size**e.multiplicity - 1) // (e.residue_size - 1)
        for e in semisimple_invariants(m)
    )
    maximal = maximal_submodules(m)
    actual = len(maximal)
    if expected != actual:
        return FAIL, _counterexample(spec, expected=expected, actual=actual)
    if m.size <= 64:
        lattice = {s.members for s in lattice_coatoms(m)}
        if lattice != {s.members for s in maximal}:
            return FAIL, _counterexample(spec, hyperplane=actual, lattice=len(lattice))
    return PASS, {"count": actual}


@_check("hdim-additivity")
def check_hdim_additivity(spec_a: InstanceSpec, a, spec_b: InstanceSpec, b):
    """hdim(a (+) b) = hdim(a) + hdim(b), with each hdim (Σ dim M/mM) also
    compared with the length of M/J(M); lists are for a, b, a (+) b."""
    modules = (a, b, direct_sum(a, b))
    via_sum = [hdim(x) for x in modules]
    via_length = [length(quotient_module(x, jacobson_radical(x))[0]) for x in modules]
    ha, hb, total = via_sum
    if via_sum != via_length or total != ha + hb:
        return FAIL, {
            "ring": spec_a.ring_expr,
            "module_a": spec_a.module_expr,
            "module_b": spec_b.module_expr,
            "hdim_sum": ha + hb,
            "hdim_direct_sum": total,
            "hdim": via_sum,
            "length_top": via_length,
        }
    return PASS, {"hdim": total}


_CHECK_FNS = {
    fn.name: fn
    for fn in (
        check_sigma_agreement,
        check_radical_agreement,
        check_cyclicity,
        check_localization,
        check_finiteness,
        check_maximal_count,
    )
}
DEFAULT_CHECKS = tuple(_CHECK_FNS)


def _skipped(name, reason) -> CheckResult:
    """A check that never ran: SKIPPED with `reason`, in no time."""
    return CheckResult(name, SKIPPED, {"reason": reason}, 0)


def _run_one(spec: InstanceSpec, checks) -> VerificationReport:
    try:
        m = _realize_spec(spec)
    except GuardExceeded as exc:
        return VerificationReport(
            spec, tuple(_skipped(name, f"guard {exc.guard}") for name in checks)
        )
    return VerificationReport(spec, tuple(_CHECK_FNS[name](spec, m) for name in checks))


def tally(summary, results):
    """Add each result to the summary's status totals and its per-check
    counts."""
    for c in results:
        summary[c.status] += 1
        slot = summary["per_check"].setdefault(c.check, {PASS: 0, FAIL: 0, SKIPPED: 0})
        slot[c.status] += 1


def validate_checks(checks) -> tuple:
    """The check names as a tuple; ValueError on an unknown or repeated
    name."""
    checks = tuple(checks)
    unknown = [c for c in checks if c not in _CHECK_FNS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise ValueError(f"repeated checks: {repeated}")
    return checks


def run_suite(specs, checks=DEFAULT_CHECKS, parallelism: int = 1):
    """Run every check on every instance; returns (reports, summary).

    Output is sorted by instance key, so the report is byte-identical
    regardless of the worker count. Raises ValueError on an unknown or
    repeated check name.
    """
    run = functools.partial(_run_one, checks=validate_checks(checks))
    if parallelism > 1 and len(specs) > 1:
        import concurrent.futures  # only a parallel run pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            reports = list(pool.map(run, specs, chunksize=4))
    else:
        reports = [run(s) for s in specs]
    reports.sort(key=lambda r: r.instance.key)
    summary = {"instances": len(reports), PASS: 0, FAIL: 0, SKIPPED: 0, "per_check": {}}
    for r in reports:
        tally(summary, r.results)
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


def run_hdim_pairs(pairs):
    """Additivity reports for instance pairs within the size budget."""
    name = check_hdim_additivity.name
    out = []
    for spec_a, spec_b in pairs:
        try:
            a = _realize_spec(spec_a)
            b = _realize_spec(spec_b)
        except GuardExceeded as exc:
            out.append(_skipped(name, f"guard {exc.guard}"))
            continue
        if a.size * b.size > HDIM_PAIR_BUDGET:
            reason = f"|A|*|B| = {a.size * b.size} over budget {HDIM_PAIR_BUDGET}"
            out.append(_skipped(name, reason))
            continue
        out.append(check_hdim_additivity(spec_a, a, spec_b, b))
    return out


# -- serialization -------------------------------------------------------------


def reports_to_json(reports, summary, extra_results=()) -> str:
    payload = {
        "summary": summary,
        "reports": [
            {"instance": r.instance.record(), "checks": [c.record() for c in r.results]}
            for r in reports
        ],
    }
    if extra_results:
        payload["pair_checks"] = [c.record() for c in extra_results]
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_to_csv(reports, extra_results=()) -> str:
    import csv
    import io

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


def reports_to_text(reports, summary, extra_results=(), verbose=False) -> str:
    """One line per result that did not pass (per result when verbose),
    then the summary and its per-check counts."""
    lines = []
    for r in reports:
        for c in r.results:
            if c.status != PASS or verbose:
                lines.append(
                    f"{c.status:7s} {c.check:17s} {r.instance.module_expr}"
                    + (f"  {json.dumps(c.details, sort_keys=True)}"
                       if c.status != PASS else "")
                )
    for c in extra_results:
        if c.status != PASS or verbose:
            lines.append(
                f"{c.status:7s} {c.check:17s} " + json.dumps(c.details, sort_keys=True)
            )
    lines.append(
        "summary: {instances} instances, {PASS} PASS, {FAIL} FAIL, "
        "{SKIPPED} SKIPPED".format(**summary)
    )
    for name in sorted(summary["per_check"]):
        slot = summary["per_check"][name]
        lines.append(
            f"  {name:17s} PASS={slot[PASS]} FAIL={slot[FAIL]} "
            f"SKIPPED={slot[SKIPPED]}"
        )
    return "\n".join(lines)
