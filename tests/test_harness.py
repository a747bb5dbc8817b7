import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modcover.harness as harness
from modcover.dsl import parse_module, parse_ring
from modcover.errors import GuardExceeded
from modcover.harness import (
    DEFAULT_CHECKS,
    InstanceSpec,
    check_cyclicity,
    check_hdim_additivity,
    check_localization,
    check_maximal_count,
    check_sigma_agreement,
    corpus_generate,
    hdim_pairs_from_specs,
    reports_to_csv,
    reports_to_json,
    run_hdim_pairs,
    run_suite,
)
from modcover.modules import is_cyclic
from modcover.rings import maximal_ideals


# -- corpus ---------------------------------------------------------------------


def test_corpus_is_deterministic():
    a = corpus_generate(seed=1, count=30)
    b = corpus_generate(seed=1, count=30)
    assert a == b


def test_corpus_seeds_differ():
    assert corpus_generate(seed=1, count=10) != corpus_generate(seed=2, count=10)


def test_corpus_count_zero():
    assert corpus_generate(seed=1, count=0) == []


def test_corpus_respects_guards_and_quotas():
    specs = corpus_generate(seed=3, count=40, max_ring=64, max_module=512)
    assert len(specs) == 40
    cyclic = 0
    multi = 0
    for spec in specs:
        m = parse_module(spec.module_expr)
        assert 2 <= m.size <= 512
        assert m.ring.size <= 64
        if is_cyclic(m)[0]:
            cyclic += 1
        if len(maximal_ideals(parse_ring(spec.ring_expr))) >= 2:
            multi += 1
    assert cyclic >= 8  # at least 20%
    assert multi >= 8


def test_corpus_expressions_parse():
    for spec in corpus_generate(seed=5, count=15):
        parse_ring(spec.ring_expr)
        parse_module(spec.module_expr)
        assert spec.provenance == "GENERATED"


def test_corpus_drops_only_the_instances_past_a_guard(monkeypatch):
    # an internal error while parsing a candidate is raised, not read as a
    # module that does not fit
    import modcover.dsl as dsl

    calls = []
    real = dsl.parse_module

    def failing(expr):
        calls.append(expr)
        if len(calls) == 3:
            raise AssertionError("internal error")
        return real(expr)

    monkeypatch.setattr(dsl, "parse_module", failing)
    with pytest.raises(AssertionError, match="internal error"):
        corpus_generate(seed=1, count=10)


# -- checks ---------------------------------------------------------------------


def curated(expr, ring_expr=None):
    ring_expr = ring_expr or expr.split("over")[-1].strip()
    return InstanceSpec(ring_expr, expr, 0, "CURATED")


def test_check_sigma_agreement_passes_on_known_instances():
    for expr in [
        "free 2 over Z/2",
        "free 1 over Z/6",
        "module over Z/4: gens=2; rels=[(2,0)]",
    ]:
        spec = curated(expr)
        result = check_sigma_agreement(spec, parse_module(expr))
        assert result.status == "PASS", result.details


def test_check_localization_pass_and_skip_reasons():
    spec = curated("Z/2 (+) Z/2 (+) Z/3 over Z/6")
    assert check_localization(spec, parse_module(spec.module_expr)).status == "PASS"

    cyclic = curated("free 1 over Z/6")
    r = check_localization(cyclic, parse_module(cyclic.module_expr))
    assert r.status == "SKIPPED" and "S empty" in r.details["reason"]

    everything = curated("free 2 over Z/2")
    r = check_localization(everything, parse_module(everything.module_expr))
    assert r.status == "SKIPPED" and "mSpec" in r.details["reason"]


def test_failure_payload_carries_repro_expressions(monkeypatch):
    # force a formula/exact mismatch to exercise the FAIL path
    from modcover.covering import SigmaPrediction

    monkeypatch.setattr(
        harness, "sigma_formula", lambda m: SigmaPrediction(99, None, 98)
    )
    spec = curated("free 2 over Z/2")
    result = check_sigma_agreement(spec, parse_module(spec.module_expr))
    assert result.status == "FAIL"
    assert result.details["module"] == "free 2 over Z/2"
    assert result.details["ring"] == "Z/2"
    assert result.details["formula"] == 99 and result.details["exact"] == 3
    # the payload round-trips through the parser
    assert parse_module(result.details["module"]).size == 4


def test_cyclicity_checks_the_witness_generates(monkeypatch):
    spec = curated("free 1 over Z/6")
    m = parse_module(spec.module_expr)
    result = check_cyclicity(spec, m)
    assert result.status == "PASS"
    assert result.details == {"cyclic": True, "witness": [1]}
    # a cyclic answer with a witness that generates nothing must fail
    monkeypatch.setattr(harness, "is_cyclic", lambda m: (True, m.zero))
    result = check_cyclicity(spec, m)
    assert result.status == "FAIL"
    assert result.details["witness"] == [0]
    assert result.details["module"] == "free 1 over Z/6"


def test_maximal_count_compares_the_masks(monkeypatch):
    spec = curated("free 2 over Z/3")
    m = parse_module(spec.module_expr)
    assert check_maximal_count(spec, m).details == {"count": 4}
    # the right count of submodules, but not the maximal ones
    real = harness.maximal_submodules
    monkeypatch.setattr(harness, "maximal_submodules", lambda m: real(m)[:1] * 4)
    result = check_maximal_count(spec, m)
    assert result.status == "FAIL"
    assert result.details["hyperplane"] == 4 and result.details["lattice"] == 4


@pytest.mark.parametrize(
    "check, name, fake, expr, keys",
    [
        # the radical from the maximal submodules is all of M
        ("radical-agreement", "radical_via_maximal", lambda real: lambda m: m.full_mask,
         "free 1 over Z/4", {"via_maximal", "via_ideals"}),
        # a cyclic module reads as not cyclic, so not cyclic == not coverable
        ("cyclicity", "is_cyclic", lambda real: lambda m: (False, None),
         "free 1 over Z/6", {"cyclic", "coverable"}),
        # localizing leaves M as it is, so S stays short of mSpec
        ("localization", "localize_at_s", lambda real: lambda m: (m, None),
         "Z/2 (+) Z/2 (+) Z/3 over Z/6",
         {"sigma_before", "sigma_after", "sigma_after_exact"}),
        # the greedy cover's answer is turned over
        ("finiteness", "greedy_cover",
         lambda real: lambda m: dataclasses.replace(real(m), is_cover=not real(m).is_cover),
         "free 2 over Z/2", {"cover_exists", "s_nonempty", "cyclic"}),
        # one maximal submodule goes missing
        ("maximal-count", "maximal_submodules", lambda real: lambda m: real(m)[1:],
         "free 2 over Z/3", {"expected", "actual"}),
    ],
)
def test_each_check_fails_with_a_replayable_payload(monkeypatch, check, name, fake, expr, keys):
    spec = curated(expr)
    m = parse_module(expr)
    monkeypatch.setattr(harness, name, fake(getattr(harness, name)))
    result = harness._CHECK_FNS[check](spec, m)
    assert result.status == "FAIL"
    assert set(result.details) == {"ring", "module"} | keys
    # one line replays the instance: both expressions parse back to it
    ring, module = parse_ring(result.details["ring"]), parse_module(result.details["module"])
    assert (ring.label, ring.orders, ring.table) == (m.ring.label, m.ring.orders, m.ring.table)
    assert (module.orders, module.table) == (m.orders, m.table)


def test_hdim_length_mismatch_fails_with_repro_expressions(monkeypatch):
    # force length(M/J(M)) off by one to exercise the FAIL path
    real_length = harness.length
    monkeypatch.setattr(harness, "length", lambda m: real_length(m) + 1)
    a, b = curated("free 1 over Z/6"), curated("Z/2 (+) Z/3 over Z/6")
    result = check_hdim_additivity(a, parse_module(a.module_expr), b, parse_module(b.module_expr))
    assert result.status == "FAIL"
    assert result.details["hdim"] == [2, 2, 4]
    assert result.details["length_top"] == [3, 3, 5]
    assert result.details["ring"] == "Z/6"
    # the payload round-trips through the parser
    for key in ("module_a", "module_b"):
        assert parse_module(result.details[key]).size == 6


def test_hdim_pair_check():
    specs = [
        curated("free 1 over Z/6"),
        curated("Z/2 (+) Z/3 over Z/6"),
        curated("free 2 over Z/2"),
        curated("module over Z/2: gens=2; rels=[(1,0)]"),
    ]
    pairs = hdim_pairs_from_specs(specs)
    assert all(a.ring_expr == b.ring_expr for a, b in pairs)
    results = run_hdim_pairs(pairs)
    assert results and all(r.status == "PASS" for r in results)


# -- suite ----------------------------------------------------------------------


def test_run_suite_empty():
    reports, summary = run_suite([])
    assert reports == []
    assert summary["instances"] == 0
    assert summary["FAIL"] == 0


def test_run_suite_full_pipeline_zero_failures():
    specs = corpus_generate(seed=9, count=12)
    reports, summary = run_suite(specs, DEFAULT_CHECKS)
    assert summary["FAIL"] == 0
    assert summary["instances"] == 12
    for r in reports:
        for c in r.results:
            assert c.status in ("PASS", "SKIPPED")
            if c.status == "SKIPPED":
                assert "reason" in c.details


def test_run_suite_parallelism_is_invisible():
    specs = corpus_generate(seed=4, count=10)
    serial = run_suite(specs, ("sigma-agreement", "radical-agreement"), parallelism=1)
    parallel = run_suite(specs, ("sigma-agreement", "radical-agreement"), parallelism=4)
    strip = lambda reports: [
        (r.instance, [(c.check, c.status, c.details) for c in r.results])
        for r in reports
    ]
    assert strip(serial[0]) == strip(parallel[0])
    assert serial[1]["PASS"] == parallel[1]["PASS"]


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ValueError):
        run_suite([], ("bogus",))


def test_run_suite_rejects_a_repeated_check():
    specs = corpus_generate(seed=1, count=5)
    with pytest.raises(ValueError, match="repeated checks"):
        run_suite(specs, ("sigma-agreement", "cyclicity", "sigma-agreement"))


def test_default_checks_are_the_registered_checks():
    assert DEFAULT_CHECKS == tuple(harness._CHECK_FNS)
    for name, fn in harness._CHECK_FNS.items():
        spec = curated("free 2 over Z/2")
        assert fn(spec, parse_module(spec.module_expr)).check == name


# -- one realization per instance ------------------------------------------------


def test_verify_realizes_each_instance_once(capsys, monkeypatch):
    import modcover.cli as cli
    import modcover.dsl as dsl

    calls, inside = [], []
    real = dsl.parse_module
    monkeypatch.setattr(dsl, "parse_module", lambda expr: calls.append(expr) or real(expr))

    def counted(run):
        def wrapper(*args, **kwargs):
            before = len(calls)
            out = run(*args, **kwargs)
            inside.append((run.__name__, len(calls) - before))
            return out

        return wrapper

    for name in ("run_suite", "run_hdim_pairs"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    argv = ["verify", "--seed", "1", "--count", "40", "--hdim-pairs", "10"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert inside == [("run_suite", 0), ("run_hdim_pairs", 0)]
    assert len(calls) >= 40  # corpus_generate parsed every admitted instance


def test_finiteness_runs_no_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("finiteness ran the branch and bound")

    monkeypatch.setattr(harness, "sigma_exact", forbidden)
    for spec in corpus_generate(seed=1, count=40):
        result = harness.check_finiteness(spec, spec.module)
        assert result.status == "PASS", (spec.module_expr, result.details)
        assert result.details["coverable"] == (not is_cyclic(spec.module)[0])


def test_a_spec_pickles_without_its_module():
    import pickle

    factored = []
    for spec in corpus_generate(seed=1, count=10):
        run_suite([spec])
        if "_factors" in vars(spec.module.ring):
            factored.append(spec)
    assert factored
    for spec in factored:
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and back.key == spec.key
        assert back.module is None
        assert harness._realize_spec(back).label == spec.module.label


# -- skip shapes --------------------------------------------------------------------


def test_a_guard_inside_a_check_is_a_timed_skip(monkeypatch):
    def trip(m, space):
        time.sleep(0.002)
        raise GuardExceeded("search-nodes", "too many nodes")

    monkeypatch.setattr(harness, "sigma_exact", trip)
    spec = curated("free 2 over Z/2")
    result = check_sigma_agreement(spec, parse_module(spec.module_expr))
    assert result.check == "sigma-agreement"
    assert result.status == "SKIPPED"
    assert result.details == {"reason": "guard search-nodes: too many nodes"}
    assert result.ms >= 2


def test_a_guard_while_realizing_skips_every_check_in_no_time(monkeypatch):
    monkeypatch.setenv("MODCOVER_MAX_MODULE", "8")
    spec = curated("free 2 over Z/6")  # 36 elements
    (report,), summary = run_suite([spec])
    assert [c.check for c in report.results] == list(DEFAULT_CHECKS)
    for c in report.results:
        assert (c.status, c.details, c.ms) == ("SKIPPED", {"reason": "guard module-size"}, 0)
    assert summary["SKIPPED"] == len(DEFAULT_CHECKS)
    # the additivity check of a pair skips the same way when a side trips it
    (result,) = run_hdim_pairs([(curated("free 2 over Z/6"), curated("free 1 over Z/6"))])
    assert (result.check, result.status, result.details, result.ms) == (
        "hdim-additivity", "SKIPPED", {"reason": "guard module-size"}, 0
    )


# -- serialization -----------------------------------------------------------------


def test_json_report_schema():
    specs = corpus_generate(seed=2, count=4)
    reports, summary = run_suite(specs, ("sigma-agreement",))
    payload = json.loads(reports_to_json(reports, summary))
    assert payload["summary"]["FAIL"] == 0
    for entry in payload["reports"]:
        assert {"ring", "module", "seed", "provenance"} <= entry["instance"].keys()
        for check in entry["checks"]:
            assert {"check", "status", "details", "ms"} <= check.keys()


def test_csv_report_one_row_per_check():
    specs = corpus_generate(seed=2, count=4)
    reports, _ = run_suite(specs, ("sigma-agreement", "radical-agreement"))
    rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
    assert rows[0] == ["ring", "module", "seed", "check", "status", "details", "ms"]
    assert len(rows) == 1 + 4 * 2


def _digest(results):
    rows = [[c.check, c.status, c.details] for c in results]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_seed_1_report_matches_the_recorded_digests():
    # one digest per instance of corpus 1, then per hdim pair, as recorded
    # in the benchmark's golden file
    golden_path = Path(__file__).resolve().parents[1] / "bench" / "golden_verify.json"
    want = json.loads(golden_path.read_text())["1"].split()
    specs = corpus_generate(seed=1, count=200)
    pairs = hdim_pairs_from_specs(specs, 50)
    got = [_digest(run_suite([s])[0][0].results) for s in specs]
    got += [_digest(run_hdim_pairs([p])) for p in pairs]
    assert len(got) == len(want) == 250
    assert got == want


def test_importing_modcover_leaves_the_process_pool_unloaded():
    # only a parallel run_suite needs concurrent.futures, and only
    # reports_to_csv needs csv
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = "import sys, modcover; print(sorted({'concurrent.futures', 'csv'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_runtime_imports_the_standard_library_alone():
    # start-up hooks may load other packages before the probe runs, so only
    # the modules that the imports add are compared
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import modcover, modcover.cli, modcover.harness\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'modcover'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
