"""Tests of the benchmark itself: inputs, references, tracer, run contract.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import modcover  # noqa: E402
import modcover.cli  # noqa: E402,F401  (the tracer must patch its bindings too)
import reference as ref  # noqa: E402
import workloads  # noqa: E402

FIELDS = {
    2: ("Z", 2), 3: ("Z", 3), 4: ("GF", 2, 2, None), 5: ("Z", 5), 7: ("Z", 7),
    8: ("GF", 2, 3, None), 9: ("GF", 3, 2, None), 13: ("GF", 13, 1, (5, 1)),
}


def run_bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


# -- inputs ------------------------------------------------------------------


def test_sigma_search_inputs_are_seeded_and_parse():
    w = workloads.SigmaSearch()
    first = w.inputs(5, 0)
    assert first == workloads.SigmaSearch().inputs(5, 0)
    assert first != w.inputs(6, 0) and first != w.inputs(5, 1)
    assert len(first) >= 100
    for text, sigma in set(first):
        m = modcover.parse_module(text)
        assert sigma is not None and m.size > 1


def test_large_ring_inputs_are_seeded_distinct_and_parse():
    w = workloads.LargeRing()
    first = w.inputs(5, 0)
    assert first == workloads.LargeRing().inputs(5, 0)
    assert first != w.inputs(6, 0)
    labels = [ref.ring_label(r) for _, r in first + w.inputs(5, 1)]
    assert len(set(labels)) == len(labels)
    for kind, ring in first:
        r = modcover.parse_ring(ref.ring_label(ring))
        assert 128 <= r.size <= 512 and r.size == ref.ring_size(ring)
        if kind == "module-info":
            modcover.parse_module(f"free 1 over {ref.ring_label(ring)}")


def test_verify_corpus_inputs_are_seeded_and_parse():
    w = workloads.VerifyCorpus(golden={})
    w.count, w.pairs = 20, 5
    specs, pairs = w.inputs(5, 0)
    again, _ = w.inputs(5, 0)
    assert [s.module_expr for s in specs] == [s.module_expr for s in again]
    assert [s.module_expr for s in specs] != [s.module_expr for s in w.inputs(5, 1)[0]]
    assert 0 < len(pairs) <= 5 and all(a.ring_expr == b.ring_expr for a, b in pairs)
    for s in specs:
        modcover.parse_module(s.module_expr)


# -- references ----------------------------------------------------------------


def test_plane_over_a_field_needs_q_plus_one():
    for q, field in FIELDS.items():
        assert ref.sigma(("free", field, 2)) == q + 1


def test_hand_checked_ring_facts():
    assert ref.unit_count(("Z", 360)) == 96
    assert ref.residue_sizes(("Z", 42)) == [2, 3, 7]
    assert ref.unit_count(("x", ("Z", 4), ("GF", 3, 2, None))) == 2 * 8
    assert ref.ring_length(("Z", 360)) == 6 and ref.radical_size(("Z", 360)) == 12


def test_hand_checked_module_facts():
    assert ref.sigma(("sum", 6, (2, 2, 3))) == 3
    assert ref.sigma(("sum", 30, (6, 10, 15))) == 3
    assert ref.sigma(("sum", 10, (10, 5))) == 6
    assert ref.sigma(("free", ("Z", 12), 1)) is None
    assert ref.maximal_submodule_count(("free", ("Z", 3), 2)) == 4
    assert ref.hdim(("sum", 12, (12, 6))) == 4


def test_labels_round_trip():
    for text in ("Z/12", "GF(7)", "GF(2^3)", "Z/4 x Z/9", "Z/2 x GF(3^2)"):
        assert ref.ring_label(ref.parse_ring_label(text)) == text
    module = ("sum", 12, (4, 6, 12))
    assert ref.parse_module_label(ref.module_label(module)) == module
    assert ref.parse_module_label("module over Z/4: gens=1; rels=[]") is None


def test_unit_counts_agree_with_the_library_on_small_rings():
    rings = [("Z", n) for n in range(2, 65)]
    rings += [("x", ("Z", 4), ("GF", 2, 2, None)), ("GF", 3, 3, None)]
    for ring in rings:
        r = modcover.parse_ring(ref.ring_label(ring))
        assert len(r.units()) == ref.unit_count(ring), ref.ring_label(ring)
        assert sorted(i.residue_size for i in modcover.maximal_ideals(r)) == ref.residue_sizes(ring)


# -- tracer --------------------------------------------------------------------


def _bindings():
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "modcover"]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("FiniteRing", k): v for k, v in vars(modcover.FiniteRing).items()})
    return out


def test_tracer_patches_every_binding_and_restores_it():
    import tracer

    before = _bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        patched = {(getattr(o, "__name__", ""), k) for o, k, _ in trace.patched()}
        for module in ("modcover", "modcover.rings", "modcover.modules",
                       "modcover.harness", "modcover.cli"):
            assert (module, "maximal_ideals") in patched
        workloads.SigmaSearch.query("free 2 over Z/2 x Z/2", 3)
        metrics = trace.metrics()
    finally:
        trace.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert metrics["covering.sigma_exact.calls"] == 2  # maximal, then all proper
    assert metrics["covering.search_nodes"] > 0
    assert metrics["rings.mul.calls"] > 0 and metrics["rings.maximal_ideals.calls"] > 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))


# -- the command ---------------------------------------------------------------


def _result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly():
    args = ("--workload", "sigma-search", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(run_bench(*args)), _result(run_bench(*args))
    assert first["correct"] and second["correct"]
    counted = [k for k in first["metrics"]
               if k.endswith((".calls", ".skipped")) or k.startswith("covering.search")]
    assert "rings.mul.calls" in counted and "covering.search_nodes" in counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in names}


def test_timed_run_prints_end_to_end_metrics_without_loading_the_tracer():
    code = (
        "import sys; sys.argv[0] = 'bench/run.py'; sys.path.insert(0, 'bench'); import run; "
        "run.main(['--workload', 'sigma-search', '--seed', '2', '--seconds', '0', '--trace', '0']); "
        "print('tracer' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    *_, result, loaded = out.stdout.strip().splitlines()
    assert loaded == "False"
    result = json.loads(result)
    assert result["correct"] and result["attempted"] >= 100
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("--workload", "sigma-search", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
