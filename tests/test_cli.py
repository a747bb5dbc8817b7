import hashlib
import json

import pytest

from modcover.cli import main

from oracles import PINNED_RINGS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- ring-info / module-info ------------------------------------------------------


def test_ring_info_z12(capsys):
    code, out, _ = run(capsys, "ring-info", "Z/12")
    assert code == 0
    assert "maximal ideals   2" in out


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring-info", "GF(2^3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 8
    assert len(payload["maximal_ideals"]) == 1
    assert payload["maximal_ideals"][0]["residue_field_size"] == 8


def test_module_info(capsys):
    code, out, _ = run(capsys, "module-info", "free 2 over Z/2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    assert payload["hdim"] == 2
    assert payload["cyclic"] is False


def test_module_info_zero_module_is_generated_by_zero(capsys):
    code, out, _ = run(capsys, "module-info", "Z/1 over Z/6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 1
    assert payload["cyclic"] is True
    assert payload["cyclic_witness"] == []


# -- sigma / cover ------------------------------------------------------------------


def test_sigma_plane(capsys):
    code, out, _ = run(
        capsys, "sigma", "--module", "module over Z/2: gens=2; rels=[]", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_formula"] == 3
    assert payload["sigma_exact"] == 3


def test_sigma_not_coverable(capsys):
    code, out, _ = run(capsys, "sigma", "--module", "free 1 over Z/6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_formula"] == "NOT_COVERABLE"
    assert payload["cyclic"] is True


def test_sigma_certificate(capsys):
    code, out, _ = run(
        capsys, "sigma", "--module", "free 2 over Z/3", "--certificate", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert len(payload["certificate"]["submodules"]) == 4


def test_sigma_table_and_json_agree(capsys):
    _, table, _ = run(capsys, "sigma", "--module", "Z/2 (+) Z/4 over Z/4")
    _, js, _ = run(capsys, "sigma", "--module", "Z/2 (+) Z/4 over Z/4", "--json")
    payload = json.loads(js)
    assert payload["sigma_exact"] == 3
    assert payload["hdim"] == 2
    assert "sigma (exact)    3" in table
    assert "hdim                2" in table


def test_cover_construct(capsys):
    code, out, _ = run(
        capsys, "cover", "--module", "free 2 over Z/3", "--construct", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["size"] == 4
    assert payload["verified"] is True


def test_cover_search_all(capsys):
    code, out, _ = run(
        capsys, "cover", "--module", "free 2 over Z/2", "--search", "all", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["size"] == 3


def test_stdin_batch(capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("free 2 over Z/2\nfree 2 over Z/3\n")
    )
    code, out, _ = run(capsys, "sigma", "--module", "-", "--json")
    assert code == 0
    decoder = json.JSONDecoder()
    sizes, pos = [], 0
    while pos < len(out.strip()):
        payload, end = decoder.raw_decode(out, pos)
        sizes.append(payload["sigma_exact"])
        pos = end + 1
    assert sizes == [3, 4]


@pytest.mark.parametrize("text,q", [("GF(2^9)", 512), ("GF(2^12)", 4096), ("GF(3^7)", 2187)])
def test_ring_info_on_fields_of_degree_above_8(capsys, text, q):
    code, out, _ = run(capsys, "ring-info", text, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == q
    assert payload["units"] == q - 1
    assert [m["residue_field_size"] for m in payload["maximal_ideals"]] == [q]


# -- exit codes ----------------------------------------------------------------------


def test_usage_error_exit_2(capsys):
    assert run(capsys, "bogus-subcommand")[0] == 2


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "ring-info", "Z/0")
    assert code == 2
    assert "^" in err  # caret marks the offending position


@pytest.mark.parametrize(
    "argv", [("module-info", "Z/0 over Z/6"), ("sigma", "--module", "Z/0 (+) Z/2 over Z/4")]
)
def test_zero_annihilator_in_a_cyclic_sum_is_a_parse_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "^" in err


def test_guard_exceeded_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("MODCOVER_MAX_MODULE", "8")
    code, _, err = run(capsys, "module-info", "free 2 over Z/6")
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--count", "40", "--checks", "cyclicity", "--hdim-pairs=-1"),
         "--hdim-pairs: must be at least 0"),
        (("verify", "--count", "40", "--hdim-pairs=-30"), "--hdim-pairs: must be at least 0"),
        (("verify", "--count", "-3"), "--count: must be at least 0"),
        (("corpus", "--count", "-3"), "--count: must be at least 0"),
        (("verify", "--count", "3", "--jobs", "-2"), "--jobs: must be at least 1"),
        (("verify", "--count", "3", "--jobs", "0"), "--jobs: must be at least 1"),
        (("corpus", "--count", "10", "--max-ring", "3"), "no ring with two maximal ideals"),
        (("verify", "--count", "10", "--max-ring", "3"), "no ring with two maximal ideals"),
        (("corpus", "--count", "10", "--max-ring", "1"), "no ring with two maximal ideals"),
        (("corpus", "--count", "5", "--max-module", "1"), "failed to meet its quotas"),
        (("verify", "--count", "5", "--max-module", "1"), "failed to meet its quotas"),
    ],
)
def test_out_of_range_corpus_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


def test_verify_success_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["FAIL"] == 0


def test_verify_csv_output(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "4", "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith("ring,module,seed,check,status")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--seed", "2", "--count", "4", "--json",
        "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["summary"]["instances"] == 4


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus", "--seed", "1", "--count", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


# -- sigma payload stability -------------------------------------------------------

SIGMA_PAYLOADS = {
    "free 2 over Z/3": {
        "additive_orders": [3, 3],
        "certificate": {
            "is_cover": True, "nodes_explored": 0, "optimal": True, "size": 4,
            "submodules": [
                {"generators": [[0, 1]], "size": 3},
                {"generators": [[1, 0]], "size": 3},
                {"generators": [[1, 2]], "size": 3},
                {"generators": [[1, 1]], "size": 3},
            ],
        },
        "cyclic": False, "cyclic_witness": None, "hdim": 2, "length": 2,
        "maximal_submodules": 4, "module": "module over Z/3: gens=2; rels=[]",
        "radical_size": 1, "ring": "Z/3",
        "s_set": [{"multiplicity": 2, "residue_field_size": 3}],
        "semisimple_invariants": [{"multiplicity": 2, "residue_field_size": 3}],
        "sigma_exact": 4, "sigma_formula": 4, "size": 9,
    },
    "Z/2 (+) Z/4 over Z/8": {
        "additive_orders": [2, 4],
        "certificate": {
            "is_cover": True, "nodes_explored": 0, "optimal": True, "size": 3,
            "submodules": [
                {"generators": [[0, 1]], "size": 4},
                {"generators": [[0, 2], [1, 0]], "size": 4},
                {"generators": [[0, 2], [1, 1]], "size": 4},
            ],
        },
        "cyclic": False, "cyclic_witness": None, "hdim": 2, "length": 3,
        "maximal_submodules": 3,
        "module": "module over Z/8: gens=2; rels=[(2,0), (0,4)]",
        "radical_size": 2, "ring": "Z/8",
        "s_set": [{"multiplicity": 2, "residue_field_size": 2}],
        "semisimple_invariants": [{"multiplicity": 2, "residue_field_size": 2}],
        "sigma_exact": 3, "sigma_formula": 3, "size": 8,
    },
}


def test_sigma_json_payload_is_unchanged(capsys):
    for module, want in SIGMA_PAYLOADS.items():
        code, out, _ = run(capsys, "sigma", "--module", module, "--certificate", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"].pop("time_ms") >= 0
        assert payload == want, module


# -- pinned --json output -----------------------------------------------------------

CLI_MODULES = [
    "free 2 over Z/2",
    "free 2 over Z/3",
    "free 1 over Z/6",
    "free 2 over Z/6",
    "Z/2 (+) Z/2 over Z/6",
    "Z/2 (+) Z/2 (+) Z/3 over Z/6",
    "Z/2 (+) Z/4 over Z/8",
    "Z/4 (+) Z/4 over Z/8",
    "Z/3 (+) Z/9 over Z/9",
    "free 3 over GF(3)",
    "free 3 over Z/2 x Z/2",
    "free 2 over GF(2^3)",
    "module over Z/12: gens=2; rels=[(4,6)]",
]

# sha256 of `pinned_cli_output()`; a change that alters any of these
# outputs on purpose re-records it and says why
PINNED_CLI_DIGEST = "4c091476d24402fa21c72fe28c24e81ec92d27ece2e74f96d857bda0c9a30889"


def _without_timings(payload):
    if isinstance(payload, dict):
        return {
            k: _without_timings(v)
            for k, v in payload.items()
            if k not in ("time_ms", "ms")
        }
    if isinstance(payload, list):
        return [_without_timings(v) for v in payload]
    return payload


def pinned_cli_output(capsys) -> str:
    """The --json output of ring-info on PINNED_RINGS and of module-info,
    sigma --certificate, cover --construct and cover --greedy on
    CLI_MODULES, timings removed, one line per command."""
    commands = [["ring-info", r, "--json"] for r in PINNED_RINGS]
    for m in CLI_MODULES:
        commands += [
            ["module-info", m, "--json"],
            ["sigma", "--module", m, "--certificate", "--json"],
            ["cover", "--module", m, "--construct", "--json"],
            ["cover", "--module", m, "--greedy", "--json"],
        ]
    lines = []
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        payload = _without_timings(json.loads(out))
        lines.append(json.dumps([argv, code, payload], sort_keys=True))
    return "\n".join(lines)


def test_cli_json_output_is_pinned(capsys):
    digest = hashlib.sha256(pinned_cli_output(capsys).encode()).hexdigest()
    assert digest == PINNED_CLI_DIGEST
