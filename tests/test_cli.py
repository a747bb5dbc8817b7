import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modcover.cli as cli
import modcover.dsl as dsl
from modcover.cli import main

import oracles
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


@pytest.mark.parametrize(
    "text,sigma",
    [
        ("free 7 over Z/2", 3),  # 29,212 submodules: past LATTICE_COUNT_BUDGET
        ("free 3 over GF(2^3)", 9),  # |M| = 512: past LATTICE_GUARD
        ("free 1 over Z/512", "NOT_COVERABLE"),  # cyclic: the greedy decides it
    ],
)
def test_search_all_answers_past_the_lattice_guards_when_the_root_settles_it(
    capsys, text, sigma
):
    # the greedy seed meets the root bound or covers nothing, so no
    # lattice is walked
    code, out, _ = run(capsys, "sigma", "--module", text, "--search", "all")
    assert code == 0
    assert f"sigma (exact)    {sigma}" in out
    assert "search nodes     0" in out


def test_search_all_that_must_branch_reports_the_lattice_guard(capsys):
    code, _, err = run(
        capsys, "sigma", "--module", "free 5 over Z/2 x Z/2", "--search", "all"
    )
    assert code == 3
    assert "guard exceeded (lattice)" in err


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


def test_module_info_reads_one_expression_per_stdin_line(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("free 1 over Z/2\n\nfree 2 over Z/3\n"))
    code, out, _ = run(capsys, "module-info", "-", "--json")
    assert code == 0
    decoder = json.JSONDecoder()
    sizes, pos = [], 0
    while pos < len(out.strip()):
        payload, end = decoder.raw_decode(out, pos)
        sizes.append(payload["size"])
        pos = end + 1
    assert sizes == [2, 9]


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


@pytest.mark.parametrize("text", ["GF(0)", "GF(1)", "GF(4)"])
def test_gf_of_a_non_prime_is_a_parse_error(capsys, text):
    code, _, err = run(capsys, "ring-info", text)
    assert code == 2
    assert "is not prime" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("ring-info", "GF(2^0)"), "extension degree must be >= 1"),
        (("ring-info", "GF(2^2; f=1,1,0)"), "f must be monic of degree 2"),
        (("ring-info", "GF(2^2; f=1,1)"), "f must be monic of degree 2"),
        (("module-info", "Z/2 (+) Z/2 over GF(2)"),
         "cyclic-sum sugar requires a Z/n base ring"),
        (("module-info", "Z/2 (+) Z/2 over Z/2 x Z/2"),
         "cyclic-sum sugar requires a Z/n base ring"),
    ],
)
def test_a_malformed_field_or_cyclic_sum_is_a_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and message in err


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


@pytest.mark.parametrize("text", ["Z/4097", "Z/65536", "Z/" + "9" * 40, "Z/64 x Z/128"])
def test_the_ring_size_guard_trips_on_the_ring_being_built(capsys, text):
    # Z/n and products check no size of their own: the ring's constructor does
    code, _, err = run(capsys, "ring-info", text)
    assert code == 3
    assert err.startswith("guard exceeded (ring-size)")


def checkout_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_module(*argv, flags=(), timeout=10):
    """`python [flags] -m modcover.cli argv` on this checkout's sources."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "modcover.cli", *argv],
        capture_output=True, text=True, env=checkout_env(), timeout=timeout,
    )


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # 2,000 covers print far more than a pipe holds, so the writer is
    # still printing when the reader stops after four lines
    proc = subprocess.Popen(
        [sys.executable, "-m", "modcover.cli", "cover", "--module", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=checkout_env(),
    )
    proc.stdin.write(b"free 2 over Z/2\n" * 2000)
    proc.stdin.close()
    lines = [proc.stdout.readline() for _ in range(4)]
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert lines[0].startswith(b"cover size")
    assert err == b""
    assert code == cli.EXIT_PIPE_CLOSED == 141


@pytest.mark.parametrize(
    "argv",
    [
        ("module-info", "free 100000000 over Z/3"),  # |R|^k
        ("ring-info", "GF(3^100000000)"),  # p^k
        ("ring-info", "GF(2305843009213693951)"),  # 2^61 - 1: primality of p
        ("ring-info", "GF(5000)"),  # composite, but over the guard
    ],
    ids=lambda argv: argv[1],
)
def test_a_guard_trips_before_the_work_it_bounds(argv):
    # each bounded quantity would take far longer than the timeout to compute
    out = run_module(*argv)
    assert out.returncode == 3, out.stderr
    assert "guard" in out.stderr


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
        (("verify", "--count", "5", "--out", "/nonexistent/dir/x"),
         "error: [Errno 2] No such file or directory"),
        (("verify", "--count", "5", "--checks", "sigma-agreement,sigma-agreement"),
         "repeated checks: ['sigma-agreement']"),
        (("verify", "--count", "5", "--checks", ""), "unknown checks: ['']"),
    ],
)
def test_out_of_range_corpus_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
@pytest.mark.parametrize(
    "argv", [("module-info", "free 1 over Z/2"), ("verify", "--count", "5")]
)
def test_invalid_module_guard_is_a_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("MODCOVER_MAX_MODULE", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"MODCOVER_MAX_MODULE must be an integer >= 1, got '{value}'" in err
    assert "Traceback" not in err
    assert out == ""


def test_corpus_with_no_room_for_a_module_parses_nothing(capsys, monkeypatch):
    calls = []
    real = dsl.parse_module
    monkeypatch.setattr(dsl, "parse_module", lambda expr: calls.append(expr) or real(expr))
    code, _, err = run(capsys, "corpus", "--count", "200", "--max-module", "1")
    assert code == 2
    assert "failed to meet its quotas" in err
    assert calls == []


def test_verify_out_is_opened_before_the_run(capsys, monkeypatch):
    import modcover.cli as cli

    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: pytest.fail("the suite ran"))
    code, out, err = run(capsys, "verify", "--count", "5", "--out", "/nonexistent/dir/x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_bad_checks_leave_the_out_file_alone(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    code, _, err = run(capsys, "verify", "--count", "5", "--checks", "bogus",
                       "--out", str(target))
    assert code == 2 and "unknown checks" in err
    assert target.read_text() == "kept\n"


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


def test_corpus_json_lists_the_records_of_the_plain_listing(capsys):
    argv = ("corpus", "--seed", "1", "--count", "5")
    _, listing, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    records = json.loads(out)
    # in the record's own key order, not sorted
    assert [list(r) for r in records] == [["ring", "module", "seed", "provenance"]] * 5
    assert [r["module"] for r in records] == listing.splitlines()
    assert {r["seed"] for r in records} == {1}


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
PINNED_CLI_DIGEST = "3b1ff7e5c513bd3516174f14d149d27084f5156e7a887a00aaf221cb44e4c7b6"


def pinned_cli_output(capsys, keys=("time_ms", "ms")) -> str:
    """The --json output of ring-info on PINNED_RINGS and of module-info,
    sigma --certificate, cover --construct and cover --greedy on
    CLI_MODULES, without the `keys` (the timings), one line per command."""
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
        payload = oracles.without_keys(json.loads(out), keys)
        lines.append(json.dumps([argv, code, payload], sort_keys=True))
    return "\n".join(lines)


def test_cli_json_output_is_pinned(capsys):
    digest = hashlib.sha256(pinned_cli_output(capsys).encode()).hexdigest()
    assert digest == PINNED_CLI_DIGEST


# sha256 of `pinned_cli_output()` with every "generators" list and every
# "nodes_explored" count removed too; a re-pin of PINNED_CLI_DIGEST that moves
# only generators or the search's effort leaves it alone
PINNED_CLI_MASKS_DIGEST = "486db7b8377e4bec3f6040581cf09448f9a0d285ae8934487b760ce0acb0207d"


def test_cli_json_output_without_generators_is_pinned(capsys):
    text = pinned_cli_output(capsys, ("time_ms", "ms", "generators", "nodes_explored"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLI_MASKS_DIGEST


# -- pinned text output ------------------------------------------------------------

# sha256 of `pinned_text_output()`; a change that alters any of these
# renderings on purpose re-records it and says why
PINNED_TEXT_DIGEST = "7cd4759d0b535e3a358f76eb3057b9ead9ba72c7cf2379d297a7b7a59459a152"


def pinned_text_output(capsys) -> str:
    """The text output (no --json) of ring-info on PINNED_RINGS and of
    module-info, sigma --certificate, cover --construct, cover --greedy and
    cover on CLI_MODULES, each after its command line and exit code. None
    of these prints a timing."""
    commands = [["ring-info", r] for r in PINNED_RINGS]
    for m in CLI_MODULES:
        commands += [
            ["module-info", m],
            ["sigma", "--module", m, "--certificate"],
            ["cover", "--module", m, "--construct"],
            ["cover", "--module", m, "--greedy"],
            ["cover", "--module", m],
        ]
    texts = []
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        texts.append(f"{json.dumps(argv)} {code}\n{out}")
    return "".join(texts)


def test_cli_text_output_is_pinned(capsys):
    digest = hashlib.sha256(pinned_text_output(capsys).encode()).hexdigest()
    assert digest == PINNED_TEXT_DIGEST


# -- pinned verify renderings -------------------------------------------------------

# sha256 of `verify_renderings()`; a change that alters the verify report on
# purpose re-records it and says why
PINNED_VERIFY_DIGEST = "b33fdf35004ade8842bb7917c061538283db9f529034eed2ad63ecef89632553"


def verify_renderings(capsys) -> str:
    """`verify --seed 1 --count 40 --hdim-pairs 10` as text, --verbose,
    --json and --csv, with every ms value removed."""
    texts = []
    for fmt in ([], ["--verbose"], ["--json"], ["--csv"]):
        code, out, _ = run(
            capsys, "verify", "--seed", "1", "--count", "40", "--hdim-pairs", "10", *fmt
        )
        assert code == 0
        if fmt == ["--json"]:
            out = re.sub(r'"ms": [0-9.e-]+', '"ms": _', out)
        elif fmt == ["--csv"]:  # ms is the last column
            out = "\n".join(line.rsplit(",", 1)[0] for line in out.splitlines())
        texts.append(out)
    return "\n".join(texts)


def test_verify_renderings_are_pinned(capsys):
    digest = hashlib.sha256(verify_renderings(capsys).encode()).hexdigest()
    assert digest == PINNED_VERIFY_DIGEST


# -- verify across processes --------------------------------------------------------


def without_ms(json_report: str) -> str:
    return re.sub(r'"ms": [0-9.e-]+', '"ms": _', json_report)


def test_verify_jobs_2_matches_jobs_1(capsys):
    # a --jobs worker gets each spec as its text and realizes it again
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "verify", "--seed", "1", "--count", "40", "--jobs", jobs, "--json"
        )
        assert code == 0
        reports.append(without_ms(out))
    assert reports[0] == reports[1]


def test_verify_under_python_O_matches_in_process(capsys):
    argv = ("verify", "--seed", "1", "--count", "40", "--hdim-pairs", "10", "--json")
    code, out, _ = run(capsys, *argv)
    optimized = run_module(*argv, flags=("-O",), timeout=120)
    assert code == optimized.returncode == 0, optimized.stderr
    assert without_ms(optimized.stdout) == without_ms(out)
