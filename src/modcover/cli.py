"""Command-line front end.

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse
error, 3 a size guard was exceeded, 141 (128 + SIGPIPE) the reader of
standard output closed it early, as `head` does.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .covering import (
    SearchSpace,
    construct_cover,
    greedy_cover,
    sigma_exact,
    sigma_formula,
    verify_cover,
)
from .errors import GuardExceeded, ParseError
from .harness import (
    DEFAULT_CHECKS,
    FAIL,
    corpus_generate,
    hdim_pairs_from_specs,
    reports_to_csv,
    reports_to_json,
    reports_to_text,
    run_hdim_pairs,
    run_suite,
    tally,
    validate_checks,
)
from .modules import (
    hdim,
    is_cyclic,
    jacobson_radical,
    length,
    maximal_submodules,
    s_set,
    semisimple_invariants,
)
from .rings import maximal_ideals

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_PIPE_CLOSED = 141

# the --search option; its choices are SearchSpace's values, which
# sigma_exact takes as they are
SEARCH_OPTION = dict(
    choices=[s.value for s in SearchSpace],
    default=SearchSpace.MAXIMAL_ONLY.value,
    help="candidate submodules for the exact search: the maximal ones, read off "
    "the hyperplanes of each M/mM, or (all) the coatoms of the submodule "
    "lattice, read off its walk; both give the same certificate",
)


def _modules(arg: str):
    """The modules of the argument, or of each nonblank stdin line for
    '-', each parsed only when the caller's loop reaches it."""
    from .dsl import parse_module

    exprs = [s for s in map(str.strip, sys.stdin) if s] if arg == "-" else [arg]
    for expr in exprs:
        yield parse_module(expr)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_kv(facts: dict, rows) -> None:
    """One aligned line per row: a key of `facts`, labelled by the key with
    '_' read as a space, or a written (label, value) pair."""
    pairs = [(r.replace("_", " "), facts[r]) if isinstance(r, str) else r for r in rows]
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


def _ring_facts(ring) -> dict:
    ideals = maximal_ideals(ring)
    return {
        "ring": ring.label,
        "size": ring.size,
        "additive_orders": list(ring.orders),
        "units": ring.unit_count,
        "maximal_ideals": [
            {
                "generators": [list(g) for g in i.generators],
                "size": i.size,
                "residue_field_size": i.residue_size,
            }
            for i in ideals
        ],
    }


def cmd_ring_info(args) -> int:
    from .dsl import parse_ring

    facts = _ring_facts(parse_ring(args.ring))
    if args.json:
        _print_json(facts)
        return EXIT_OK
    _print_kv(
        facts,
        ["ring", "size", "additive_orders", "units",
         ("maximal ideals", len(facts["maximal_ideals"]))],
    )
    for i, ideal in enumerate(facts["maximal_ideals"]):
        print(
            f"  m[{i}]: generators={ideal['generators']} "
            f"size={ideal['size']} |R/m|={ideal['residue_field_size']}"
        )
    return EXIT_OK


def _q_k(entries) -> list:
    """Semisimple entries as (q, k) records: |R/m| and dim M/mM."""
    return [{"residue_field_size": e.residue_size, "multiplicity": e.multiplicity}
            for e in entries]


def _module_facts(m) -> dict:
    cyclic, witness = is_cyclic(m)
    return {
        "module": m.label,
        "ring": m.ring.label,
        "size": m.size,
        "additive_orders": list(m.orders),
        "cyclic": cyclic,
        "cyclic_witness": list(witness) if witness is not None else None,
        "length": length(m),
        "hdim": hdim(m),
        "radical_size": jacobson_radical(m).size,
        "semisimple_invariants": _q_k(semisimple_invariants(m)),
        "s_set": _q_k(s_set(m)),
        "maximal_submodules": len(maximal_submodules(m)),
    }


def _print_module_facts(facts):
    def pairs(key):
        return [(e["residue_field_size"], e["multiplicity"]) for e in facts[key]]

    _print_kv(
        facts,
        ["module", "ring", "size", "additive_orders", "cyclic", "length", "hdim",
         "radical_size", "maximal_submodules",
         ("invariants (q, k)", pairs("semisimple_invariants")),
         ("S (q, k)", pairs("s_set"))],
    )


def _print_cover(cert) -> None:
    """One line per cover member: its generators and size."""
    for i, s in enumerate(cert.submodules):
        gens = [list(g) for g in s.generator_coords()]
        print(f"  cover[{i}]: generators={gens} size={s.size}")


def cmd_module_info(args) -> int:
    for m in _modules(args.module):
        facts = _module_facts(m)
        if args.json:
            _print_json(facts)
        else:
            _print_module_facts(facts)
    return EXIT_OK


def cmd_sigma(args) -> int:
    for m in _modules(args.module):
        facts = _module_facts(m)
        pred = sigma_formula(m)
        cert = sigma_exact(m, args.search)
        facts["sigma_formula"] = pred.value if pred.coverable else "NOT_COVERABLE"
        facts["sigma_exact"] = cert.size if cert.is_cover else "NOT_COVERABLE"
        if args.certificate:
            facts["certificate"] = cert.to_json_dict()
        if args.json:
            _print_json(facts)
        else:
            _print_module_facts(facts)
            _print_kv(
                facts,
                [("sigma (formula)", facts["sigma_formula"]),
                 ("sigma (exact)", facts["sigma_exact"]),
                 ("search nodes", cert.nodes_explored)],
            )
            if args.certificate and cert.is_cover:
                _print_cover(cert)
    return EXIT_OK


def cmd_cover(args) -> int:
    for m in _modules(args.module):
        if args.construct:
            cert = construct_cover(m)
        elif args.greedy:
            cert = greedy_cover(m)
        else:
            cert = sigma_exact(m, args.search)
        payload = cert.to_json_dict()
        payload["verified"] = cert.is_cover and verify_cover(m, cert.submodules)
        if args.json:
            _print_json(payload)
        elif not cert.is_cover:
            print("NOT_COVERABLE (module is cyclic)")
        else:
            _print_kv(
                payload,
                [("cover size", cert.size), "optimal", "verified", "nodes_explored"],
            )
            _print_cover(cert)
    return EXIT_OK


def cmd_corpus(args) -> int:
    specs = corpus_generate(args.seed, args.count, args.max_ring, args.max_module)
    if args.json:
        print(json.dumps([s.record() for s in specs], indent=2))
    else:
        for s in specs:
            print(s.module_expr)
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = DEFAULT_CHECKS
    if args.checks is not None:
        checks = validate_checks(args.checks.split(","))
    specs = corpus_generate(args.seed, args.count, args.max_ring, args.max_module)
    try:  # after the options are checked and before the run, which can take long
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with out or contextlib.nullcontext():
        reports, summary = run_suite(specs, checks, parallelism=args.jobs)
        pair_results = run_hdim_pairs(hdim_pairs_from_specs(specs, args.hdim_pairs))
        tally(summary, pair_results)
        if args.json:
            text = reports_to_json(reports, summary, pair_results)
        elif args.csv:
            text = reports_to_csv(reports, pair_results)
        else:
            text = reports_to_text(reports, summary, pair_results, args.verbose)
        print(text, file=out)
    return EXIT_CHECK_FAILED if summary[FAIL] else EXIT_OK


def _int_at_least(least: int):
    """An argparse type: an int no smaller than `least`."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="modcover",
        description="Covering numbers of finite modules over finite commutative rings.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-info", help="ring invariants and maximal ideals")
    p.add_argument("ring", help="ring expression, e.g. 'Z/12' or 'GF(2^3)'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ring_info)

    p = sub.add_parser("module-info", help="module invariants")
    p.add_argument("module", help="module expression, or '-' for stdin batch")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_module_info)

    p = sub.add_parser("sigma", help="covering number, closed form and exact")
    p.add_argument("--module", required=True, help="module expression or '-'")
    p.add_argument("--certificate", action="store_true", help="include the cover")
    p.add_argument("--search", **SEARCH_OPTION)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("cover", help="produce an explicit cover")
    p.add_argument("--module", required=True, help="module expression or '-'")
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--construct", action="store_true",
        help="closed-form construction instead of search",
    )
    g.add_argument("--greedy", action="store_true", help="greedy upper bound")
    p.add_argument("--search", **SEARCH_OPTION)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cover)

    # the corpus options, which `corpus` and `verify` share
    corpus_options = argparse.ArgumentParser(add_help=False)
    corpus_options.add_argument("--seed", type=int, default=1)
    corpus_options.add_argument("--count", type=_int_at_least(0), default=50)
    corpus_options.add_argument("--max-ring", type=int, default=64)
    corpus_options.add_argument("--max-module", type=int, default=512)

    p = sub.add_parser(
        "corpus", parents=[corpus_options], help="print a deterministic instance corpus"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser(
        "verify", parents=[corpus_options], help="run identity checks over a corpus"
    )
    p.add_argument("--checks", help="comma-separated subset of "
                   + ",".join(DEFAULT_CHECKS))
    p.add_argument("--hdim-pairs", type=_int_at_least(0), default=0,
                   help="also run this many direct-sum additivity pairs")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--verbose", action="store_true", help="also print PASS lines")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; point stdout at devnull so that the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"guard exceeded ({exc.guard}): {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
