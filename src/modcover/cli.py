"""Command-line front end.

Exit codes: 0 success, 1 a verification check failed, 2 usage or parse
error, 3 a size guard was exceeded.
"""

from __future__ import annotations

import argparse
import json
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
    corpus_generate,
    hdim_pairs_from_specs,
    reports_to_csv,
    reports_to_json,
    run_hdim_pairs,
    run_suite,
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


def _module_exprs(arg: str):
    """The module argument, or one expression per stdin line for '-'."""
    if arg == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    return [arg]


def _print_kv(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


def _ring_facts(ring) -> dict:
    ideals = maximal_ideals(ring)
    return {
        "ring": ring.label,
        "size": ring.size,
        "additive_orders": list(ring.additive_orders),
        "units": len(ring.units()),
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
        print(json.dumps(facts, indent=2, sort_keys=True))
        return EXIT_OK
    _print_kv(
        [
            ("ring", facts["ring"]),
            ("size", facts["size"]),
            ("additive orders", facts["additive_orders"]),
            ("units", facts["units"]),
            ("maximal ideals", len(facts["maximal_ideals"])),
        ]
    )
    for i, ideal in enumerate(facts["maximal_ideals"]):
        print(
            f"  m[{i}]: generators={ideal['generators']} "
            f"size={ideal['size']} |R/m|={ideal['residue_field_size']}"
        )
    return EXIT_OK


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
        "semisimple_invariants": [
            {"residue_field_size": e.residue_size, "multiplicity": e.multiplicity}
            for e in semisimple_invariants(m)
        ],
        "s_set": [
            {"residue_field_size": e.residue_size, "multiplicity": e.multiplicity}
            for e in s_set(m)
        ],
        "maximal_submodules": len(maximal_submodules(m)),
    }


def _print_module_facts(facts):
    _print_kv(
        [
            ("module", facts["module"]),
            ("ring", facts["ring"]),
            ("size", facts["size"]),
            ("additive orders", facts["additive_orders"]),
            ("cyclic", facts["cyclic"]),
            ("length", facts["length"]),
            ("hdim", facts["hdim"]),
            ("radical size", facts["radical_size"]),
            ("maximal submodules", facts["maximal_submodules"]),
            (
                "invariants (q, k)",
                [(e["residue_field_size"], e["multiplicity"])
                 for e in facts["semisimple_invariants"]],
            ),
            (
                "S (q, k)",
                [(e["residue_field_size"], e["multiplicity"]) for e in facts["s_set"]],
            ),
        ]
    )


def cmd_module_info(args) -> int:
    from .dsl import parse_module

    for expr in _module_exprs(args.module):
        m = parse_module(expr)
        facts = _module_facts(m)
        if args.json:
            print(json.dumps(facts, indent=2, sort_keys=True))
        else:
            _print_module_facts(facts)
    return EXIT_OK


def cmd_sigma(args) -> int:
    from .dsl import parse_module

    for expr in _module_exprs(args.module):
        m = parse_module(expr)
        facts = _module_facts(m)
        pred = sigma_formula(m)
        cert = sigma_exact(m, SearchSpace(args.search))
        facts["sigma_formula"] = pred.value if pred.coverable else "NOT_COVERABLE"
        facts["sigma_exact"] = cert.size if cert.is_cover else "NOT_COVERABLE"
        if args.certificate:
            facts["certificate"] = cert.to_json_dict()
        if args.json:
            print(json.dumps(facts, indent=2, sort_keys=True))
        else:
            _print_module_facts(facts)
            _print_kv(
                [
                    ("sigma (formula)", facts["sigma_formula"]),
                    ("sigma (exact)", facts["sigma_exact"]),
                    ("search nodes", cert.nodes_explored),
                ]
            )
            if args.certificate and cert.is_cover:
                for i, s in enumerate(cert.submodules):
                    gens = [list(g) for g in s.generator_coords()]
                    print(f"  cover[{i}]: generators={gens} size={s.size}")
    return EXIT_OK


def cmd_cover(args) -> int:
    from .dsl import parse_module

    for expr in _module_exprs(args.module):
        m = parse_module(expr)
        if args.construct:
            cert = construct_cover(m)
        elif args.greedy:
            cert = greedy_cover(m)
        else:
            cert = sigma_exact(m, SearchSpace(args.search))
        payload = cert.to_json_dict()
        payload["verified"] = cert.is_cover and verify_cover(m, cert.submodules)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif not cert.is_cover:
            print("NOT_COVERABLE (module is cyclic)")
        else:
            _print_kv(
                [
                    ("cover size", cert.size),
                    ("optimal", cert.optimal),
                    ("verified", payload["verified"]),
                    ("nodes explored", cert.nodes_explored),
                ]
            )
            for i, s in enumerate(cert.submodules):
                gens = [list(g) for g in s.generator_coords()]
                print(f"  cover[{i}]: generators={gens} size={s.size}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    specs = corpus_generate(args.seed, args.count, args.max_ring, args.max_module)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "ring": s.ring_expr,
                        "module": s.module_expr,
                        "seed": s.seed,
                        "provenance": s.provenance,
                    }
                    for s in specs
                ],
                indent=2,
            )
        )
    else:
        for s in specs:
            print(s.module_expr)
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = tuple(args.checks.split(",")) if args.checks else DEFAULT_CHECKS
    specs = corpus_generate(args.seed, args.count, args.max_ring, args.max_module)
    reports, summary = run_suite(specs, checks, parallelism=args.jobs)
    pair_results = []
    if args.hdim_pairs:
        pair_results = run_hdim_pairs(hdim_pairs_from_specs(specs, args.hdim_pairs))
        for c in pair_results:
            summary[c.status] += 1
            slot = summary["per_check"].setdefault(
                "hdim-additivity", {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
            )
            slot[c.status] += 1
    if args.json:
        text = reports_to_json(reports, summary, pair_results)
    elif args.csv:
        text = reports_to_csv(reports, pair_results)
    else:
        lines = []
        for r in reports:
            for c in r.results:
                if c.status != "PASS" or args.verbose:
                    lines.append(
                        f"{c.status:7s} {c.check:17s} {r.instance.module_expr}"
                        + (f"  {json.dumps(c.details, sort_keys=True)}"
                           if c.status != "PASS" else "")
                    )
        for c in pair_results:
            if c.status != "PASS" or args.verbose:
                lines.append(
                    f"{c.status:7s} {c.check:17s} "
                    + json.dumps(c.details, sort_keys=True)
                )
        lines.append(
            "summary: {instances} instances, {PASS} PASS, {FAIL} FAIL, "
            "{SKIPPED} SKIPPED".format(**summary)
        )
        for name in sorted(summary["per_check"]):
            slot = summary["per_check"][name]
            lines.append(
                f"  {name:17s} PASS={slot['PASS']} FAIL={slot['FAIL']} "
                f"SKIPPED={slot['SKIPPED']}"
            )
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    failed = summary["FAIL"] > 0
    return EXIT_CHECK_FAILED if failed else EXIT_OK


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
    p.add_argument(
        "--search", choices=["maximal", "all"], default="maximal",
        help="candidate submodules for the exact search",
    )
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
    p.add_argument("--search", choices=["maximal", "all"], default="maximal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("corpus", help="print a deterministic instance corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=_int_at_least(0), default=50)
    p.add_argument("--max-ring", type=int, default=64)
    p.add_argument("--max-module", type=int, default=512)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify", help="run identity checks over a corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=_int_at_least(0), default=50)
    p.add_argument("--max-ring", type=int, default=64)
    p.add_argument("--max-module", type=int, default=512)
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
        return args.fn(args)
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
