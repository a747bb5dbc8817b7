"""Record the verify-corpus golden digests: bench/golden_verify.json.

    python3 bench/record_golden.py 0-30 97 1001-1004

For each corpus seed, one digest per query of corpus_generate(seed, 200)
(200 instances, then 50 hdim pairs): its checks' (check, status,
details), with timings left out. Seeds 1001 and up are the corpora that
verify-corpus replays after pass 0.

The benchmark counts a query whose digest differs as failed, so record
only from a commit whose verify report is known to be right, and again
whenever a change alters the report on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import modcover  # noqa: E402
import workloads  # noqa: E402


def seeds_from(args):
    for arg in args:
        lo, _, hi = arg.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def digests(seed):
    workload = workloads.VerifyCorpus(golden={})
    specs, pairs = workload.inputs(seed, 0)
    out = [workloads.result_digest(modcover.run_suite([s])[0][0].results) for s in specs]
    out += [workloads.result_digest(modcover.harness.run_hdim_pairs([p])) for p in pairs]
    return " ".join(out)


def main(argv):
    path = workloads.GOLDEN_PATH
    golden = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds_from(argv):
        golden[str(seed)] = digests(seed)
        print(f"seed {seed} recorded", flush=True)
    ordered = dict(sorted(golden.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
