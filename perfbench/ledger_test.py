#!/usr/bin/env python3
"""Exact ledger test: counts and simulated-time metrics repeat bit for bit.

    python3 perfbench/ledger_test.py [--seed N] [--workers W]

For one seed, every workload's ledger (every stats-registry counter, the
benchmark's own counts, the per-node or per-component delivery digests and
the sim_* metrics) must be identical across two runs at W workers and
identical to a run at 1 worker.  The counts are exact, so any difference
is a bug, not noise.  Builds the benchmark the way run.py does.  Exits 1
on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py: build directory and build steps)


def ledger(binary, workload, seed, workers):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--workers", str(workers), "--ledger"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if not lines:
        return None, ["exit %d with no output" % out.returncode]
    result = json.loads(lines[-1])
    return result["ledger"], result["errors"]


def first_difference(a, b):
    for part in ("counts", "sim"):
        for key in sorted(set(a[part]) | set(b[part])):
            if a[part].get(key) != b[part].get(key):
                return "%s %s: %s vs %s" % (part, key, a[part].get(key),
                                            b[part].get(key))
    if a["digests"] != b["digests"]:
        return "delivery digests differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()
    plain, _ = run.build(run.build_dir())

    failures = 0
    for workload in run.WORKLOADS:
        first, errors = ledger(plain, workload, args.seed, args.workers)
        if first is None:
            print("FAIL %s: %s" % (workload, errors[0]))
            failures += 1
            continue
        for label, workers in (("repeat", args.workers), ("1 worker", 1)):
            other, _ = ledger(plain, workload, args.seed, workers)
            diff = ("no output" if other is None
                    else first_difference(first, other))
            status = "FAIL" if diff else "ok"
            failures += bool(diff)
            print("%s %s seed %d, %d workers vs %s: %s" % (
                status, workload, args.seed, args.workers, label,
                diff or "%d counts, %d digests and %d sim metrics identical"
                % (len(first["counts"]), len(first["digests"]),
                   len(first["sim"]))))
        for e in errors:
            # Output-check failures are the run's verdict, not the ledger's.
            print("   note: %s output check failed: %s" % (workload, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
