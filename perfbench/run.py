#!/usr/bin/env python3
"""Run one MAGE benchmark workload and print its metrics.

    python3 perfbench/run.py --workload storm|wan|mobile --seed N \
        --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, from the repository's src/)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs it from the checkout root.

--trace 0 runs the untraced binary for S seconds and reports the
end-to-end metrics named in BENCHMARK.json.  --trace 1 runs the untraced
binary for S/2 seconds and the traced binary (spans, allocation counting)
for S/2 seconds, writes the traced run's spans as Chrome trace-event JSON
under the build directory, and reports the per-layer metrics, including
trace.overhead = 1 - traced/untraced calls_per_cpu_s.

Every run records hardware threads, compiler, build type, source revision,
workers, seed and workload on the line before the result.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only if every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("storm", "wan", "mobile")
# Span names each workload's trace must contain: the layer boundaries the
# benchmark's own code records.
TRACE_SPANS = {
    "storm": {"sim.run_until", "rmi.call", "app.handler", "app.completion"},
    "wan": {"sim.run_until", "rmi.call", "app.handler", "app.completion"},
    "mobile": {"sim.run_until", "rts.invoke", "rts.move", "core.bind",
               "rts.sync_invoke", "app.handler", "app.completion"},
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures (once) and builds both binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "sharded.hpp")):
        fail("MAGE sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_traced"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build step failed: " + " ".join(cmd), 3)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "perfbench_traced"))


def source_revision():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "src")):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args, seconds, workers, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--workers", str(workers), *extra]
    name = os.path.basename(binary)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=60 + 3 * seconds)
        lines = done.stdout.strip().splitlines()
        if lines:
            result = json.loads(lines[-1])
            result["exit_code"] = done.returncode
            return result
        why = "%s printed no result (exit %d)" % (name, done.returncode)
    except subprocess.TimeoutExpired:
        why = name + " timed out"
    # A crashed or hung run is one failed attempt with nothing measured.
    return {"errors": [why], "attempted": 1, "failed": 1, "exit_code": -1,
            "record": {"workload": args.workload, "seed": args.seed,
                       "workers": workers},
            "end_to_end": {}, "per_layer": {}}


def check_trace(path, workload):
    """The trace must load as Chrome trace-event JSON and hold a complete
    span at every layer boundary the workload crosses."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return ["trace %s does not load: %s" % (path, e)]
    names = {e.get("name") for e in events if e.get("ph") == "X"}
    missing = TRACE_SPANS[workload] - names
    return ["trace lacks spans " + ", ".join(sorted(missing))] if missing else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    plain, traced = build(out)
    workers = min(4, os.cpu_count() or 1)

    errors = []
    if args.trace == 0:
        runs = [run_binary(plain, args, args.seconds, workers)]
        wanted = spec["end_to_end"]
        values = dict(runs[0]["end_to_end"])
    else:
        half = max(1.0, args.seconds / 2)
        trace_path = os.path.join(out, "traces",
                                  "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        untraced = run_binary(plain, args, half, workers)
        spans = run_binary(traced, args, half, workers,
                           ("--trace-out", trace_path))
        runs = [untraced, spans]
        wanted = spec["per_layer"]
        values = dict(spans["per_layer"])
        values["sim.cpu_util"] = untraced["per_layer"].get("sim.cpu_util")
        values["wall.calls_per_s"] = untraced["end_to_end"].get("calls_per_s")
        base = untraced["end_to_end"].get("calls_per_cpu_s")
        with_spans = spans["end_to_end"].get("calls_per_cpu_s")
        values["trace.overhead"] = (1 - with_spans / base
                                    if base and with_spans else None)
        if spans["exit_code"] != -1:
            errors += check_trace(trace_path, args.workload)

    record = dict(runs[0]["record"])
    record["source_revision"] = source_revision()
    record["trace"] = args.trace
    print(json.dumps({"record": record}))

    for r in runs:
        errors += r["errors"]
        if r["exit_code"] != 0 and not r["errors"]:
            errors.append("benchmark binary exited %d" % r["exit_code"])
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            errors.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for e in errors:
        print("perfbench: FAIL " + e, file=sys.stderr)

    print(json.dumps({
        "correct": not errors,
        "attempted": int(sum(r["attempted"] for r in runs)),
        "failed": int(sum(r["failed"] for r in runs)),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
