#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver and the libraries it measures are
built from ../src into .bench_build/perfbench (configured once, rebuilt
incrementally), then the driver runs the workload with at most four pool
threads. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with its unit. The line before it holds
the run's provenance, output digests, per-round timings and (traced) the
serving phase. A traced run also writes its spans to
.bench_build/perfbench/spans/.

The run is correct only if its output digests (and, traced, its cost-ledger
digest) equal those recorded for the workload in perfbench/expected.json.
A change that alters the outputs on purpose records the new digests with
--record, which rewrites the workload's entry from this run.

Exits 1 without a result when the sources are missing, the build fails or
the driver crashes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MAX_THREADS = 4
RUN_TIMEOUT_S = 170
EXPECTED = os.path.join(HERE, "expected.json")
# Profiler scopes the benchmark does not list yet are summed here, so a new
# scope in the program never changes the set of metric names; a listed
# scope the workload never entered reads 0.
PROF_OTHER = "prof.other_s"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def check_digests(workload, digests, trace):
    """Errors for each digest that differs from the recorded one."""
    want = load_expected().get(workload, {})
    keys = ("outputs", "ledger") if trace else ("outputs",)
    return ["%s digest %r differs from the recorded %r"
            % (k, digests[k], want.get(k)) for k in keys
            if digests[k] != want.get(k)]


def record_digests(workload, digests, trace):
    expected = load_expected()
    entry = expected.setdefault(workload, {})
    entry["outputs"] = digests["outputs"]
    if trace:
        entry["ledger"] = digests["ledger"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")


def threads():
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def child_env():
    """Environment of the build and the driver: temporary files stay in the
    build tree, and the pool gets at most MAX_THREADS threads."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, P2PDT_THREADS=str(threads()))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources under src/ to build")
    env = child_env()
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(threads())])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def to_metrics(values, specs):
    """Maps the driver's values onto the listed metrics, with units."""
    listed = {m["name"] for m in specs}
    values = dict(values)
    if PROF_OTHER in listed:
        other = sum(v for k, v in values.items()
                    if k.startswith("prof.") and k not in listed)
        values[PROF_OTHER] = values.get(PROF_OTHER, 0.0) + other
    metrics, missing = {}, []
    for m in specs:
        default = 0.0 if m["name"].startswith("prof.") else None
        v = values.get(m["name"], default)
        if v is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return metrics, missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", action="store_true",
                        help="record this run's digests in expected.json")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("driver exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = to_metrics(raw["values"], specs)
    errors = list(raw["errors"])
    if missing:
        errors.append("driver did not report " + ", ".join(missing))
    if args.record and not errors:
        record_digests(args.workload, raw["digests"], args.trace)
    errors += check_digests(args.workload, raw["digests"], args.trace)
    print(json.dumps({"provenance": raw["provenance"],
                      "digests": raw["digests"], "rounds": raw["rounds"],
                      "serve": raw["serve"], "errors": errors}))
    print(json.dumps({"correct": raw["correct"] and not errors,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
