#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the harness (Release) from source into
.bench_build/perfbench, runs the workload, and prints a table, a metadata
line and, as the last line, the result JSON with exactly the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones from a separate traced pass.
Exits 1 when an output check fails, 2 when nothing could be measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Write nothing into the benchmark's tree.

import perfstats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures and builds the harness (both incremental); build output
    goes to stderr so the result stays the last line of stdout."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the program's source (%s) is not in %s" % (needed, ROOT))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
         "-j", jobs],
    ]
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s" % e)
    return os.path.join(BUILD_DIR, "perfbench_harness")


def run_harness(harness, args, tmp_dir, raw_path):
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp_dir, "--out", raw_path]
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=HARNESS_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("harness failed: %s" % e, code=1)
    with open(raw_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    harness = build()
    tmp_dir = os.path.join(TMP_ROOT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    os.makedirs(OUT_DIR, exist_ok=True)
    raw_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    try:
        raw = run_harness(harness, args, tmp_dir, raw_path)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    checks = list(raw["checks"])
    try:
        if args.trace:
            values, counts = perfstats.per_layer(raw)
        else:
            values, counts = perfstats.end_to_end(raw)
    except perfstats.InsufficientSamples as e:
        fail("too few samples: %s" % e, code=1)
    missing = sorted(set(units) - set(values))
    if missing:
        fail("metrics not measured: %s" % missing, code=1)

    measured = raw["untraced"]["counters"]
    if args.trace:
        measured = raw["traced"]["counters"]
    failed_checks = sum(1 for c in checks if not c["ok"])
    attempted = int(measured.get("attempted", 0)) + len(checks)
    failed = int(measured.get("failed", 0)) + failed_checks
    result = {
        "correct": failed_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    problems = perfstats.validate_result(result, units)
    if problems:
        fail("malformed result: %s" % problems, code=1)

    for name in units:
        count = counts.get(name)
        print("%-36s %14.6g %-6s%s" % (
            name, values[name], units[name],
            "" if count is None else "  n=%d" % count))
    for check in checks:
        print("check %-44s %s  (%s)" % (
            check["name"], "ok" if check["ok"] else "FAILED", check["detail"]))
    meta = {
        "workload": raw["workload"], "seed": raw["seed"],
        "seconds": raw["seconds"], "trace": raw["trace"],
        "build_type": raw["build_type"],
        "hardware_threads": raw["hardware_threads"],
        "clients": raw["clients"], "sample_counts": counts,
        "failed_share": failed / attempted, "raw": os.path.relpath(raw_path, ROOT),
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
