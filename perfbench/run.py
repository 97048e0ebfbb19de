#!/usr/bin/env python3
"""Builds the Polyphony benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The poly library and the benchmark program
are compiled with CMake (RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the build is incremental, so only the
first run in a checkout pays for it. Build output goes to stderr. Standard
output ends with the benchmark program's result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a provenance line (git SHA, source digest, nproc, compiler,
CMAKE_BUILD_TYPE of the poly library that was measured, seed). The metric
names are checked against BENCHMARK.json before the result is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("oltp_point", "olap_scan", "soe_distributed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the library and benchmark sources, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "polybench", "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "polybench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    binary = build()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 4)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % res.returncode, 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result: " + lines[-1][:200], 4)

    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units), 4)

    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if isinstance(obj, dict) and "provenance" in obj:
            obj["provenance"]["git_sha"] = git_sha()
            obj["provenance"]["source_digest"] = source_digest()
            line = json.dumps(obj)
        print(line)
    print(lines[-1], flush=True)
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
