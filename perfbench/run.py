#!/usr/bin/env python3
"""Builds and runs the TDB DRM benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is compiled from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; metrics holds exactly the end-to-end metrics of
BENCHMARK.json with --trace 0 and exactly its per-layer metrics with
--trace 1. Any failure exits non-zero.
"""

import argparse
import json
import math
import os
import subprocess
import sys

# BENCHMARK.json lists the workloads the benchmark is judged on; lookup and
# scan also run by name (see README.md, "Workloads").
WORKLOADS = ("tpcb", "lookup", "scan", "sharded_commit")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "drm_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "drm_bench")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run_binary(cmd):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def select(result, expected):
    """Keeps exactly the contracted metrics; returns (metrics, problems)."""
    got = result.get("metrics", {})
    metrics, problems = {}, []
    for m in expected:
        value = got.get(m["name"])
        if value is None:
            problems.append("missing metric " + m["name"])
        elif value["unit"] != m["unit"]:
            problems.append("unit of %s is %s, expected %s"
                            % (m["name"], value["unit"], m["unit"]))
        elif value["value"] is None or not math.isfinite(value["value"]):
            problems.append("metric %s is not a number" % m["name"])
        else:
            metrics[m["name"]] = value
    return metrics, problems


def measure(binary, spec, workload, seed, seconds, trace, tiny=False):
    """One run; returns the contract's result object, or exits non-zero."""
    if workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r (have %s)" % (workload,
                                                             WORKLOADS))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    code, lines = run_binary(cmd)
    for line in lines[:-1]:
        print(line)
    if lines:
        print("all metrics: " + lines[-1])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: %s printed no result (exit %d)" % (workload, code))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = select(result, expected)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    ok = code == 0 and result.get("correct") is True and not problems
    return ok, {"correct": ok, "attempted": int(result.get("attempted", 0)),
                "failed": int(result.get("failed", 0)), "metrics": metrics}


def selftest(binary, spec):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    code, lines = run_binary([binary, "--selftest", "--trace-out",
                              os.path.join(traces, "selftest.json")])
    print("\n".join(lines))
    ok = code == 0
    # Smoke: a tiny run of every workload prints every metric with its unit.
    for name in WORKLOADS:
        for trace in (0, 1):
            run_ok, result = measure(binary, spec, name, 1, 0.3, trace,
                                     tiny=True)
            print("smoke %s --trace %d: %s, %d metrics"
                  % (name, trace, "ok" if run_ok else "FAIL",
                     len(result["metrics"])))
            ok &= run_ok
    print("selftest " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = contract()
    binary = build()
    if args.selftest:
        return selftest(binary, spec)
    if not args.workload:
        parser.error("--workload is required")
    ok, result = measure(binary, spec, args.workload, args.seed, args.seconds,
                         args.trace)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
