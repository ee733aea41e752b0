#!/usr/bin/env python3
"""Self-test of the perfbench harness, at tiny sizes.

    python3 perfbench/test_perfbench.py [--binary PATH]

For every workload (those BENCHMARK.json declares and serve_open_loop,
which it leaves out as unsteady), in both the untraced (--trace 0) and the
traced (--trace 1) mode, it checks that:
  * the last stdout line is the JSON result with exactly the keys
    correct/attempted/failed/metrics;
  * every metric BENCHMARK.json declares for that mode is printed exactly
    once, with its declared unit and a finite value, both in the JSON and in
    the human-readable "metric <name> = <value> <unit>" lines;
  * a deliberately corrupted reference (--corrupt-reference) drives the
    failure count above zero, so the output checks can fail.
Without --binary it builds the harness the way run.py does. Exit code 0 means
every check passed.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ["kernel_bound", "latency_bound", "ca_fused", "serve_open_loop",
             "des_fig8"]


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = sorted({k for k in keys if keys.count(k) > 1})
    if dupes:
        raise ValueError("duplicate JSON keys: %s" % ", ".join(dupes))
    return dict(pairs)


def run(binary, workload, trace, corrupt=False):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", "1" if trace else "0", "--tiny"]
    if corrupt:
        cmd.append("--corrupt-reference")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd),
                                                   done.returncode,
                                                   done.stderr.strip()))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return lines, result


def check_result(lines, result, declared, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys are %s" % (label, sorted(result)))
        return errors
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("%s: attempted is %r" % (label, result["attempted"]))
    if not isinstance(result["failed"], int):
        errors.append("%s: failed is %r" % (label, result["failed"]))
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in declared]:
        errors.append("%s: metric names differ from BENCHMARK.json" % label)
    for m in declared:
        name = m["name"]
        got = metrics.get(name)
        if got is None:
            errors.append("%s: %s missing" % (label, name))
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            errors.append("%s: %s has %r, unit %s declared" %
                          (label, name, got, m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r is not finite" % (label, name, value))
        pattern = re.compile(r"^\s*metric %s = (\S+) %s\b" %
                             (re.escape(name), re.escape(m["unit"])))
        printed = [l for l in lines if pattern.match(l)]
        if len(printed) != 1:
            errors.append("%s: %s printed %d times" % (label, name,
                                                       len(printed)))
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: uncorrupted run reports failures" % label)
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary
    if not binary:
        import run as bench_run
        binary = bench_run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    errors = []
    if not set(names) <= set(WORKLOADS):
        errors.append("BENCHMARK.json workloads %s" % names)
    for workload in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            label = "%s trace=%d" % (workload, int(trace))
            try:
                lines, result = run(binary, workload, trace)
                errors += check_result(lines, result, declared, label)
                _, bad = run(binary, workload, trace, corrupt=True)
                if not (bad["failed"] > 0 and bad["correct"] is False):
                    errors.append("%s: corrupted reference not detected" %
                                  label)
                if trace and not bad["metrics"]["fail_frac"]["value"] > 0:
                    errors.append("%s: fail_frac stayed 0 on a corrupted "
                                  "reference" % label)
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                errors.append("%s: %s" % (label, e))
            print("checked %s" % label, flush=True)
    for e in errors:
        print("FAIL " + e)
    print("perfbench self-test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
