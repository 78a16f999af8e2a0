#!/usr/bin/env python3
"""The repository benchmark: build perfbench/ from source, run one workload.

    python3 perfbench/run.py --workload <local-hits|update-flood|sssp> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the simulator and the
benchmark program plus_bench into .bench_build/perfbench (the first run
builds, later runs reuse the build), runs plus_bench's self-test, which
must show that a wrong reference, a FatalError and a non-repeating
simulated digest all count a unit as failed, and then runs the workload. The last line of
standard output is plus_bench's JSON result; its metric names are checked
against BENCHMARK.json. With --trace 1 the per-layer report is also
written to .bench_build/perfbench/layers-<workload>-seed<n>.json.

Exits non-zero, without a result line, if the build, the self-test or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "plus_bench")
WORKLOADS = ("local-hits", "update-flood", "sssp")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def clean_env():
    """Users run the default engine, protocol and profiler setting."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PLUS_")}


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return False
    return True


def run_bench(args):
    try:
        proc = subprocess.run([PROGRAM] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("plus_bench timed out:", " ".join(args))
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        log(proc.stdout.rstrip())
        log("plus_bench exited with", proc.returncode)
        return None
    return proc.stdout


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys " + ",".join(sorted(result))
    if not result["correct"]:
        return None  # reported as measured: failed units, no metrics
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ: missing %s extra %s unit %s" % (
            missing, extra, wrong)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not build():
        return 1
    selftest = run_bench(["--selftest"])
    if selftest is None:
        log("self-test failed: the output checks are not live")
        return 1
    log(selftest.rstrip())

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--layers-out", os.path.join(
            BUILD, "layers-%s-seed%d.json" % (a.workload, a.seed))]
    out = run_bench(args)
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], a.trace == 1)
    if problem:
        log("\n".join(lines))
        log("bad result line:", problem)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
