#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--seconds 25] \
        [--workload NAME ...] [--json FILE] [--compare FILE]

Runs perfbench/run.py once per seed and workload, seed after seed, so
slow and fast spells of the host fall on every workload alike. For each
end-to-end metric it prints the median over the seeds and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. The
benchmark counts as steady when every share is below a third of its
bound. --json writes the same numbers, with the host fingerprint.
--compare reads such a file from an earlier set and prints, for each
metric, how much worse this set's median is, as a share of the earlier
median, against the bound; a sim_cycles value that differs on the same
seed is reported too.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def compare(report, path, spec):
    with open(path) as f:
        before = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("== against %s" % path)
    for w, metrics in report["workloads"].items():
        old = before["workloads"].get(w, {})
        for k, now in metrics.items():
            if k not in old:
                continue
            was = old[k]["median"]
            worse = (now["median"] - was) / was if was else 0.0
            if better[k] == "higher":
                worse = -worse
            print("  %-12s %-12s worse by %+.3f  bound %.2f  %s" % (
                w, k, worse, now["bound"],
                "ok" if worse <= now["bound"] else "REGRESSED"))
        same = dict(zip(before["seeds"], old.get("sim_cycles", {}).get(
            "values", [])))
        for seed, v in zip(report["seeds"],
                           metrics.get("sim_cycles", {}).get("values", [])):
            if seed in same and same[seed] != v:
                print("  %-12s sim_cycles differ on seed %d: %s vs %s" % (
                    w, seed, same[seed], v))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--json")
    ap.add_argument("--compare")
    a = ap.parse_args()
    workloads = a.workload or names

    values = {w: {} for w in workloads}
    host = None
    for seed in a.seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if not result or not result["correct"]:
                print("seed %d %s: FAILED" % (seed, w), file=sys.stderr)
                return 1
            m = re.search(r'^host nproc (\d+) cpu "(.*)" engine', proc.stdout,
                          re.M)
            host = {"nproc": int(m.group(1)), "cpu": m.group(2)}
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            print("seed %d %s: %s" % (seed, w, " ".join(
                "%s=%.5g" % (k, v["value"])
                for k, v in result["metrics"].items())), file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": host, "seconds": a.seconds, "seeds": a.seeds,
              "workloads": {}}
    for w in workloads:
        print("== %s" % w)
        report["workloads"][w] = {}
        for k, v in values[w].items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            share = (q[2] - q[0]) / med if med else 0.0
            steady = share < bounds[k] / 3
            print("  %-12s median %-12.6g spread %.3f  bound %.2f  %s" % (
                k, med, share, bounds[k], "steady" if steady else "WIDE"))
            report["workloads"][w][k] = {
                "median": med, "spread": share, "bound": bounds[k],
                "values": v}
    if a.compare:
        compare(report, a.compare, spec)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
