#!/usr/bin/env python3
"""Steadiness check: run the benchmark over several seeds and compare.

    python3 hdbench/steady.py [--workloads oneshot,serve] [--seeds 10]
        [--sets 1|2] [--baseline-tree DIR] [--save FILE]

For every workload, runs `run.py --trace 0` once for each of seeds 1..N and
reports, per end-to-end metric, the median and the interquartile distance as
a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json.  A spread above the bound is marked FAIL
and makes the exit status 1; a spread above a third of the bound is marked
"wide".

With --sets 2 it makes two sets, A and B, of the same code; with
--baseline-tree DIR set A runs DIR's hdbench/run.py (say, a checkout of the
parent commit) and set B this tree's.  The two sets are interleaved seed by
seed, and which side goes first alternates, so a change in the host's speed
during the check lands on both sides.  A median of B worse than A's by more
than the bound is marked FAIL.  --save writes every value.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "hdbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s: run.py %s seed %d failed (exit %d):\n%s" %
                 (tree, workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s: run.py %s seed %d: incorrect output" %
                 (tree, workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--baseline-tree")
    parser.add_argument("--save")
    args = parser.parse_args()
    trees = [ROOT]
    if args.baseline_tree:
        trees = [os.path.abspath(args.baseline_tree), ROOT]
    elif args.sets == 2:
        trees = [ROOT, ROOT]
    sides = "AB"[:len(trees)]

    values = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = {side: [] for side in sides}
        for seed in range(1, args.seeds + 1):
            order = list(zip(sides, trees))
            if seed % 2 == 0:
                order.reverse()
            for side, tree in order:
                runs[side].append(run_once(tree, workload, seed,
                                           bench["run_seconds"]))
        values[workload] = {side: {name: [r[name] for r in rs]
                                   for name in metrics}
                            for side, rs in runs.items()}
        for side in sides:
            print("%s set %s (%d seeds, %s)" %
                  (workload, side, args.seeds, trees[sides.index(side)]))
            for name, m in metrics.items():
                vs = values[workload][side][name]
                mid = stats.median(vs)
                spread = stats.spread(vs)
                verdict = "ok"
                if spread > m["bound"]:
                    verdict = "FAIL spread"
                elif spread > m["bound"] / 3:
                    verdict = "wide"
                note = ""
                if side == "B":
                    base_mid = stats.median(values[workload]["A"][name])
                    note = " vs A %+.1f%%" % (100 * (mid / base_mid - 1))
                    if not stats.within_bound(base_mid, mid, m["bound"],
                                              m["better"]):
                        verdict = "FAIL median"
                ok = ok and not verdict.startswith("FAIL")
                print("  %-16s median %-12.6g spread %6.2f%% bound %5.1f%%"
                      "%s  %s" % (name, mid, 100 * spread, 100 * m["bound"],
                                  note, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
