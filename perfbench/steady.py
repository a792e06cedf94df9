#!/usr/bin/env python3
"""Steadiness check: run each workload in two interleaved sets on this commit.

    python3 perfbench/steady.py [--runs 10] [--workloads tdh_batch,crowd_eai]

Set A and set B each make `--runs` runs of every workload, A and B taking
turns; set A uses seeds 1 .. runs, set B seeds runs + 1 .. 2 * runs, so every
run has its own seed. Every run lasts run_seconds of BENCHMARK.json. Ten runs
a set, the default, is the size whose spread the bounds are meant for; fewer
give quartiles of a handful of values. For every
workload and end-to-end metric it prints each set's median and quartiles (as
statistics.quantiles gives them), the spread (quartile distance over median)
of each set and of both sets pooled, and whether the sets agree: each set's
spread within the metric's bound from BENCHMARK.json, and the two medians
apart by no more than the bound, |B - A| / A, in either direction. The share
of failed ops must be the same in both sets. Every run's result goes to
.bench_build/steady.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    log = ROOT / ".bench_build" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    all_ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                res = run_once(workload, seed, spec["run_seconds"])
                sets[name].append(res)
                with open(log, "a") as f:
                    f.write(json.dumps({"workload": workload, "set": name, "seed": seed, **res}) + "\n")
                print(f"  {workload} set {name} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        print(f"{workload}:")
        shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for n, rs in sets.items()}
        if shares["A"] != shares["B"]:
            all_ok = False
        print(f"  failed share A={shares['A']:.6g} B={shares['B']:.6g}" +
              ("" if shares["A"] == shares["B"] else "  DIFFERENT"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            pooled = summary([r["metrics"][name]["value"] for rs in sets.values() for r in rs])
            apart = abs(b[0] - a[0]) / a[0]
            ok = a[3] <= bound and b[3] <= bound and apart <= bound
            all_ok &= ok
            print(f"  {name:13s} A median {a[0]:.6g} [{a[1]:.6g}, {a[2]:.6g}] spread {a[3]:.3f} | "
                  f"B median {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] spread {b[3]:.3f} | "
                  f"pooled spread {pooled[3]:.3f} | |B-A|/A {apart:.3f} | bound {bound} "
                  f"{'agree' if ok else 'DISAGREE'}", flush=True)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
