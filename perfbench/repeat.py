#!/usr/bin/env python3
"""Repeat mode of the serving benchmark.

Runs perfbench/run.sh N times on one workload, each time with another seed,
and prints every metric's median, first and third quartiles and spread (the
quartile distance as a share of the median, from statistics.quantiles with
n=4). For every end-to-end metric, setup_s included, it compares the spread
with the metric's bound in BENCHMARK.json: "ok" below a third of it, "within
bound" up to it, "TOO NOISY" beyond. Run it from the repository root:

    python3 perfbench/repeat.py --workload point-lookup --runs 10 --first-seed 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="append every run's result line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit("seed %d: exit %d" % (seed, proc.returncode))
        res = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": res}) + "\n")
        status = "ok" if res["correct"] and res["failed"] == 0 else "FAILED"
        print("seed %d: %s, attempted %d, failed %d" % (seed, status, res["attempted"], res["failed"]),
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%-28s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
        print("%-28s %14.6g %14.6g %14.6g %8.4f %8s %s %s" % (
            name, med, q1, q3, spread, "" if bound is None else bound, units[name], verdict))


if __name__ == "__main__":
    main()
