#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]

Runs the benchmark once per seed and prints, per metric, the median and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median. With --trace 0 it
also shows each metric's bound from BENCHMARK.json and flags a spread
above a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            sys.stderr.write(out.stdout)
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    worst = True
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and args.trace == 0:
            flag = f" bound {bound}" + ("  SPREAD ABOVE BOUND/3" if spread > bound / 3 else "")
            worst = worst and spread <= bound
        print(f"{name:40s} median {med:14.6g} spread {spread:8.4f}{flag}")
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
