#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, at a tiny size:
  - the same seed twice gives identical simulated metrics;
  - a different seed gives different simulated metrics;
  - every metric BENCHMARK.json names is present with its unit
    (end-to-end metrics on --trace 0, per-layer metrics on --trace 1),
    as is every workload-only metric the workload reports;
  - commit_p999_us > commit_p50_us;
  - the run exits 0 and reports correct, with no failures.
Finally the benchmark must fail, without a result line, in a directory
holding only BENCHMARK.json and perfbench/. Exits 1 on any failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

# Simulated metrics: exact for a given seed.
SIMULATED = ["commit_p50_us", "commit_p999_us", "sim_tps"]
# Metrics a workload prints beside the result line (see README.md).
WORKLOAD_ONLY = {
    "micro-hdd-open": {"max_rate_at_slo": "txn/s"},
    "quorum-ycsb": {"read_p50_us": "us", "read_p999_us": "us"},
    "crash-sweep-hdd": {"read_p50_us": "us", "read_p999_us": "us",
                        "sweep_points_per_s": "points/s"},
}
BARE_DIR = os.path.join(".bench_build", "selftest-empty")

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL:", msg, flush=True)


def run(workload, seed, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    return out


def result_of(out, label):
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0, f"{label}: exit {out.returncode}")
    if not lines:
        check(False, f"{label}: no output")
        return {"metrics": {}}, {}
    result = json.loads(lines[-1])
    check(result.get("correct") is True, f"{label}: not correct")
    check(result.get("failed") == 0, f"{label}: {result.get('failed')} failed")
    check(result.get("attempted", 0) >= 1, f"{label}: nothing attempted")
    printed = {}
    for line in lines:
        m = re.match(r"\s+([a-z0-9_.]+)\s+(\S+) (\S+)$", line)
        if m:
            printed[m.group(1)] = m.group(3)
    return result, printed


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for wl in [w["name"] for w in bench["workloads"]]:
        print(f"== {wl}", flush=True)
        a, printed = result_of(run(wl, 1, 0), f"{wl} seed 1")
        b, _ = result_of(run(wl, 1, 0), f"{wl} seed 1 again")
        c, _ = result_of(run(wl, 2, 0), f"{wl} seed 2")
        t, _ = result_of(run(wl, 1, 1), f"{wl} traced")
        sim = lambda r: [r["metrics"].get(n, {}).get("value") for n in SIMULATED]
        check(sim(a) == sim(b), f"{wl}: same seed, different simulated metrics")
        check(sim(a) != sim(c), f"{wl}: different seeds, same simulated metrics")
        for name, unit in e2e.items():
            got = a["metrics"].get(name)
            check(got is not None and got["unit"] == unit,
                  f"{wl}: end-to-end metric {name} missing or not in {unit}")
        for name, unit in layers.items():
            got = t["metrics"].get(name)
            check(got is not None and got["unit"] == unit,
                  f"{wl}: per-layer metric {name} missing or not in {unit}")
        for name, unit in WORKLOAD_ONLY[wl].items():
            check(printed.get(name) == unit,
                  f"{wl}: workload metric {name} not printed in {unit}")
        p50 = a["metrics"].get("commit_p50_us", {}).get("value", 0)
        p999 = a["metrics"].get("commit_p999_us", {}).get("value", 0)
        check(p999 > p50, f"{wl}: commit_p999_us {p999} <= commit_p50_us {p50}")

    print("== without the repository's sources", flush=True)
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy("BENCHMARK.json", BARE_DIR)
    shutil.copytree("perfbench", os.path.join(BARE_DIR, "perfbench"))
    bare = run(bench["workloads"][0]["name"], 1, 0, cwd=BARE_DIR)
    check(bare.returncode != 0, "runs without the repository's sources")
    check(not bare.stdout.strip(), "prints a result without the repository's sources")
    shutil.rmtree(BARE_DIR, ignore_errors=True)

    print("self-test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
