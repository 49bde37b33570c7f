#!/usr/bin/env python3
"""Steadiness record: runs every workload once per seed and prints, per
end-to-end metric, the median, the quartiles and their distance as a
share of the median (the spread BENCHMARK.json's bounds are judged by),
over seeds 1 to 10.

    python3 chasebench/steadiness.py

Run from the repository root; prints a Markdown table on stdout.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def main():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | (q3 − q1) ÷ median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in spec["workloads"]:
        values = {}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w['name']} seed {seed}: {result['failed']} operations failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"| `{w['name']}` | `{name}` | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{(q3 - q1) / med:.1%} | {bounds[name]:.0%} |", flush=True)


if __name__ == "__main__":
    main()
