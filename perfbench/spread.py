"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workloads bch15-radius ...] [--out runs.jsonl]

Runs the benchmark once per seed (1..N) on each workload, one run at a
time, and prints per metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, as a
markdown table.  With --out, every run's result line is appended there,
with its workload, seed and wall time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            wall_s = time.perf_counter() - t0
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": seed, "wall_s": wall_s,
                                        **runs[-1]}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in runs}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {metric['name']} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                  f"| {(q3 - q1) / med:.3f} | {metric['bound']} |")
        print(f"| {name} | failed share | {sorted(shares)} | | | | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
