#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload several times, each with another --seed, and prints for
every end-to-end metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) beside the metric's
bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads campaign-sym-async
    python3 perfbench/steady.py --trace --runs 2     # traced runs, per-layer

Besides the spreads it checks that every run is correct, that the share of
failed operations is the same in every run, that the deterministic counts
repeat exactly, and that each run reports exactly the metrics BENCHMARK.json
names. It exits 1 if any of these fails or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Counts that must repeat exactly from run to run, seed or no seed.
EXACT = {"lcm_cycles", "random_bits", "core.election.bits", "sim.steps", "sim.moves",
         "trace.events"}


def is_exact(name):
    return name in EXACT or name.endswith(".calls") or name.endswith(".cycles")


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), took


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true",
                        help="make --runs traced runs per workload, print the first one's "
                             "per-layer metrics and check the exact counts repeat")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        if args.trace:
            runs = [run_once(bench["command"], workload, args.first_seed + k,
                              bench["run_seconds"], True)
                    for k in range(args.runs)]
            result, took = runs[0]
            want = [m["name"] for m in bench["per_layer"]]
            print(f"\n{workload} (traced, seed {args.first_seed}, {took:.1f} s): "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
            for other, _ in runs:
                ok &= other["correct"]
                if list(other["metrics"]) != want:
                    print("  per-layer metrics differ from BENCHMARK.json")
                    ok = False
                for name in filter(is_exact, want):
                    if other["metrics"][name]["value"] != result["metrics"][name]["value"]:
                        print(f"  {name} differs between traced runs")
                        ok = False
            continue

        rows = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, took = run_once(bench["command"], workload, seed, bench["run_seconds"], False)
            rows.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            ok &= result["correct"]
        shares = {(r["failed"], r["attempted"]) for r in rows}
        if len({f / a for f, a in shares}) != 1:
            print(f"  failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in rows]
            if any(set(r["metrics"]) != {m["name"] for m in bench["end_to_end"]} for r in rows):
                print("  metrics differ from BENCHMARK.json")
                ok = False
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                ok = False
            if is_exact(name) and len(set(values)) != 1:
                verdict += "; NOT EXACT"
                ok = False
            print(f"  {name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound:6.2f}  {verdict}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
