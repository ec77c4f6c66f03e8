#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json once per (workload, seed),
untraced, and prints for every end-to-end metric its median, first and
third quartiles and spread, the quartile distance as a share of the
median. A spread below a third of the metric's bound is steady, one up to
the bound is within bound, and one beyond it is noisy; every metric,
`setup_s` included, is judged so. Each run measures BENCHMARK.json's
`run_seconds`.

With --sets 2 it repeats the whole set with fresh seeds and prints, per
metric, how far the second median moved from the first (positive is
worse) against the bound.

Run from the repository root:

    python3 e2ebench/steady.py                       # every workload, ten seeds
    python3 e2ebench/steady.py --workloads write_read --seeds 5
    python3 e2ebench/steady.py --sets 2 --out .bench_out/steady.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers")
    return result, wall, lines[:-1]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--out", help="write every run's result and record lines here as JSON")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    raw = {}
    verdict_ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.seeds):
                seed = args.first_seed + s * args.seeds + i
                result, wall, record = run_once(bench["command"], workload, seed, seconds)
                raw.setdefault(workload, []).append({"set": s, "seed": seed, "wall_s": wall,
                                                     "result": result, "record": record})
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"# {workload} set {s} seed {seed}: {wall:.1f} s", flush=True)
            sets.append(values)
        print(f"\n{workload}  ({args.seeds} seeds per set, {seconds} s per run)")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for s, values in enumerate(sets):
                q1, med, q3, spread = summarise(values[name])
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict, verdict_ok = "NOISY", False
                print(f"  {name:<22} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} "
                      f"{bound:>6}  {verdict}" + (f" (set {s})" if args.sets > 1 else ""))
            if args.sets == 2:
                first = statistics.median(sets[0][name])
                second = statistics.median(sets[1][name])
                moved = worse_by(m, first, second)
                ok = moved <= bound
                verdict_ok &= ok
                print(f"  {'':<22} second median worse by {moved:+.3f} "
                      f"({'ok' if ok else 'OVER BOUND'})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nall steady within bounds" if verdict_ok else "\nsome metric exceeds its bound")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
