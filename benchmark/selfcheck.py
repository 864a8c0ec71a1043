#!/usr/bin/env python3
"""Runs the benchmark against itself: two full sets of timed runs on one
build, every run at another seed, judged by the rules the acceptance
driver uses.

    python3 benchmark/selfcheck.py [--runs N] [--workload NAME ...]

For every (workload, end-to-end metric) it prints both sets' medians and
quartiles, each set's spread (distance between the first and third
quartile, as `statistics.quantiles(values, n=4)` gives them, over the
median) and the gap between the two medians. It exits non-zero when a
spread other than `setup_s`'s exceeds the metric's bound, when the second
median is worse than the first by more than the bound, or when a run
fails. Run it from the repository root; it reads `BENCHMARK.json` there.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        workloads = [w for w in workloads if w in args.workload]

    ok = True
    longest = 0.0
    print("| workload | metric | set | median | q1 | q3 | spread | bound | gap 2 vs 1 | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for set_no in (0, 1):
            runs = []
            for i in range(args.runs):
                # Every run of both sets gets a seed of its own.
                metrics, wall = run_once(spec, workload, 1 + set_no * args.runs + i)
                longest = max(longest, wall)
                runs.append(metrics)
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_no, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, q3, rel = spread(values)
                med = statistics.median(values)
                medians.append(med)
                gap = ""
                verdict = "ok"
                if name != "setup_s" and rel > bound:
                    verdict = "SPREAD OVER BOUND"
                if set_no == 1:
                    worse = medians[1] - medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    gap = f"{worse / medians[0]:+.2%}"
                    if worse / medians[0] > bound:
                        verdict = "SECOND MEDIAN WORSE"
                if len(set(values)) == 1:
                    verdict = "SAME VALUE EVERY RUN"
                ok &= verdict == "ok"
                print(f"| {workload} | {name} | {set_no + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {rel:.2%} | {bound:.0%} | {gap} | {verdict} |")
        sys.stdout.flush()
    print(f"\nlongest run: {longest:.1f} s wall; {'all within bounds' if ok else 'FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
