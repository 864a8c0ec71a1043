#!/usr/bin/env python3
"""Perf gate: a change's benchmark medians against its parent's.

    cd PARENT_CHECKOUT && python3 CHANGE_CHECKOUT/.github/perf_gate.py PARENT_CMD CHANGE_CMD

Each argument is a command that runs `ghost-benchmark`, built from that
commit's own source. Run it from the parent checkout's root: the gate
reads the parent's BENCHMARK.json, so the change is judged by the
parent's workloads, end-to-end metrics and bounds. A workload or metric
the change adds is gated from the next change on, and a change cannot
loosen its own bounds. For every workload the gate runs PAIRS pairs of
timed runs of RUN_SECONDS each, both sides at the pair's seed,
alternating which side goes first. It exits 1 when a run fails, or when
the change's median of an end-to-end metric is worse than the parent's
by more than that metric's bound.
"""

import json
import shlex
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
from selfcheck import run_once  # noqa: E402

PAIRS = 5
RUN_SECONDS = 5


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"parent": sys.argv[1], "change": sys.argv[2]}
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    worse = []
    print("| workload | metric | parent median | change median | change vs parent | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        runs = {side: [] for side in sides}
        for pair in range(PAIRS):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                run_spec = {"command": shlex.split(sides[side]), "run_seconds": RUN_SECONDS}
                runs[side].append(run_once(run_spec, workload, 1 + pair)[0])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            parent = statistics.median([r[name] for r in runs["parent"]])
            change = statistics.median([r[name] for r in runs["change"]])
            rel = (change - parent) / parent if parent else 0.0
            regress = -rel if metric["better"] == "higher" else rel
            verdict = "ok"
            if regress > bound:
                verdict = "WORSE"
                worse.append(f"{workload} {name}")
            print(f"| {workload} | {name} | {parent:.4g} | {change:.4g} | {rel:+.1%} "
                  f"| {bound:.0%} | {verdict} |", flush=True)
    if worse:
        sys.exit(f"perf gate failed: worse than the parent beyond the bound: {', '.join(worse)}")
    print(f"perf gate passed: {len(workloads)} workloads, {PAIRS} pairs of {RUN_SECONDS} s runs")


if __name__ == "__main__":
    main()
