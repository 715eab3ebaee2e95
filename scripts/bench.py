#!/usr/bin/env python3
"""Collect the benchmark's end-to-end metrics into BENCH_<pr>.json.

Runs `perfbench/run.py --trace 0` for every workload of BENCHMARK.json (or
for each one named with --workload, which may be repeated), for its
`run_seconds`, over the fixed seeds 801-810, and writes, per workload,
the median, q1 and q3 of each end-to-end metric, its values sorted and in
seed order, the share of failed operations, the commit and `nproc` to
BENCH_<pr>.json at the checkout root.  With --baseline, the same runs are made
in a second checkout (the parent commit), in pairs whose order alternates from
seed to seed, and both sides go into the file, with a `pairs` block per
workload and metric: the change/parent ratio of each seed's pair and the
number of seeds on which the change is better.  A run narrowed by --workload
writes its own file, BENCH_<pr>.<workload>.json (names joined by "+"), and
leaves BENCH_<pr>.json as it is.

    python3 scripts/bench.py --pr 6 --baseline ../parent
    python3 scripts/bench.py --pr 6 --baseline ../parent --workload gz-verify

Run it from the root of a checkout; nothing else should load the machine
while it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(801, 811)


def _commit(checkout: str) -> str:
    head = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return head + ("-dirty" if dirty else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its last output line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], metric_names: list[str]) -> dict:
    out = {"runs": len(runs),
           "failed_share": statistics.median(r["failed"] / max(r["attempted"], 1) for r in runs),
           "all_correct": all(r["correct"] for r in runs),
           "metrics": {}}
    for name in metric_names:
        by_seed = [r["metrics"][name]["value"] for r in runs]
        vals = sorted(by_seed)
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        out["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                "unit": runs[0]["metrics"][name]["unit"], "values": vals,
                                "by_seed": by_seed}
    return out


def pairs(change: dict, parent: dict, better: dict) -> dict:
    """Per metric, the change/parent ratio of each seed and the seeds on which the change is
    better (`better` maps a metric to "lower" or "higher")."""
    out = {}
    for name, sign in better.items():
        c, p = change["metrics"][name]["by_seed"], parent["metrics"][name]["by_seed"]
        wins = sum((a < b) if sign == "lower" else (a > b) for a, b in zip(c, p))
        out[name] = {"ratios": [a / b if b else None for a, b in zip(c, p)],
                     "change_better": wins, "seeds": len(c)}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output file name")
    p.add_argument("--baseline", help="checkout of the parent commit to run in pairs")
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                   help="run only this workload; repeatable (default: every workload)")
    a = p.parse_args(argv)

    sides = {"change": ROOT}
    if a.baseline:
        sides["parent"] = os.path.abspath(a.baseline)
    names = [m["name"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    result = {"pr": a.pr, "seeds": list(SEEDS), "seconds": seconds,
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "sides": {side: {"commit": _commit(path), "workloads": {}} for side, path in sides.items()}}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(SEEDS):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                r = run_once(sides[side], workload, seed, seconds)
                runs[side].append(r)
                wall = r["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.4g}", file=sys.stderr, flush=True)
        summary = {side: summarize(runs[side], names) for side in sides}
        for side in sides:
            result["sides"][side]["workloads"][workload] = summary[side]
        if a.baseline:
            result.setdefault("pairs", {})[workload] = pairs(summary["change"], summary["parent"], better)

    suffix = "." + "+".join(workloads) if a.workload else ""
    path = os.path.join(ROOT, f"BENCH_{a.pr}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
