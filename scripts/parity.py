#!/usr/bin/env python3
"""Compare the outputs of benchmark rounds in this checkout and a baseline, bit for bit.

For each workload named with --workload (repeatable) and each seed, builds
one round of that workload (this checkout's perfbench/workloads.py) and runs
it once in each checkout: one subprocess per checkout imports that checkout's
src/ and runs every round through its perfbench/worker.py Runner, with the
CLI called in-process.  Numbers are compared by float.hex, CLI stdout byte
for byte once its `wall_time` lines are dropped.  Prints every call that
differs, then one summary line per workload, and exits 1 if any call differs.

    python3 scripts/parity.py --baseline ../parent --workload quad --workload cli-sweep --seeds 801-810

Run it from anywhere inside the checkout; nothing under perfbench/ of either
checkout is written.  A `quad` seed takes about 0.02 s a side, a `cli-sweep`
seed about 0.1 s, after a start of about 0.5 s per checkout (2 vCPUs).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

from estimates import PERFBENCH, _load, _seeds

#: the `"wall_time": ...` line of a CLI JSON record, the only part of its stdout that may differ
_WALL_TIME = re.compile(r'^ *"wall_time": .*\n', re.M)


def _canonical(obj):
    """obj with every float as its float.hex and every CLI stdout (`out`) without wall_time."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _WALL_TIME.sub("", v) if k == "out" else _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def _child(checkout: str) -> int:
    """Runs the rounds read from stdin with `checkout`'s library and worker; one JSON line out."""
    sys.path[:0] = [os.path.join(checkout, "perfbench"), os.path.join(checkout, "src")]
    runner = _load("worker", os.path.join(checkout, "perfbench")).Runner(in_process=True)
    if not os.path.abspath(runner.parwhit.__file__).startswith(os.path.join(checkout, "src", "")):
        raise SystemExit(f"parwhit was imported from {runner.parwhit.__file__}, not from {checkout}")
    rounds = json.load(sys.stdin)
    outputs = [[_canonical(getattr(runner, c["kind"])(c)) for c in calls] for calls in rounds]
    sys.stdout.write(json.dumps(outputs) + "\n")
    return 0


def _run_side(checkout: str, rounds: list) -> list:
    p = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", checkout],
                       input=json.dumps(rounds), capture_output=True, text=True,
                       env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if p.returncode != 0:
        raise SystemExit(f"the run in {checkout} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.splitlines()[-1])


def main(argv=None) -> int:
    sys.dont_write_bytecode = True          # nothing under perfbench/ is written
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--baseline", help="root of the checkout to compare with")
    workloads = _load("workloads")
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                   help="a workload to compare; repeatable")
    p.add_argument("--seeds", type=_seeds, help="A-B, or one seed")
    a = p.parse_args(argv)
    if a.child:
        return _child(os.path.abspath(a.child))
    if not (a.baseline and a.workload and a.seeds):
        p.error("--baseline, --workload and --seeds are required")

    names = list(dict.fromkeys(a.workload))
    jobs = [(name, seed, workloads.build(name, seed)) for name in names for seed in a.seeds]
    rounds = [calls for _, _, calls in jobs]
    change = _run_side(os.path.dirname(PERFBENCH), rounds)
    baseline = _run_side(os.path.abspath(a.baseline), rounds)
    calls, differences = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    for (name, seed, round_calls), new, old in zip(jobs, change, baseline):
        calls[name] += len(round_calls)
        for k, (c, n, o) in enumerate(zip(round_calls, new, old)):
            if n != o:
                differences[name] += 1
                print(f"{name} seed {seed}, call {k} ({c['kind']}): change {json.dumps(n)[:300]}\n"
                      f"    baseline {json.dumps(o)[:300]}")
    for name in names:
        print(json.dumps({"workload": name, "seeds": f"{a.seeds.start}-{a.seeds.stop - 1}",
                          "calls": calls[name], "differences": differences[name]}))
    return 1 if any(differences.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
