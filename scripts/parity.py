#!/usr/bin/env python3
"""Compare the outputs of benchmark rounds in this checkout and a baseline, bit for bit.

For each workload named with --workload (repeatable) and each seed, builds
one round of that workload (this checkout's perfbench/workloads.py) and runs
it once in each checkout: one subprocess per checkout imports that checkout's
src/ and runs every round through its perfbench/worker.py Runner, with the
CLI called in-process, and records every contour auto_contour returns.
Numbers are compared by float.hex, CLI stdout byte for byte once its
`wall_time` lines are dropped.  Prints every call that differs, then one
summary line per workload, and exits 1 if any call differs.

With --within-estimate, a change that moves values within their estimates
passes: the contours, the CLI exit codes and the refusals (error texts with
their numbers masked; for the CLI, the call's `error` and its `refusals`)
must be equal, and each served value may move by at
most the smaller of the two sides' relative estimates.  A value without an
estimate (the asymptotic) must not move; a number derived from the values
(the xval discrepancy) may move by (1 + |old|) times the call's largest
bound.  CLI stdout is read with perfbench/run.py's `cli_outcomes`.  The
summary line gives the largest change/estimate ratio of each workload.

    python3 scripts/parity.py --baseline ../parent --workload quad --workload cli-sweep --seeds 801-810
    python3 scripts/parity.py --within-estimate --baseline ../parent --workload quad --seeds 801-810

Run it from anywhere inside the checkout; nothing under perfbench/ of either
checkout is written.  A `quad` seed takes about 0.02 s a side, a `cli-sweep`
seed about 0.1 s, after a start of about 0.5 s per checkout (2 vCPUs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys

from estimates import PERFBENCH, _load, _seeds

#: the `"wall_time": ...` line of a CLI JSON record, the only part of its stdout that may differ
_WALL_TIME = re.compile(r'^ *"wall_time": .*\n', re.M)

#: a number in an error text, which --within-estimate lets differ between the sides
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b|\bnan\b")


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
    """Runs the rounds read from stdin with `checkout`'s library and worker; one JSON line out.

    Each call gives {"outputs": the Runner's outputs, "contours": [[lines, half_extent,
    nodes_per_dim] of every contour auto_contour returned during the call]}.
    """
    sys.path[:0] = [os.path.join(checkout, "perfbench"), os.path.join(checkout, "src")]
    runner = _load("worker", os.path.join(checkout, "perfbench")).Runner(in_process=True)
    if not os.path.abspath(runner.parwhit.__file__).startswith(os.path.join(checkout, "src", "")):
        raise SystemExit(f"parwhit was imported from {runner.parwhit.__file__}, not from {checkout}")
    mbquad, cli, contours = runner.parwhit.mbquad, sys.modules["parwhit.cli"], []

    def recorded(s, tol, auto_contour=mbquad.auto_contour):
        c = auto_contour(s, tol)
        contours.append([list(c.lines), c.half_extent, c.nodes_per_dim])
        return c

    mbquad.auto_contour = cli.auto_contour = recorded
    outputs = []
    for calls in json.load(sys.stdin):
        outputs.append([])
        for c in calls:
            contours.clear()
            outputs[-1].append({"outputs": getattr(runner, c["kind"])(c), "contours": list(contours)})
    sys.stdout.write(json.dumps(outputs) + "\n")
    return 0


def _cli_refusals(output: dict) -> str:
    """The `error` and `refusals` of one CLI call's JSON stdout, numbers masked ("" for CSV)."""
    try:
        payload = json.loads(output["out"])
    except json.JSONDecodeError:
        return ""
    return _NUMBER.sub("#", json.dumps([payload.get("error"), payload.get("refusals")]))


def within_estimate(run, call: dict, new: dict, old: dict) -> tuple[list[str], float]:
    """(how the two sides' outputs of one call differ beyond --within-estimate, the largest
    change/bound ratio of its numbers); run is perfbench/run.py, for cli_outcomes and _rel."""
    if new["contours"] != old["contours"]:
        return [f"contours {new['contours']} != {old['contours']}"], math.inf
    if call["kind"] == "cli":
        rc_new, rc_old = new["outputs"][0]["rc"], old["outputs"][0]["rc"]
        if rc_new != rc_old:
            return [f"exit code {rc_new} != {rc_old}"], math.inf
        if _cli_refusals(new["outputs"][0]) != _cli_refusals(old["outputs"][0]):
            return [f"refusals {_cli_refusals(new['outputs'][0])} != "
                    f"{_cli_refusals(old['outputs'][0])}"], math.inf
        a, b = run.cli_outcomes(call, new["outputs"][0]), run.cli_outcomes(call, old["outputs"][0])
    else:
        a, b = new["outputs"], old["outputs"]
    call_bound = max((min(x.get("est") or 0.0, y.get("est") or 0.0)
                      for x, y in zip(a, b) if "log_mag" in x and "log_mag" in y), default=0.0)
    problems, worst = [], 0.0
    for x, y in zip(a, b):
        if "error" in x or "error" in y:
            if _NUMBER.sub("#", str(x.get("error"))) != _NUMBER.sub("#", str(y.get("error"))):
                problems.append(f"refusal {x.get('error')!r} != {y.get('error')!r}")
            continue
        if x.keys() != y.keys():
            problems.append(f"outcome {x} != {y}")
            continue
        if "log_mag" in x:
            moves = [("value", run._rel(x, (y["log_mag"], y["phase"])),
                      min(x.get("est") or 0.0, y.get("est") or 0.0))]
        else:       # numbers derived from the call's values; a flag such as `passed` must not move
            moves = [(k, 0.0 if x[k] == y[k] else abs(x[k] - y[k]),
                      (1.0 + abs(y[k])) * call_bound if isinstance(y[k], float) else 0.0) for k in x]
        for what, change, bound in moves:
            ratio = change / bound if bound > 0 else (0.0 if change == 0 else math.inf)
            worst = max(worst, ratio)
            if not change <= bound:
                problems.append(f"{what} moved by {change:.3g}, beyond its bound {bound:.3g}")
    return problems, worst


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
    p.add_argument("--within-estimate", action="store_true",
                   help="let each served value move within its relative estimate")
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
    run = _load("run") if a.within_estimate else None
    calls, differences = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    ratios = dict.fromkeys(names, 0.0)
    for (name, seed, round_calls), new, old in zip(jobs, change, baseline):
        calls[name] += len(round_calls)
        for k, (c, n, o) in enumerate(zip(round_calls, new, old)):
            if run:
                problems, ratio = within_estimate(run, c, n, o)
                ratios[name] = max(ratios[name], ratio)
            else:
                problems = ["differs"] if _canonical(n) != _canonical(o) else []
            if problems:
                differences[name] += 1
                print(f"{name} seed {seed}, call {k} ({c['kind']}): {'; '.join(problems)}\n"
                      f"    change {json.dumps(n)[:300]}\n    baseline {json.dumps(o)[:300]}")
    for name in names:
        summary = {"workload": name, "seeds": f"{a.seeds.start}-{a.seeds.stop - 1}",
                   "calls": calls[name], "differences": differences[name]}
        if run:
            summary["largest_change_over_estimate"] = ratios[name]
        print(json.dumps(summary))
    return 1 if any(differences.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
