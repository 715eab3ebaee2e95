#!/usr/bin/env python3
"""Check the quadrature's error estimates on benchmark rounds, one seed at a time.

For each seed, builds one round of a benchmark workload
(perfbench/workloads.py), runs it once in this process (perfbench/worker.py's
Runner, with the CLI called in-process), and checks it with perfbench/run.py's
own `compute_references` (mpmath) and `evaluate`.  Prints every unexpected
failure, then the smallest est/true and the largest error over the served
`mb` values, each with its instance, and exits 1 if any value failed
unexpectedly.  A seed whose instances the reference refuses (lambda
differences on hbar Z, as in `quad` seed 1073) is skipped with a note.

    python3 scripts/estimates.py --workload cli-sweep --seeds 801-810

Run it from anywhere inside the checkout; nothing under perfbench/ is
written.  A seed takes about 0.3 s on `quad` and 1.2 s on `cli-sweep`
(2 vCPUs), most of it the mpmath references.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def check_round(run, runner, calls: list, refs: dict):
    """(unexpected failures, [(est/true, error, value)] over the served mb values) of one round."""
    outputs = [getattr(runner, c["kind"])(c) for c in calls]
    ev = run.evaluate(calls, {"rounds": [{"outputs": outputs}]}, refs)
    served = []
    for c, raw in zip(calls, outputs):
        outs = run.cli_outcomes(c, raw[0]) if c["kind"] == "cli" else raw
        for v, out in zip(c["values"], outs):
            if v["check"] == "mb" and "error" not in out:
                rel = run._rel(out, refs[run._ref_key(v)])
                served.append((out["est"] / max(rel, 1e-16), rel, v))
    return ev["unexpected"], served


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("quad", "cli-sweep"))
    p.add_argument("--seeds", required=True, type=_seeds, help="A-B, or one seed")
    a = p.parse_args(argv)

    sys.dont_write_bytecode = True          # nothing under perfbench/ is written
    sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]
    run, worker = _load("run"), _load("worker")
    runner = worker.Runner(in_process=True)
    unexpected, served = [], []
    for seed in a.seeds:
        calls = run.workloads.build(a.workload, seed)
        try:
            refs = run.compute_references(calls)
        except ValueError as exc:       # the reference refuses lambda differences on hbar Z
            print(f"seed {seed} skipped, no reference: {exc}")
            continue
        fails, rows = check_round(run, runner, calls, refs)
        unexpected += [(seed, v, out) for v, out in fails]
        served += [(ratio, rel, seed, v) for ratio, rel, v in rows]

    for seed, v, out in unexpected:
        print(f"unexpected failure, seed {seed}: {json.dumps(v)} -> {json.dumps(out)[:300]}")
    if served:
        for label, (ratio, rel, seed, v) in (("smallest est/true", min(served, key=lambda r: r[0])),
                                             ("largest error", max(served, key=lambda r: r[1]))):
            print(f"{label}: est/true {ratio:.3g}, error {rel:.3g}, seed {seed}: {json.dumps(v)}")
    print(json.dumps({"workload": a.workload, "seeds": f"{a.seeds.start}-{a.seeds.stop - 1}",
                      "served_mb": len(served), "unexpected": len(unexpected)}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
