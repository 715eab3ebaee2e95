"""Quick self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

Run from the root of a parwhit checkout.  It checks
  1. the mpmath determinant reference against the Bessel closed form at
     x from -6 to +8, and its order-0 part against the coset sum written
     out independently;
  2. a reduced pass (--smoke) of every workload, untraced and traced: the
     last line has exactly the keys the driver reads, the printed metric
     names and units are those of BENCHMARK.json, and only the kept
     cli-sweep rows fail;
  3. that run.py exits non-zero, printing no result, in a directory that
     holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from run import declared_metrics  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_reference() -> None:
    for lam in ((0.3, -0.2), (0.05, 0.0), (0.85, -0.4)):
        worst = 0.0
        for x in (-6.0, -2.5, 0.0, 3.0, 8.0):
            a = reference.psi(1, 2, lam, 1.0, x)
            b = reference.bessel_psi(lam, x)
            with mp.workdps(40):
                worst = max(worst, float(abs(a / b - 1)))
        expect(worst <= 1e-12, f"pole-sum reference = Bessel closed form, lambda={lam}: {worst:.1e}")
    # order-0 part = m! h^m sum_S e^{-(x/h) sum lambda_S} prod gamma1(lambda_i - lambda_j)
    m, lam, h, x = 2, (0.9, 0.4, -0.3, -1.15), 0.8, -2.0
    with mp.workdps(30):
        total = mp.mpf(0)
        for S in itertools.combinations(range(len(lam)), m):
            t = mp.exp(-(x / h) * sum(lam[i] for i in S))
            for i in S:
                for j in set(range(len(lam))) - set(S):
                    z = mp.mpf(lam[i] - lam[j])
                    t *= mp.power(h, z / h) * mp.gamma(z / h)
            total += t
        coset = math.factorial(m) * mp.mpf(h) ** m * total
        rel = float(abs(reference.psi(m, len(lam), lam, h, x, order0=True) / coset - 1))
    expect(rel <= 1e-14, f"order-0 reference = coset sum: {rel:.1e}")


def check_workloads() -> None:
    e2e, layer = declared_metrics()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"BENCHMARK.json workloads {names}")
    for name, trace in itertools.product(workloads.WORKLOADS, (0, 1)):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                           capture_output=True, text=True, timeout=300)
        what = f"{name} --trace {trace} (smoke)"
        if p.returncode != 0:
            expect(False, f"{what}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        line = json.loads(p.stdout.strip().splitlines()[-1])
        want = layer if trace else e2e
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        ok = (set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"] is True
              and line["attempted"] >= 1 and got == want
              and all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in line["metrics"].values()))
        expect(ok, f"{what}: {line['attempted']} attempted, {line['failed']} failed, "
                   f"{len(got)} metrics match BENCHMARK.json")
        if name == "cli-sweep":
            per_round = sum(v.get("known_fault", False) for c in workloads.build(name, 7, smoke=True)
                            for v in c["values"])
            rounds = line["attempted"] // sum(len(c["values"]) for c in workloads.build(name, 7, smoke=True))
            expect(line["failed"] == per_round * rounds,
                   f"{what}: failures are exactly the kept (1,2) rows at x >= 3.5")
        else:
            expect(line["failed"] == 0, f"{what}: no failures")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quad", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and not p.stdout.strip(),
           f"run.py without the program's sources exits {p.returncode} and prints no result")


def main() -> int:
    check_reference()
    check_workloads()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
