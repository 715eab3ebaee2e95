"""parwhit benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload quad --seed 1 --seconds 25 --trace 0

Run from the root of a parwhit checkout.  The run
  1. builds the workload's calls from --seed (workloads.py),
  2. computes the mpmath reference of every requested value (reference.py),
     outside any timed region,
  3. with --trace 0, times a fresh interpreter up to the end of
     `import parwhit.cli` several times (setup_s),
  4. starts worker.py, which repeats whole rounds of the calls for --seconds,
  5. checks every output of every round and prints, as its last line,
     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
     BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Result and trace files go to perfbench/out/.  `--smoke` runs a reduced set
of calls for the self-check.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from settle import Settle  # noqa: E402

VALUE_TOL = 1e-6        # every value against the reference
ASYMPT_TOL = 1e-10      # leading_asymptotic against the order-0 reference
SHIFT_TOL = 1e-10       # Psi(lambda + delta) = e^{-m delta x / hbar} Psi(lambda)
XVAL_TOL = 1e-6         # xval's mb/residue discrepancy
GZ_TOL = 1e-9           # every identity deviation
DIGITS_CAP = 16.0
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT = 170


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


# -- inputs and references -----------------------------------------------

def _ref_key(v):
    return (v["m"], v["N"], tuple(v["lam"]), v["hbar"], v["x"], v["check"] == "asympt")


def compute_references(calls):
    """{key: (log|Psi|, arg Psi)} for every value that is checked against mpmath."""
    refs = {}
    for c in calls:
        for v in c["values"]:
            if "m" not in v:
                continue
            key = _ref_key(v)
            if key in refs:
                continue
            m, N, lam, h, x, order0 = key
            if (m, N, h) == (1, 2, 1.0) and not order0:
                val = reference.bessel_psi(lam, x)
            else:
                val = reference.psi(m, N, lam, h, x, order0=order0)
            if val == 0:
                raise BenchError(f"reference vanishes at {key}")
            refs[key] = (float(mp.log(abs(val))), 0.0 if val > 0 else math.pi)
    return refs


# -- set-up time -----------------------------------------------------------

_STAMP = "import sys, time; import parwhit.cli; sys.stdout.write(repr(time.perf_counter()))"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(samples):
    """Median seconds from spawning a fresh interpreter to the end of `import parwhit.cli`.

    CLOCK_MONOTONIC (perf_counter) is shared by all processes, so the child's
    stamp and the parent's spawn time compare directly.  One unmeasured
    import first fills the bytecode cache, and each sample waits for the
    host to run at full speed (settle.py).
    """
    env = _env()
    out = []
    settle = Settle()
    try:
        for k in range(samples + 1):
            settle()
            t0 = time.perf_counter()
            p = subprocess.run([sys.executable, "-c", _STAMP], capture_output=True, text=True,
                               env=env, timeout=60)
            if p.returncode != 0:
                raise BenchError(f"import parwhit.cli failed: {p.stderr.strip()[-400:]}")
            if k:
                out.append(float(p.stdout) - t0)
    finally:
        settle.release()
    return statistics.median(out)


def import_times(samples):
    """Medians of the cumulative import times of parwhit.cli and scipy.special (-X importtime)."""
    env = _env()
    cli, sp = [], []
    for _ in range(samples):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import parwhit.cli"],
                           capture_output=True, text=True, env=env, timeout=60)
        cum = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
                cum.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        if "parwhit.cli" not in cum or "scipy.special" not in cum:
            raise BenchError("-X importtime output lacks parwhit.cli or scipy.special")
        cli.append(cum["parwhit.cli"])
        sp.append(cum["scipy.special"])
    return statistics.median(cli), statistics.median(sp)


# -- the worker ----------------------------------------------------------

def run_worker(calls, seconds, trace, trace_path):
    plan = {"calls": calls, "seconds": seconds, "trace": bool(trace), "trace_path": trace_path}
    p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=json.dumps(plan),
                       capture_output=True, text=True, env=_env(), timeout=WORKER_TIMEOUT)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"worker exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


# -- parsing CLI output into per-value outcomes ------------------------------

def _fnum(s):
    return float(s) if s not in ("", None) else None


def _record(rec):
    return {"log_mag": rec["value"]["log_mag"], "phase": rec["value"]["phase"],
            "est": rec["error_estimate"]}


def cli_outcomes(call, raw):
    """One outcome per value of a CLI call; a failed call fails all of them."""
    n = len(call["values"])
    if raw["rc"] != 0:
        return [{"error": f"exit code {raw['rc']}"}] * n
    argv = call["argv"]
    if "csv" in argv:
        rows = list(csv.DictReader(io.StringIO(raw["out"])))
        out = []
        for r in rows:
            if r["error"]:
                out.append({"error": r["error"]})
            else:
                out.append({"log_mag": _fnum(r["log_mag"]), "phase": _fnum(r["phase"]),
                            "est": _fnum(r["error_estimate"])})
        return out if len(out) == n else [{"error": "row count"}] * n
    try:
        payload = json.loads(raw["out"])
    except json.JSONDecodeError:
        return [{"error": "output is not JSON"}] * n
    if payload.get("schema") != 1:
        return [{"error": f"schema {payload.get('schema')!r}"}] * n
    if argv[0] == "sweep":
        out = [{"error": r["error"]} if r["error"] else
               {"log_mag": r["log_mag"], "phase": r["phase"], "est": r["error_estimate"]}
               for r in payload["rows"]]
    else:
        out = [_record(r) for r in payload["records"]]
        if argv[0] == "xval":
            out.append({"discrepancy": payload["discrepancies"].get("mb/residue", math.inf)})
    return out if len(out) == n else [{"error": "record count"}] * n


# -- checks ---------------------------------------------------------------

def _rel(out, ref):
    """|value / reference - 1| from log-magnitude and phase."""
    if out.get("log_mag") is None or out["log_mag"] == -math.inf:
        return 1.0
    lm, ph = ref
    z = complex(out["log_mag"] - lm, math.remainder(out["phase"] - ph, 2 * math.pi))
    return abs(cmath.exp(z) - 1.0)


def _digits(rel):
    return min(DIGITS_CAP, -math.log10(max(rel, 10.0 ** -DIGITS_CAP)))


def check_value(v, out, refs, round_outcomes):
    """(passed, digits or None, {diagnostic ratios}) for one value."""
    if "error" in out:
        return False, None, {}
    kind = v["check"]
    if kind == "xval-discrepancy":
        return out["discrepancy"] <= XVAL_TOL, None, {}
    if kind in ("identity", "perturbed"):
        dev = out["deviation"]
        if kind == "perturbed":
            return dev > GZ_TOL and out.get("passed") is False, None, {}
        ok = dev <= GZ_TOL and out.get("passed", True) is True
        return ok, _digits(dev), {}
    ref = refs[_ref_key(v)]
    rel = _rel(out, ref)
    if kind == "asympt":
        return rel <= ASYMPT_TOL, _digits(rel), {}
    ok = rel <= VALUE_TOL
    diag = {}
    if kind == "mb":
        ok = ok and out["est"] >= rel
        diag["est_over_true"] = out["est"] / max(rel, 1e-16)
    else:
        diag["tail_over_true"] = out["est"] / max(rel, 1e-16)
    if kind == "permuted":
        base = round_outcomes[v["base"]][0]
        ok = ok and (out["log_mag"], out["phase"]) == (base.get("log_mag"), base.get("phase"))
    if kind == "shifted":
        base = round_outcomes[v["base"]][0]
        if "error" in base:
            return False, None, {}
        want = (base["log_mag"] - v["m"] * v["delta"] * v["x"] / v["hbar"], base["phase"])
        ok = ok and _rel(out, want) <= SHIFT_TOL
    return ok, _digits(rel), diag


def evaluate(calls, result, refs):
    attempted = failed = 0
    unexpected = []
    digits, est_ratio, tail_ratio = [], [], []
    for rnd in result["rounds"]:
        outcomes = []
        for c, raw in zip(calls, rnd["outputs"]):
            outcomes.append(cli_outcomes(c, raw[0]) if c["kind"] == "cli" else raw)
        for c, outs in zip(calls, outcomes):
            for v, out in zip(c["values"], outs):
                ok, dig, diag = check_value(v, out, refs, outcomes)
                attempted += 1
                if not ok:
                    failed += 1
                    if not v.get("known_fault"):
                        unexpected.append((v, out))
                    continue
                if dig is not None:
                    digits.append(dig)
                est_ratio += [diag["est_over_true"]] if "est_over_true" in diag else []
                tail_ratio += [diag["tail_over_true"]] if "tail_over_true" in diag else []
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected,
            "digits_min": min(digits) if digits else 0.0,
            "est_over_true": statistics.median(est_ratio) if est_ratio else 0.0,
            "tail_over_true": statistics.median(tail_ratio) if tail_ratio else 0.0}


# -- metrics -----------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def best_round(rounds):
    """Seconds of one round if every call ran at its fastest in this run.

    The host of the reference machine switches between two speeds about 1.6x
    apart for seconds at a time; the per-call minimum over the rounds of a run
    removes most of that, where a median of rounds does not.
    """
    return sum(min(col) for col in zip(*(r["call_s"] for r in rounds)))


def end_to_end(result, ev, setup_s):
    plain = [r for r in result["rounds"] if not r["traced"]]
    rss_kb = max(result["maxrss_kb"], result["children_maxrss_kb"])
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(best_round(plain), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        "digits_min": _metric(ev["digits_min"], "digits"),
    }


def per_layer(result, ev, imports):
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    k = len(traced)
    tr = result["trace"]
    self_t, cnt = tr["self"], tr["counters"]

    def s(name):
        return _metric(self_t[name][0] / k, "s")

    def calls(name):
        return _metric(self_t[name][1] / k, "count")

    out = {}
    for name in ("mbquad.eval_mb", "mbquad.auto_contour", "residues.eval_residue_series",
                 "residues.residue_term", "spectral.require_generic", "logcomplex.rescaled_sum",
                 "asympt.leading_asymptotic", "cli.main", "gz.apply"):
        out[name + ".s"] = s(name)
        out[name + ".calls"] = calls(name)
    for name in ("gz.check_brackets", "gz.check_build_EnN", "gz.verify_left_whittaker",
                 "gz.verify_right_support_relations", "gammafns.loggamma"):
        out[name + ".s"] = s(name)
    out["mbquad.nodes"] = _metric(cnt["mbquad.nodes"] / k, "count")
    out["mbquad.est_over_true"] = _metric(ev["est_over_true"], "ratio")
    out["residues.orders"] = _metric(cnt["residues.orders"] / k, "count")
    out["residues.tail_over_true"] = _metric(ev["tail_over_true"], "ratio")
    out["gammafns.loggamma.points"] = _metric(cnt["gammafns.loggamma.points"] / k, "count")
    out["cli.import.s"] = _metric(imports[0], "s")
    out["cli.import.scipy_special.s"] = _metric(imports[1], "s")
    out["cli.output.bytes"] = _metric(cnt["cli.output.bytes"] / k, "bytes")
    out["gz.terms"] = _metric(cnt["gz.terms"] / k, "count")
    out["gz.shifted.calls"] = _metric(cnt["gz.shifted.calls"] / k, "count")
    out["trace.wall_s"] = _metric(best_round(traced), "s")
    out["trace.overhead_s"] = _metric(best_round(traced) - best_round(plain), "s")
    return out


def declared_metrics():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def check_names(metrics, declared):
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: printed {sorted(got.items())}, "
                         f"declared {sorted(declared.items())}")


# -- main --------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced call set, for the self-check")
    a = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "parwhit", "cli.py")) or not os.path.isfile("BENCHMARK.json"):
        print("run from the root of a parwhit checkout (src/parwhit and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    try:
        declared_e2e, declared_layer = declared_metrics()
        calls = workloads.build(a.workload, a.seed, smoke=a.smoke)
        refs = compute_references(calls)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tag = f"{a.workload}-seed{a.seed}-trace{a.trace}" + ("-smoke" if a.smoke else "")
        if a.trace:
            imports = import_times(IMPORTTIME_SAMPLES)
            result = run_worker(calls, a.seconds, 1, os.path.join(out_dir, f"spans-{a.workload}.npz"))
        else:
            setup_s = setup_time(SETUP_SAMPLES)
            result = run_worker(calls, a.seconds, 0, "")
        ev = evaluate(calls, result, refs)
        if a.trace:
            metrics = per_layer(result, ev, imports)
            check_names(metrics, declared_layer)
        else:
            metrics = end_to_end(result, ev, setup_s)
            check_names(metrics, declared_e2e)
    except (BenchError, reference.ReferenceError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for v, out in ev["unexpected"][:10]:
        print(f"unexpected failure: {json.dumps(v)} -> {json.dumps(out)[:300]}", file=sys.stderr)
    line = {"correct": not ev["unexpected"], "attempted": ev["attempted"],
            "failed": ev["failed"], "metrics": metrics}
    detail = dict(line, workload=a.workload, seed=a.seed, seconds=a.seconds,
                  round_walls=[[r["traced"], r["wall_s"]] for r in result["rounds"]])
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
