"""Runs the rounds of one workload and reports raw outputs; no checking here.

Started by run.py as a fresh interpreter with the program's sources on
PYTHONPATH, so its peak resident memory belongs to the workload alone (the
mpmath reference lives in the parent).  The plan arrives as JSON on stdin and
the result leaves as one JSON line on stdout.

A round runs every call of the workload once, in order.  Rounds repeat while
the next one is expected to end within the time budget; at least one runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
import time

from settle import Settle

#: calls shorter than this get enough samples from the rounds alone; longer
#: ones first wait for the host to run at full speed
SETTLE_MIN_CALL_S = 0.2


def _value(v) -> dict:
    return {"log_mag": v.log_mag, "phase": v.phase}


def _error(exc) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


class Runner:
    def __init__(self, in_process: bool):
        """in_process=False runs CLI calls as subprocesses and imports nothing here."""
        self.in_process = in_process
        if in_process:
            import parwhit
            import parwhit.cli  # noqa: F401
            import parwhit.gz.identity  # noqa: F401
            import parwhit.gz.whittaker  # noqa: F401
            self.parwhit = parwhit

    def spectral(self, c):
        return self.parwhit.SpectralData(m=c["m"], N=c["N"], lam=tuple(c["lam"]),
                                         hbar=c["hbar"], x=c["x"])

    def quad(self, c):
        mbquad = self.parwhit.mbquad
        try:
            s = self.spectral(c)
            r = mbquad.eval_mb(s, mbquad.auto_contour(s, 1e-9))
        except self.parwhit.ParwhitError as exc:
            return [_error(exc)]
        return [dict(_value(r.value), est=r.error_estimate)]

    def series(self, c):
        pw = self.parwhit
        s = self.spectral(c)
        try:
            r = pw.residues.eval_residue_series(s)
            out = [dict(_value(r.value), est=r.tail_estimate)]
        except pw.ParwhitError as exc:
            out = [_error(exc)]
        try:
            out.append(_value(pw.asympt.leading_asymptotic(s)))
        except pw.ParwhitError as exc:
            out.append(_error(exc))
        return out

    def cli(self, c):
        if not self.in_process:
            p = subprocess.run([sys.executable, "-m", "parwhit.cli", *c["argv"]],
                               capture_output=True, text=True, timeout=120)
            return [{"rc": p.returncode, "out": p.stdout}]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.parwhit.cli.main(list(c["argv"]))
        return [{"rc": rc, "out": buf.getvalue()}]

    def gz(self, c):
        gz = self.parwhit.gz
        mod = gz.identity if c["fn"].startswith("check_") else gz.whittaker
        try:
            res = getattr(mod, c["fn"])(*c["args"], **c.get("kwargs", {}))
        except self.parwhit.ParwhitError as exc:
            return [_error(exc)] * len(c["values"])
        if isinstance(res, list):
            return [{"deviation": r.deviation} for r in res]
        return [{"deviation": res.max_deviation, "passed": res.passed}]


def main() -> int:
    plan = json.load(sys.stdin)
    calls, budget, traced = plan["calls"], plan["seconds"], plan["trace"]
    cli_workload = any(c["kind"] == "cli" for c in calls)
    settle = Settle()
    runner = Runner(in_process=traced or not cli_workload)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()

    rounds = []
    modes = (False, True) if traced else (False,)
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done = {m: {"traced": m, "call_s": [], "outputs": []} for m in modes}
        for k, c in enumerate(calls):
            # in a traced run each call runs untraced and then traced, back to
            # back, so both timings see the same host speed
            for with_trace in modes:
                if with_trace:
                    tracer.current_op = k
                    tracer.install()
                if rounds and rounds[-1]["call_s"][k] >= SETTLE_MIN_CALL_S:
                    settle()
                tc = time.perf_counter()
                out = getattr(runner, c["kind"])(c)
                done[with_trace]["call_s"].append(time.perf_counter() - tc)
                done[with_trace]["outputs"].append(out)
                if with_trace:
                    tracer.uninstall()
                    if c["kind"] == "cli":
                        tracer.counters["cli.output.bytes"] += len(out[0]["out"].encode())
        for m in modes:
            done[m]["wall_s"] = sum(done[m]["call_s"])
            rounds.append(done[m])
        now = time.perf_counter()
        if now - t_start + (now - t0) > budget:
            break

    result = {
        "rounds": rounds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {"self": tracer.self_times(), "counters": tracer.counters}
        tracer.dump(plan["trace_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
