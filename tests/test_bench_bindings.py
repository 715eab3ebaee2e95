"""The benchmark under perfbench/ binds library names; a missing one fails here.

perfbench/tracing.py rebinds public functions (and scipy's loggamma where
gammafns calls it as `_loggamma`) in the loaded parwhit modules, and
perfbench/worker.py calls the library through module attributes.  Both are
loaded by path and run on each workload's reduced call set; nothing under
perfbench/ is written.  scripts/estimates.py loads run.py and worker.py the
same way and is run on two seeds; scripts/parity.py runs a `quad` and a
`cli-sweep` round in this checkout against itself, bit for bit and within
the estimates.  scripts/bench.py's seed-order values and pairs are checked on
made-up runs.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import parwhit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(parwhit.__file__)))


@pytest.fixture
def bench(monkeypatch):
    """perfbench's tracing, worker and workloads modules, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)     # worker.py imports settle by name
    mods = {}
    for name in ("tracing", "worker", "workloads"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      os.path.join(PERFBENCH, f"{name}.py"))
        mods[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mods[name])
    return mods


def test_tracer_binds_and_worker_runs_every_workload(bench):
    tracing, worker, workloads = bench["tracing"], bench["worker"], bench["workloads"]
    runner = worker.Runner(in_process=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            for call in workloads.build(name, 801, smoke=True):
                getattr(runner, call["kind"])(call)
    finally:
        tracer.uninstall()
    spans = tracer.self_times()
    for name in ("mbquad.eval_mb", "mbquad.auto_contour", "residues.eval_residue_series",
                 "gammafns.loggamma", "asympt.leading_asymptotic", "cli.main",
                 "spectral.require_generic", "gz.check_brackets", "gz.apply"):
        assert spans[name][1] > 0, name
    # gz.shifted.calls counts TriangularArray.shifted, gz.terms the shifts of each applied
    # operator: batches must keep going through both
    for name in ("mbquad.nodes", "residues.orders", "gammafns.loggamma.points",
                 "gz.shifted.calls", "gz.terms"):
        assert tracer.counters[name] > 0, name
    # uninstall restores every binding
    for modname, mod in list(sys.modules.items()):
        if modname == "parwhit" or modname.startswith("parwhit."):
            assert not [k for k, v in vars(mod).items() if hasattr(v, "__wrapped__")], modname


def test_cli_import_loads_scipy_special():
    # run.py times `import parwhit.cli` with -X importtime and needs scipy.special in it
    code = "import sys, parwhit.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "True"


def test_cli_import_loads_no_gz_module():
    # only `verify` reads the GZ layer, so the other commands neither compile nor load it
    code = "import sys, parwhit.cli; print(sorted(m for m in sys.modules if m.startswith('parwhit.gz')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,n", [(("xval",), 4), (("eval", "--method", "both"), 2)],
                         ids=["xval", "eval-both"])
def test_run_counts_a_call_with_a_refused_evaluator_as_failed(bench, capsys, argv, n):
    # at the default lambda = (0, 0) the series (and xval's asymptotic) refuse and the quadrature
    # serves; every record holds a value, so run.py's reader fails the call's values, not itself
    from parwhit.cli import main
    assert main([*argv, "--m", "1", "--N", "2", "--x", "-1"]) == 0
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    call = {"kind": "cli", "argv": list(argv), "values": [{"check": "mb"}] * n}
    assert run.cli_outcomes(call, {"rc": 0, "out": capsys.readouterr().out}) == [
        {"error": "record count"}] * n


def test_estimates_script_checks_two_seeds():
    # scripts/estimates.py runs one round per seed through perfbench's own checks;
    # quad seed 813 holds a row whose error is round-off within 1.5x of the old estimate
    p = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "estimates.py"),
                        "--workload", "quad", "--seeds", "812-813"],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                       timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    lines = p.stdout.splitlines()
    assert json.loads(lines[-1]) == {"workload": "quad", "seeds": "812-813", "served_mb": 20,
                                     "unexpected": 0}
    (smallest,) = [line for line in lines if line.startswith("smallest est/true")]
    assert float(smallest.split()[3].rstrip(",")) >= 5.0


def test_parity_script_finds_this_checkout_equal_to_itself():
    # scripts/parity.py runs the rounds of every named workload once per checkout and
    # compares the outputs bit for bit, with one summary line per workload
    p = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "parity.py"),
                        "--baseline", ROOT, "--workload", "quad", "--workload", "cli-sweep",
                        "--seeds", "801"],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                       timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    assert [json.loads(line) for line in p.stdout.splitlines()[-2:]] == [
        {"workload": "quad", "seeds": "801-801", "calls": 10, "differences": 0},
        {"workload": "cli-sweep", "seeds": "801-801", "calls": 6, "differences": 0}]


def test_parity_within_estimate_finds_this_checkout_within_itself():
    p = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "parity.py"), "--within-estimate",
                        "--baseline", ROOT, "--workload", "quad", "--workload", "cli-sweep",
                        "--seeds", "801"],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                       timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    assert [json.loads(line) for line in p.stdout.splitlines()[-2:]] == [
        {"workload": "quad", "seeds": "801-801", "calls": 10, "differences": 0,
         "largest_change_over_estimate": 0.0},
        {"workload": "cli-sweep", "seeds": "801-801", "calls": 6, "differences": 0,
         "largest_change_over_estimate": 0.0}]


def test_parity_within_estimate_rejects_a_value_moved_beyond_its_estimate(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    spec = importlib.util.spec_from_file_location("parity", os.path.join(ROOT, "scripts", "parity.py"))
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    run = parity._load("run")
    call = {"kind": "quad"}
    contour = [[[1.5], 10.0, 98]]

    def side(log_mag, est, error=None):
        out = {"error": error} if error else {"log_mag": log_mag, "phase": 0.0, "est": est}
        return {"outputs": [out], "contours": contour}

    old = side(-2.0, 1e-10)
    problems, ratio = parity.within_estimate(run, call, side(-2.0 + 0.5e-10, 2e-10), old)
    assert problems == [] and 0.4 < ratio < 0.6
    problems, ratio = parity.within_estimate(run, call, side(-2.0 + 2e-10, 1e-10), old)
    assert len(problems) == 1 and 1.9 < ratio < 2.1
    # a refusal must stay a refusal, with the same text up to its numbers
    refused = side(0, 0, "QuadratureError: quadrature error estimate 2.1e-03 exceeds 1.0e-03")
    assert parity.within_estimate(run, call, refused, old)[0]
    moved = side(0, 0, "QuadratureError: quadrature error estimate 3.5e-03 exceeds 1.0e-03")
    assert parity.within_estimate(run, call, moved, refused)[0] == []
    assert parity.within_estimate(run, call, dict(old, contours=[[[1.5], 10.0, 99]]), old)[0]
    # a CLI call keeps each evaluator's refusal, up to its numbers
    cli = {"kind": "cli", "argv": ["eval"], "values": [{"check": "mb"}] * 2}

    def cli_side(error_type, estimate):
        out = {"schema": 1, "records": [], "refusals": [{"method": "residue", "error": {
            "type": error_type, "message": f"estimate {estimate} exceeds 1e-3"}}]}
        return {"outputs": [{"rc": 0, "out": json.dumps(out)}], "contours": contour}

    assert parity.within_estimate(run, cli, cli_side("DomainError", 2e-3),
                                  cli_side("DomainError", 4e-3))[0] == []
    assert parity.within_estimate(run, cli, cli_side("GenericityError", 2e-3),
                                  cli_side("DomainError", 2e-3))[0]


def test_bench_script_records_pairs_in_seed_order():
    # scripts/bench.py keeps each side's values in seed order and, per metric, the
    # change/parent ratio of each seed's pair and the seeds where the change is better
    spec = importlib.util.spec_from_file_location("scripts_bench",
                                                  os.path.join(ROOT, "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def runs(walls, digits):
        return [{"failed": 0, "attempted": 1, "correct": True,
                 "metrics": {"wall_s": {"value": w, "unit": "s"},
                             "digits_min": {"value": d, "unit": "digits"}}}
                for w, d in zip(walls, digits)]

    names = ["wall_s", "digits_min"]
    change = bench.summarize(runs([2.0, 1.0, 3.0, 2.0], [11.0, 12.0, 10.0, 11.0]), names)
    parent = bench.summarize(runs([4.0, 2.0, 2.0, 2.5], [10.0, 12.0, 11.0, 10.0]), names)
    assert change["metrics"]["wall_s"]["by_seed"] == [2.0, 1.0, 3.0, 2.0]
    assert change["metrics"]["wall_s"]["values"] == [1.0, 2.0, 2.0, 3.0]
    got = bench.pairs(change, parent, {"wall_s": "lower", "digits_min": "higher"})
    assert got["wall_s"] == {"ratios": [0.5, 0.5, 1.5, 0.8], "change_better": 3, "seeds": 4}
    assert got["digits_min"]["change_better"] == 2
