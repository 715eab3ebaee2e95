"""The benchmark under perfbench/ binds library names; a missing one fails here.

perfbench/tracing.py rebinds public functions (and scipy's loggamma where
gammafns calls it as `_loggamma`) in the loaded parwhit modules, and
perfbench/worker.py calls the library through module attributes.  Both are
loaded by path and run on each workload's reduced call set; nothing under
perfbench/ is written.  scripts/estimates.py loads run.py and worker.py the
same way and is run on two seeds.
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
