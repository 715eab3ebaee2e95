import functools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parwhit.gz.whittaker
from parwhit import cli
from parwhit.cli import (COMMANDS, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_VERIFY, build_parser,
                         main)
from parwhit.gz.whittaker import verify_left_whittaker
from parwhit.spectral import SpectralData

from oracles import BESSEL_REFERENCE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRunConfig:
    def test_bad_method(self):
        assert main(["eval", "--method", "simpson"]) == EXIT_CONFIG

    def test_bad_float_list_exit2(self, capsys):
        assert main(["eval", "--lambda", "1,a"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot parse float list")

    #: per command, one flag it does not read
    UNREAD = {"eval": ("--format", "csv"), "asympt": ("--seed", "3"), "verify": ("--x", "1"),
              "sweep": ("--x", "1"), "xval": ("--method", "mb")}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_reads_exactly_its_flags(self, capsys, command):
        # the namespace holds the command and its declared flags, nothing else
        dests = {"lambda": "lam", "x-grid": "x_grid"}
        declared = {dests.get(flag, flag) for flag in COMMANDS[command][1].split()}
        assert set(vars(build_parser().parse_args([command]))) == declared | {"command"}
        # a flag the command does not read is refused, not silently ignored
        unread = self.UNREAD[command]
        assert main([command, "--m", "2", "--N", "3", *unread]) == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "asympt", "xval", "sweep"])
    def test_value_commands_refuse_an_invalid_instance_exit2(self, capsys, command):
        # sweep too, with its empty default grid: the instance is checked before any x
        assert main([command, "--m", "3", "--N", "2"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: need 1 <= m < N, got m=3, N=2\n"


class TestRecord:
    def test_record_keys(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--N", "3", "--lambda", "0.7,0,-0.9",
                        "--x", "-2", "--method", "both")
        assert code == EXIT_OK
        records = json.loads(out)["records"]
        assert [r["method"] for r in records] == ["mb", "residue"]
        for rec in records:
            assert set(rec) == {"inputs", "method", "value", "error_estimate", "wall_time",
                                "library_version", "diagnostics"}
        assert set(records[0]["diagnostics"]) == {"lines", "half_extent", "nodes_per_dim"}

    @pytest.mark.parametrize("m,N,lam", [(1, 3, (0.7, 0.0, -0.9)), (2, 4, (0.9, 0.3, -0.4, -1.05))])
    @pytest.mark.parametrize("method", ["mb", "residue", "asymptotic"])
    def test_every_route_returns_python_floats(self, m, N, lam, method):
        # a numpy scalar would show in repr as np.float64(...) on one route and not the others
        value, rec = cli._evaluate(SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=-2.0), method)
        assert type(value.log_mag) is float and type(value.phase) is float
        assert type(rec["error_estimate"]) is float

    @pytest.mark.parametrize("argv", [("eval", "--method", "both"), ("asympt",), ("xval",)],
                             ids=["eval", "asympt", "xval"])
    def test_inputs_are_the_instance(self, capsys, argv):
        # no flag outside the instance (a method, a seed) is echoed
        code, out = run(capsys, *argv, "--m", "1", "--N", "3", "--lambda", "0.7,0,-0.9",
                        "--hbar", "1.3", "--x", "-2")
        assert code == EXIT_OK
        instance = {"m": 1, "N": 3, "lambda": [0.7, 0.0, -0.9], "hbar": 1.3, "x": -2.0}
        records = json.loads(out)["records"]
        assert records and all(rec["inputs"] == instance for rec in records)


class TestEval:
    def test_bessel_value(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0,0",
                        "--hbar", "1", "--x", "0", "--method", "mb")
        assert code == EXIT_OK
        payload = json.loads(out)
        rec = payload["records"][0]
        assert rec["value"]["re"] == pytest.approx(BESSEL_REFERENCE[0.0], rel=1e-8)
        assert rec["method"] == "mb"
        assert "log_mag" in rec["value"] and "phase" in rec["value"]

    @pytest.mark.parametrize("hbar,re,log_mag", [("0.05", 8.39286110e-20, None),
                                                 ("1e-3", None, -2009.78933046)])
    def test_small_hbar_default_instance(self, capsys, hbar, re, log_mag):
        # 2h K_0(2/h): the line through the saddle sees no e^{-2/h} cancellation
        code, out = run(capsys, "eval", "--hbar", hbar)
        assert code == EXIT_OK
        value = json.loads(out)["records"][0]["value"]
        if re is not None:
            assert value["re"] == pytest.approx(re, rel=1e-9)
        else:
            assert "re" not in value and value["log_mag"] == pytest.approx(log_mag, abs=1e-8)

    def test_mb_records_carry_the_contour(self, capsys):
        from parwhit import SpectralData, auto_contour
        s = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.0, x=-4.0)
        c = auto_contour(s, 1e-9)
        code, out = run(capsys, "eval", "--m", "2", "--N", "4",
                        "--lambda", "0.9,0.4,-0.3,-1.15", "--x", "-4")
        assert code == EXIT_OK
        assert json.loads(out)["records"][0]["diagnostics"] == {
            "lines": list(c.lines), "half_extent": c.half_extent, "nodes_per_dim": c.nodes_per_dim}

    def test_residue_domain_error_exit3(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--x", "1", "--method", "residue")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["type"] == "DomainError"

    def test_both_discrepancy(self, capsys):
        code, out = run(capsys, "eval", "--m", "2", "--N", "4",
                        "--lambda", "0.9,0.4,-0.3,-1.15", "--x", "-4", "--method", "both")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["discrepancy"] <= 1e-6
        assert len(payload["records"]) == 2

    def test_uncertified_residue_series_exit3(self, capsys):
        code, out = run(capsys, "eval", "--m", "3", "--N", "5",
                        "--lambda", "0.62,0.31,0,-0.33,-0.67", "--hbar", "0.1", "--x=-1",
                        "--method", "residue")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["type"] == "DomainError"

    def test_residue_records_carry_series_diagnostics(self, capsys):
        from parwhit import SpectralData, eval_residue_series
        lam = (0.9, 0.4, -0.3, -1.15)
        res = eval_residue_series(SpectralData(m=2, N=4, lam=lam, hbar=1.0, x=-4.0))
        want = {"orders_summed": res.orders_summed, "terms": res.terms}
        for argv in (("eval", "--method", "both"), ("xval",)):
            code, out = run(capsys, *argv, "--m", "2", "--N", "4",
                            "--lambda", "0.9,0.4,-0.3,-1.15", "--x", "-4")
            assert code == EXIT_OK
            by_method = {r["method"]: r for r in json.loads(out)["records"]}
            assert by_method["residue"]["diagnostics"] == want
            assert set(by_method["mb"]["diagnostics"]) == {"lines", "half_extent", "nodes_per_dim"}

    def test_config_error_exit2(self, capsys):
        code, _ = run(capsys, "eval", "--m", "3", "--N", "2")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("m,N,lam", [
        (3, 4, "0.9,0.3,-0.4,-1.05"),               # N < 2m - 1: the integrand decays too slowly
        (4, 6, "1.31,0.86,0.37,-0.08,-0.61,-1.17"),  # m > 3: beyond the validated estimate
    ])
    def test_shape_the_quadrature_does_not_serve_exit3(self, capsys, m, N, lam):
        code, out = run(capsys, "eval", "--m", str(m), "--N", str(N), "--lambda", lam,
                        "--x", "-1", "--method", "mb")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["type"] in ("QuadratureError", "DeskScaleError")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_contour_node_cap_exit3(self, capsys):
        # at x = 1e308 the contour would need ~1e307 nodes per dimension
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0.3,-0.2",
                        "--x", "1e308")
        assert code == EXIT_DOMAIN
        assert "cap" in json.loads(out)["error"]["message"]

    def test_singular_column_matrix_exit3(self, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "slogdet", lambda M: (0.0, -np.inf))
        code, out = run(capsys, "eval", "--m", "2", "--N", "4", "--lambda", "0.9,0.4,-0.3,-1.15",
                        "--x", "-2", "--method", "mb")
        assert code == EXIT_DOMAIN
        error = json.loads(out)["error"]
        assert error["type"] == "QuadratureError" and "singular" in error["message"]

    def test_saddle_beyond_reach_exit3(self, capsys):
        # at x = 100 the saddle lies near e^50, where log W holds terms of about e^55
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0.3,-0.2",
                        "--x", "100")
        assert code == EXIT_DOMAIN
        message = json.loads(out)["error"]["message"]
        assert "saddle" in message and "reach" in message and "estimate" not in message


class TestAsympt:
    def test_closed_form(self, capsys):
        code, out = run(capsys, "asympt", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--x", "-5")
        assert code == EXIT_OK
        rec = json.loads(out)["records"][0]
        expect = math.sqrt(math.pi) * (math.exp(2.5) - 2.0)
        assert rec["value"]["re"] == pytest.approx(expect, rel=1e-12)


class TestSweep:
    def test_ratio_column_approaches_one(self, capsys):
        code, out = run(capsys, "sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--method", "mb", "--x-grid=-2,-4,-6,-8,-10,-12")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        ratios = [abs(r["ratio_to_asymptotic"] - 1.0) for r in rows]
        assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        assert ratios[-1] <= 1e-3

    def test_empty_grid_ok(self, capsys):
        code, out = run(capsys, "sweep", "--m", "1", "--N", "2", "--lambda", "0,0")
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == []

    def test_row_level_error_keeps_going(self, capsys):
        code, out = run(capsys, "sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--method", "residue", "--x-grid=-2,1,-4")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert "DomainError" in rows[1]["error"]

    def test_non_finite_floats_are_strict_json_null(self, capsys):
        code, out = run(capsys, "sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--x-grid=nan,1e400")
        assert code == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rows = json.loads(out, parse_constant=reject)["rows"]
        assert [r["x"] for r in rows] == [None, None]
        assert all(r["error"].startswith("ConfigError: x must be finite") for r in rows)

    def test_undefined_asymptotic_keeps_the_values(self, capsys):
        # lambda = (0, 0) is not generic: the asymptotic raises, the values are still served
        code, out = run(capsys, "sweep", "--x-grid=-1,0,1")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert [r["x"] for r in rows] == [-1.0, 0.0, 1.0]
        for row in rows:
            _, out = run(capsys, "eval", "--x", str(row["x"]))
            (rec,) = json.loads(out)["records"]
            assert {k: row[k] for k in rec["value"]} == rec["value"]
            assert row["error_estimate"] == rec["error_estimate"]
            assert row["ratio_to_asymptotic"] is None and row["error"] == ""
        _, out = run(capsys, "sweep", "--x-grid=-1", "--format", "csv")
        assert out.splitlines()[1].endswith(",,")   # ratio_to_asymptotic and error empty

    @pytest.mark.parametrize("argv,message", [
        (("--m", "3", "--N", "2", "--x-grid=-1"), "need 1 <= m < N, got m=3, N=2"),
        (("--lambda=0.3", "--x-grid=-1"), "lambda must have length N=2, got 1"),
        (("--hbar", "-1", "--x-grid=-1"), "hbar must be a finite real > 0, got -1.0"),
    ], ids=["m>=N", "short-lambda", "negative-hbar"])
    def test_invalid_instance_exit2(self, capsys, argv, message):
        # an invalid instance fails the command, not its rows
        assert main(["sweep", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_rows_refuse_as_eval_refuses(self, capsys, x):
        # a row of a refused method carries eval's refusal, a served row eval's value
        inst = ("--m", "1", "--N", "2", "--lambda", "0.5,0", "--method", "both")
        _, out = run(capsys, "eval", *inst, "--x", str(x))
        ev = json.loads(out)
        records = {rec["method"]: rec for rec in ev["records"]}
        refusals = {r["method"]: r["error"] for r in ev.get("refusals", [])}
        code, out = run(capsys, "sweep", *inst, f"--x-grid={x}")
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert [r["method"] for r in rows] == ["mb", "residue"]
        assert set(records) | set(refusals) == {"mb", "residue"}
        for row in rows:
            if row["method"] in refusals:
                error = refusals[row["method"]]
                assert row["error"] == f"{error['type']}: {error['message']}"
                assert set(row) == {"x", "method", "error"}
            else:
                rec = records[row["method"]]
                assert {k: row[k] for k in rec["value"]} == rec["value"]
                assert row["error_estimate"] == rec["error_estimate"] and row["error"] == ""
        assert bool(refusals) == (x > 0)    # the residue series refuses x >= 0

    def test_csv_output(self, capsys):
        code, out = run(capsys, "sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                        "--method", "mb", "--x-grid=-2,-3", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("x,method,log_mag")
        assert len(lines) == 3

    def test_csv_rejected_outside_sweep(self, capsys):
        code, _ = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0,0",
                      "--format", "csv")
        assert code == EXIT_CONFIG


class TestXval:
    def test_three_way_crosscheck(self, capsys):
        code, out = run(capsys, "xval", "--m", "1", "--N", "3",
                        "--lambda", "0.7,0,-0.9", "--x", "-5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["discrepancies"]["mb/residue"] <= 1e-8
        methods = {r["method"] for r in payload["records"]}
        assert methods == {"mb", "residue", "asymptotic"}

    def test_refused_evaluators_keep_the_served_value(self, capsys):
        # at the default lambda = (0, 0) the residue series and the asymptotic refuse the
        # non-generic spectrum, and the quadrature's value is still served: eval's, bit for bit
        _, out = run(capsys, "eval", "--m", "1", "--N", "2", "--x", "-1")
        (ev,) = json.loads(out)["records"]
        code, out = run(capsys, "xval", "--m", "1", "--N", "2", "--x", "-1")
        assert code == EXIT_OK
        payload = json.loads(out)
        (mb,) = payload["records"]
        assert dict(mb, wall_time=0.0) == dict(ev, wall_time=0.0)
        residue, asym = payload["refusals"]
        assert residue == {"method": "residue", "error": {"type": "GenericityError",
                                                          "message": residue["error"]["message"]}}
        assert asym["method"] == "asymptotic" and asym["error"]["type"] == "PoleError"
        assert payload["discrepancies"] == {}

    def test_no_refusals_key_when_every_evaluator_serves(self, capsys):
        _, out = run(capsys, "xval", "--m", "1", "--N", "3", "--lambda", "0.7,0,-0.9", "--x", "-5")
        assert "refusals" not in json.loads(out)

    def test_no_evaluator_serves_exit3(self, capsys):
        # the quadrature hits its node cap and the asymptotic a pole: the first refusal is reported
        code, out = run(capsys, "xval", "--x", "1e308")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["type"] == "QuadratureError"

    def test_eval_both_keeps_the_quadrature_when_the_series_refuses(self, capsys):
        _, out = run(capsys, "eval", "--m", "1", "--N", "2", "--x", "-1")
        (ev,) = json.loads(out)["records"]
        code, out = run(capsys, "eval", "--method", "both", "--m", "1", "--N", "2", "--x", "-1")
        assert code == EXIT_OK
        payload = json.loads(out)
        (mb,) = payload["records"]
        assert dict(mb, wall_time=0.0) == dict(ev, wall_time=0.0)
        assert [(r["method"], r["error"]["type"]) for r in payload["refusals"]] == [
            ("residue", "GenericityError")]
        assert "discrepancy" not in payload

    def test_xval_and_sweep_agree_with_eval_and_asympt(self, capsys):
        from parwhit import LogComplex
        inst = ("--m", "2", "--N", "4", "--lambda", "0.9,0.4,-0.3,-1.15")
        _, out = run(capsys, "eval", *inst, "--x", "-4", "--method", "both")
        ev = json.loads(out)
        _, out = run(capsys, "xval", *inst, "--x", "-4")
        xv = json.loads(out)
        _, out = run(capsys, "asympt", *inst, "--x", "-4")
        asym = json.loads(out)["records"][0]["value"]
        _, out = run(capsys, "sweep", *inst, "--x-grid=-4", "--method", "both")
        rows = json.loads(out)["rows"]

        def timeless(records):
            return [dict(r, wall_time=0.0) for r in records]

        assert timeless(xv["records"][:2]) == timeless(ev["records"])
        assert xv["records"][2]["method"] == "asymptotic"
        assert xv["discrepancies"]["mb/residue"] == ev["discrepancy"]
        assert [r["method"] for r in rows] == ["mb", "residue"]
        for row in rows:
            ratio = (LogComplex(row["log_mag"], row["phase"])
                     / LogComplex(asym["log_mag"], asym["phase"]))
            assert row["ratio_to_asymptotic"] == math.exp(ratio.log_mag) * math.cos(ratio.phase)


class TestVerify:
    def test_default_passes_and_deterministic(self, capsys):
        code1, out1 = run(capsys, "verify", "--m", "2", "--N", "4", "--seed", "11")
        code2, out2 = run(capsys, "verify", "--m", "2", "--N", "4", "--seed", "11")
        assert code1 == EXIT_OK and code2 == EXIT_OK
        assert out1 == out2  # byte identical
        payload = json.loads(out1)
        assert payload["passed"] is True
        assert {s["suite"] for s in payload["suites"]} == {
            "combin-identities", "gz-operators", "left-whittaker", "right-support"}

    def test_perturbation_fails_left_suite_exit4(self, capsys, monkeypatch):
        monkeypatch.setattr(parwhit.gz.whittaker, "verify_left_whittaker",
                            functools.partial(verify_left_whittaker, perturb=1e-6))
        code, out = run(capsys, "verify", "--m", "2", "--N", "4", "--seed", "11")
        assert code == EXIT_VERIFY
        payload = json.loads(out)
        suites = {s["suite"]: s for s in payload["suites"]}
        assert not suites["left-whittaker"]["passed"]
        assert suites["combin-identities"]["passed"]

    def test_m1_rejected(self, capsys):
        code, _ = run(capsys, "verify", "--m", "1", "--N", "3")
        assert code == EXIT_CONFIG

    def test_negative_seed_exit2(self, capsys):
        code = main(["verify", "--m", "2", "--N", "3", "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: seed must be >= 0")

    @pytest.mark.parametrize("hbar", ["inf", "0", "-1"])
    def test_bad_hbar_exit2(self, capsys, hbar):
        code = main(["verify", "--m", "2", "--N", "4", "--hbar", hbar])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: hbar must be")

    @pytest.mark.parametrize("hbar", ["1e300", "1e-300"])
    def test_overflowing_hbar_domain_error_exit3(self, capsys, hbar):
        # the test functions (1e300) and psi_L (1e-300) leave the double range
        code, out = run(capsys, "verify", "--m", "2", "--N", "4", "--hbar", hbar)
        assert code == EXIT_DOMAIN
        error = json.loads(out)["error"]
        assert error["type"] == "DomainError"
        assert f"hbar = {float(hbar):g}" in error["message"]


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "res.json"
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0,0",
                        "--out", str(target))
        assert code == EXIT_OK and out == ""
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1

    def test_out_into_missing_directory_exit2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "res.json"
        code = main(["eval", "--m", "1", "--N", "2", "--lambda", "0,0", "--out", str(target)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"config error: cannot write {target}")


def run_process(*argv, stdout=subprocess.PIPE):
    """`python -m parwhit.cli argv` in a fresh interpreter: (exit code, stdout, stderr).

    PYTHONUNBUFFERED is dropped, so stdout is block-buffered and the exit must flush it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    p = subprocess.run([sys.executable, "-m", "parwhit.cli", *argv], stdout=stdout,
                       stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    return p.returncode, p.stdout, p.stderr


class TestProcess:
    """The `__main__` path, which ends the process with os._exit once the output is flushed."""

    def test_exit_codes(self):
        code, out, _ = run_process("eval", "--m", "1", "--N", "2", "--lambda", "0,0")
        assert code == EXIT_OK
        assert json.loads(out)["records"][0]["value"]["re"] > 0
        code, out, err = run_process("eval", "--lambda", "1,a")
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("config error: cannot parse float list")
        code, out, _ = run_process("eval", "--m", "1", "--N", "2", "--x", "100")
        assert code == EXIT_DOMAIN
        assert json.loads(out)["error"]["type"] == "QuadratureError"

    def test_output_beyond_the_pipe_buffer_arrives_whole(self):
        grid = [-6.0 + 0.01 * i for i in range(600)]
        code, out, _ = run_process("sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0",
                                   "--method", "mb", "--format", "csv",
                                   "--x-grid=" + ",".join(map(repr, grid)))
        assert code == EXIT_OK
        assert len(out.encode()) > 65536 and out.endswith("\n")
        lines = out.splitlines()
        assert lines[0].startswith("x,method,log_mag") and len(lines) == 1 + len(grid)
        assert [float(line.split(",")[0]) for line in lines[1:]] == grid
        assert all(line.split(",")[-1] == "" for line in lines[1:])

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        argv = ("sweep", "--m", "1", "--N", "2", "--lambda", "0.5,0", "--x-grid=-2,-3")
        _, out, _ = run_process(*argv)
        target = tmp_path / "sweep.json"
        code, to_file, _ = run_process(*argv, "--out", str(target))
        assert code == EXIT_OK and to_file == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_undelivered_output_is_not_exit0(self):
        # the flush fails, so the normal exit runs and reports it
        with open("/dev/full", "w") as full:
            code, _, err = run_process("eval", stdout=full)
        assert code not in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_VERIFY)
        assert "No space left on device" in err


class TestEvalDeterminism:
    def test_identical_config_identical_json_apart_from_wall_time(self, capsys):
        args = ("eval", "--m", "1", "--N", "3", "--lambda", "0.7,0,-0.9",
                "--x", "-2", "--method", "both")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        p1, p2 = json.loads(out1), json.loads(out2)
        for rec in p1["records"] + p2["records"]:
            rec["wall_time"] = 0.0
        assert p1 == p2


def _readme_commands() -> list[str]:
    """The parwhit lines of the README's CLI and experiment-script blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^## (?:CLI|Experiment scripts)\n.*?^```\n(.*?)^```", text,
                        re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines() if line.startswith("parwhit ")]


def test_readme_commands_run(capsys):
    # the docs advertise only flags the parser accepts, in calls that succeed
    commands = _readme_commands()
    assert len(commands) >= 7
    for line in commands:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
