import json
import math

import pytest

from parwhit.cli import (_COMMANDS, EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_VERIFY,
                         ResultRecord, RunConfig, build_parser, main)
from parwhit.errors import ConfigError

from oracles import BESSEL_REFERENCE


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRunConfig:
    def test_unknown_config_keys_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"m": 1, "bogus_key": 3}))
        with pytest.raises(ConfigError, match="bogus_key"):
            RunConfig.from_sources({"command": "eval"}, str(p))

    def test_precedence_cli_over_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"m": 1, "N": 3, "lam": [0.5, 0.0, -0.5], "x": -1.0}))
        cfg = RunConfig.from_sources({"command": "eval", "x": -2.0}, str(p))
        assert cfg.x == -2.0 and cfg.N == 3

    @pytest.mark.parametrize("argv,cfg", [
        (["sweep"], {"x_grid": None}),
        (["eval"], {"hbar": None}),
        (["eval"], {"hbar": "1"}),
        (["eval"], {"x": "a"}),
        (["eval"], {"nodes_per_dim": "64"}),
        (["eval"], {"lam": [1, "a"]}),
        (["verify", "--m", "2", "--N", "3"], {"seed": None}),
        (["verify", "--m", "2", "--N", "3"], {"samples": None}),
        (["verify", "--m", "2", "--N", "3"], {"perturb_psi_l": None}),
    ])
    def test_mistyped_config_values_exit2(self, tmp_path, capsys, argv, cfg):
        # a wrong-typed file value is a config error, not a traceback from deep inside a command
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(argv + ["--config", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {next(iter(cfg))} must be")

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            RunConfig(command="eval", method="simpson")

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_flags_are_the_config_fields(self, command):
        # every flag but --config sets one RunConfig field, and every field has a flag
        dests = set(vars(build_parser().parse_args([command]))) - {"config"}
        assert dests == RunConfig.field_names()


class TestResultRecord:
    def test_roundtrip_exact(self):
        rec = ResultRecord(
            inputs={"m": 1, "N": 2, "lambda": [0.0, 0.0], "hbar": 1.0, "x": 0.125,
                    "method": "mb", "seed": 7},
            method="mb",
            value={"log_mag": -1.479512368, "phase": 0.0, "re": 0.2277877, "im": 0.0},
            error_estimate=2.5e-9,
            wall_time=0.0123,
        )
        blob = json.dumps(rec.to_dict(), sort_keys=True)
        assert ResultRecord(**json.loads(blob)) == rec

    def test_diagnostics_roundtrip_and_optional(self):
        rec = ResultRecord(
            inputs={"m": 1, "N": 3, "lambda": [0.7, 0.0, -0.9], "hbar": 1.0, "x": -3.0,
                    "method": "residue", "seed": 7},
            method="residue",
            value={"log_mag": 1.25, "phase": 0.0, "re": 3.4903429574618414, "im": 0.0},
            error_estimate=1e-15,
            wall_time=0.001,
            diagnostics={"orders_summed": 8, "terms": 24},
        )
        d = json.loads(json.dumps(rec.to_dict(), sort_keys=True))
        assert d["diagnostics"] == {"orders_summed": 8, "terms": 24}
        assert ResultRecord(**d) == rec
        # the field is optional: a record built without it carries an empty one
        del d["diagnostics"]
        assert ResultRecord(**d).diagnostics == {}


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

    def test_residue_records_carry_series_diagnostics(self, capsys):
        from parwhit import SpectralData, eval_residue_series
        lam = (0.9, 0.4, -0.3, -1.15)
        res = eval_residue_series(SpectralData(m=2, N=4, lam=lam, hbar=1.0, x=-4.0))
        want = {"orders_summed": res.orders_summed, "terms": res.terms}
        for command in ("eval", "xval"):
            code, out = run(capsys, command, "--m", "2", "--N", "4",
                            "--lambda", "0.9,0.4,-0.3,-1.15", "--x", "-4", "--method", "both")
            assert code == EXIT_OK
            by_method = {r["method"]: r for r in json.loads(out)["records"]}
            assert by_method["residue"]["diagnostics"] == want
            assert by_method["mb"]["diagnostics"] == {}

    def test_config_error_exit2(self, capsys):
        code, _ = run(capsys, "eval", "--m", "3", "--N", "2")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("m,N,lam", [
        (3, 4, "0.9,0.3,-0.4,-1.05"),               # N < 2m - 1: the integrand decays too slowly
        (4, 6, "1.31,0.86,0.37,-0.08,-0.61,-1.17"),  # m > 3: beyond the contour probe
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

    def test_xval_and_sweep_agree_with_eval_and_asympt(self, capsys):
        from parwhit import LogComplex
        inst = ("--m", "2", "--N", "4", "--lambda", "0.9,0.4,-0.3,-1.15")
        _, out = run(capsys, "eval", *inst, "--x", "-4", "--method", "both")
        ev = json.loads(out)
        _, out = run(capsys, "xval", *inst, "--x", "-4", "--method", "both")
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

    def test_perturbation_fails_left_suite_exit4(self, capsys):
        code, out = run(capsys, "verify", "--m", "2", "--N", "4", "--seed", "11",
                        "--perturb-psi-l", "1e-6")
        assert code == EXIT_VERIFY
        payload = json.loads(out)
        suites = {s["suite"]: s for s in payload["suites"]}
        assert not suites["left-whittaker"]["passed"]
        assert suites["combin-identities"]["passed"]

    def test_m1_rejected(self, capsys):
        code, _ = run(capsys, "verify", "--m", "1", "--N", "3")
        assert code == EXIT_CONFIG

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


class TestContourOverrides:
    def test_full_manual_contour_bypasses_auto_search(self, capsys):
        # full overrides must work even where the automatic truncation
        # search would give up (slow-decay instance)
        code, out = run(capsys, "eval", "--m", "3", "--N", "4",
                        "--lambda", "0.9,0.3,-0.4,-1.05", "--x", "-1",
                        "--epsilon", "1.4", "--half-extent", "12", "--nodes-per-dim", "97",
                        "--method", "mb")
        # a value is produced (convergence check may flag it; both are fine here)
        assert code in (EXIT_OK, EXIT_DOMAIN)
        payload = json.loads(out)
        assert ("records" in payload) or (payload.get("error", {}).get("type") == "QuadratureError")

    def test_partial_override_fills_from_auto(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--N", "2", "--lambda", "0,0",
                        "--nodes-per-dim", "301")
        assert code == EXIT_OK
        rec = json.loads(out)["records"][0]
        assert rec["value"]["re"] == pytest.approx(BESSEL_REFERENCE[0.0], rel=1e-8)
