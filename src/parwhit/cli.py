"""Command-line front end: evaluation, verification, sweeps, cross-validation.

Subcommands:
    eval    one Psi value by quadrature and/or residue series
    asympt  the leading asymptotic coset sum
    verify  the operator/identity verification suites (deterministic per seed)
    sweep   a table over an x grid with the value/asymptotic ratio column
    xval    cross-validation of all applicable evaluators at one instance

The flags are the only input.  COMMANDS names each subcommand's handler
and the flags it reads; a flag the command does not read is refused
(exit 2), and the parsed namespace is the handler's whole configuration.
JSON is the canonical output format, strict: a non-finite float is written
as null.  CSV is offered for sweeps.  Exit codes: 0 success,
2 configuration error, 3 numerical-domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from typing import NoReturn

from . import __version__
from .asympt import leading_asymptotic
from .errors import (ConfigError, DomainError, ParwhitError, QuadratureError,
                     VerificationError)
from .logcomplex import LogComplex, rescaled_sum
from .mbquad import auto_contour, eval_mb
from .residues import eval_residue_series
from .spectral import SpectralData

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

DEFAULT_SEED = 20177
SCHEMA_VERSION = 1
#: boundary decay the automatic contour truncation must reach
CONTOUR_TOL = 1e-9


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


#: every flag's argparse keywords, default included; a command reads the ones COMMANDS lists
_FLAGS = {
    "m": dict(type=int, default=1),
    "N": dict(type=int, default=2),
    "lambda": dict(dest="lam", type=_parse_float_list, default=None,
                   help="comma-separated list of N reals (default zeros(N))"),
    "hbar": dict(type=float, default=1.0),
    "x": dict(type=float, default=0.0),
    "method": dict(choices=("mb", "residue", "both"), default="mb"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "x-grid": dict(type=_parse_float_list, default=(),
                   help="comma-separated x values; use --x-grid=-2,-4 for negative leads"),
    "out": dict(default=None),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _spectral(args: argparse.Namespace, x: float) -> SpectralData:
    lam = args.lam if args.lam is not None else tuple(0.0 for _ in range(args.N))
    return SpectralData(m=args.m, N=args.N, lam=lam, hbar=args.hbar, x=x)


def _value_payload(v: LogComplex) -> dict:
    """Emit (log_mag, phase) always, re/im only when representable."""
    out = {"log_mag": v.log_mag, "phase": v.phase}
    if v.is_zero:
        out.update(re=0.0, im=0.0)
    elif abs(v.log_mag) < 700.0:
        z = v.to_complex()
        out.update(re=z.real, im=z.imag)
    return out


def _evaluate(s: SpectralData, method: str) -> tuple[LogComplex, dict]:
    """One value by method ("mb", "residue" or "asymptotic") and its timed record."""
    t0 = time.perf_counter()
    diagnostics = {}
    if method == "mb":
        res = eval_mb(s, auto_contour(s, CONTOUR_TOL))
        value, err = res.value, res.error_estimate
        diagnostics = dataclasses.asdict(res.config)     # lines, half_extent, nodes_per_dim
    elif method == "residue":
        res = eval_residue_series(s)
        value, err = res.value, res.tail_estimate
        diagnostics = {"orders_summed": res.orders_summed, "terms": res.terms}
    else:
        value, err = leading_asymptotic(s), 0.0
    inputs = {"m": s.m, "N": s.N, "lambda": list(s.lam), "hbar": s.hbar, "x": s.x}
    return value, {"inputs": inputs, "method": method,
                   "value": _value_payload(value), "error_estimate": err,
                   "wall_time": time.perf_counter() - t0, "library_version": __version__,
                   "diagnostics": diagnostics}


def _value_methods(args: argparse.Namespace, x: float) -> list[str]:
    """The evaluators a command runs at x, in record order (sweep takes eval's list)."""
    if args.command == "asympt":
        return ["asymptotic"]
    if args.command == "xval":
        return ["mb", "residue", "asymptotic"] if x < 0 else ["mb", "asymptotic"]
    return ["mb", "residue"] if args.method == "both" else [args.method]


def _rel_discrepancy(a: LogComplex, b: LogComplex) -> float:
    if a.is_zero and b.is_zero:
        return 0.0
    if a.is_zero or b.is_zero:
        return math.inf
    diff = rescaled_sum([a, -b])
    return math.exp(diff.log_mag - a.log_mag) if not diff.is_zero else 0.0


def cmd_value(args: argparse.Namespace) -> dict:
    """eval, asympt and xval: one record per method and the pairwise discrepancies."""
    s = _spectral(args, args.x)
    values, records = {}, []
    for method in _value_methods(args, s.x):
        values[method], rec = _evaluate(s, method)
        records.append(rec)
    discrepancies = {f"{a}/{b}": _rel_discrepancy(values[a], values[b])
                     for a, b in itertools.combinations(values, 2)}
    out = {"schema": SCHEMA_VERSION, "command": args.command, "records": records}
    if args.command == "xval":
        out["discrepancies"] = discrepancies
    elif discrepancies:
        out["discrepancy"] = discrepancies["mb/residue"]
    return out


def cmd_sweep(args: argparse.Namespace) -> dict:
    rows = []
    for x in args.x_grid:
        asym = None     # shared by the method rows of this x
        for method in _value_methods(args, x):
            row = {"x": x, "method": method}
            try:
                s = _spectral(args, x)
                value, rec = _evaluate(s, method)
                if asym is None:
                    asym = leading_asymptotic(s)
                ratio = value / asym
                row.update(rec["value"])
                row["error_estimate"] = rec["error_estimate"]
                row["ratio_to_asymptotic"] = (
                    math.exp(ratio.log_mag) * math.cos(ratio.phase) if ratio.log_mag < 700 else math.nan
                )
                row["error"] = ""
            except ParwhitError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return {"schema": SCHEMA_VERSION, "command": "sweep", "rows": rows}


_SWEEP_COLUMNS = ["x", "method", "log_mag", "phase", "re", "im",
                  "error_estimate", "ratio_to_asymptotic", "error"]


def _sweep_csv(payload: dict) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in payload["rows"]:
        writer.writerow({k: row.get(k, "") for k in _SWEEP_COLUMNS})
    return buf.getvalue()


def _operator_suite(args: argparse.Namespace) -> dict:
    from .gz.identity import check_brackets, check_build_EnN
    from .gz.whittaker import VERIFY_TOL
    checks = check_brackets(args.N, args.hbar, 5, 5, args.seed)
    checks += check_build_EnN(args.N, args.hbar, 5, 5, args.seed + 1)
    worst = max(c.deviation for c in checks)
    return {"suite": "gz-operators", "passed": worst <= VERIFY_TOL, "max_deviation": worst,
            "tol": VERIFY_TOL, "checks": [{"name": c.name, "deviation": c.deviation} for c in checks]}


def cmd_verify(args: argparse.Namespace) -> dict:
    if not 2 <= args.m < args.N:
        raise ConfigError(f"verify needs 2 <= m < N, got m={args.m}, N={args.N}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    # the GZ layer is loaded here, not at import, so that the other commands never compile it
    from .gz.combin import check_combin_identities
    from .gz.whittaker import verify_left_whittaker, verify_right_support_relations
    worst, tol = check_combin_identities(args.seed), 1e-11
    suites = [{"suite": "combin-identities", "passed": worst <= tol, "max_deviation": worst, "tol": tol},
              _operator_suite(args)]
    left = verify_left_whittaker(args.m, args.N, samples=8, seed=args.seed, hbar=args.hbar)
    right = verify_right_support_relations(args.m, args.N, samples=20, seed=args.seed, hbar=args.hbar)
    suites += [left.to_dict(), right.to_dict()]
    passed = all(s["passed"] for s in suites)
    return {"schema": SCHEMA_VERSION, "command": "verify", "seed": args.seed,
            "m": args.m, "N": args.N, "hbar": args.hbar,
            "suites": suites, "passed": passed}


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if vars(args).get("format") == "csv":      # only sweep reads --format
        text = _sweep_csv(payload)
    else:
        text = json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


#: each subcommand, in help order: its handler and the flags it reads
COMMANDS = {
    "eval": (cmd_value, "m N lambda hbar x method out"),
    "asympt": (cmd_value, "m N lambda hbar x out"),
    "verify": (cmd_verify, "m N hbar seed out"),
    "sweep": (cmd_sweep, "m N lambda hbar method x-grid out format"),
    "xval": (cmd_value, "m N lambda hbar x out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parwhit",
        description="Parabolic Whittaker function evaluation and verification.",
    )
    parser.add_argument("--version", action="version", version=f"parwhit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)    # or sweep would read --x as --x-grid
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)     # a float list that does not parse: ConfigError
        payload = COMMANDS[args.command][0](args)
        _emit(payload, args)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; preserve those
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, QuadratureError) as exc:
        err = {"schema": SCHEMA_VERSION, "error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True, indent=2))
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if payload.get("command") == "verify" and not payload["passed"]:
        return EXIT_VERIFY
    return EXIT_OK


def run_process(argv: list[str] | None = None) -> NoReturn:
    """The process entry of `python -m parwhit.cli` and the `parwhit` script.

    Runs main(), flushes stdout and stderr and ends the process with
    os._exit, which skips the interpreter's teardown of numpy and scipy
    (40-65 ms a call on 2 vCPUs).  If a flush raises, the output may not
    have been delivered, so the normal exit runs instead and reports the
    failure.
    """
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run_process()
