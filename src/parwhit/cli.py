"""Command-line front end: evaluation, verification, sweeps, cross-validation.

Subcommands:
    eval    one Psi value by quadrature and/or residue series
    asympt  the leading asymptotic coset sum
    verify  the operator/identity verification suites (deterministic per seed)
    sweep   a table over an x grid with the value/asymptotic ratio column
    xval    cross-validation of all applicable evaluators at one instance

Configuration precedence is CLI flags > config file (--config, a JSON object
mirroring RunConfig field names) > built-in defaults.  Unknown config keys
are rejected.  JSON is the canonical output format; CSV is offered for
sweeps.  Exit codes: 0 success, 2 configuration error, 3 numerical-domain
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass

from . import __version__
from .asympt import leading_asymptotic
from .errors import (ConfigError, DomainError, ParwhitError, QuadratureError,
                     VerificationError)
from .gz.combin import check_combin_identities
from .gz.identity import check_brackets, check_build_EnN
from .gz.whittaker import VERIFY_TOL, verify_left_whittaker, verify_right_support_relations
from .logcomplex import LogComplex, rescaled_sum
from .mbquad import auto_contour, eval_mb
from .residues import eval_residue_series
from .spectral import ContourConfig, SpectralData

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

DEFAULT_SEED = 20177
SCHEMA_VERSION = 1
#: boundary decay the automatic contour truncation must reach
CONTOUR_TOL = 1e-9

_METHODS = ("mb", "residue", "both")
_FORMATS = ("json", "csv")
_COMMANDS = ("eval", "asympt", "verify", "sweep", "xval")


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


#: value checks by RunConfig field annotation
_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": _is_real,
    "tuple[float, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_real, v)),
}


@dataclass
class RunConfig:
    """Everything a run needs; field names double as the config-file schema."""

    command: str = "eval"
    m: int = 1
    N: int = 2
    lam: tuple[float, ...] | None = None      # defaults to zeros(N)
    hbar: float = 1.0
    x: float = 0.0
    method: str = "mb"
    # contour overrides (None -> auto_contour)
    epsilon: float | None = None
    half_extent: float | None = None
    nodes_per_dim: int | None = None
    # verification
    seed: int = DEFAULT_SEED
    samples: int = 8
    perturb_psi_l: float = 0.0
    # sweep
    x_grid: tuple[float, ...] = ()
    # output
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        # field annotations double as the type schema (config-file values arrive unchecked)
        for f in dataclasses.fields(self):
            kind, _, optional = f.type.partition(" | ")
            v = getattr(self, f.name)
            if not (v is None and optional or _CHECKS[kind](v)):
                raise ConfigError(f"{f.name} must be {kind}{' or null' if optional else ''}, got {v!r}")
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.lam is not None:
            self.lam = tuple(float(v) for v in self.lam)
        self.x_grid = tuple(float(v) for v in self.x_grid)

    def spectral(self, x: float | None = None) -> SpectralData:
        lam = self.lam if self.lam is not None else tuple(0.0 for _ in range(self.N))
        return SpectralData(m=self.m, N=self.N, lam=lam, hbar=self.hbar,
                            x=self.x if x is None else x)

    def contour(self, s: SpectralData) -> ContourConfig:
        """The override fields, any left unset filled from one auto_contour search."""
        overrides = {k: getattr(self, k) for k in ("epsilon", "half_extent", "nodes_per_dim")
                     if getattr(self, k) is not None}
        if len(overrides) == 3:
            return ContourConfig(**overrides)
        return dataclasses.replace(auto_contour(s, CONTOUR_TOL), **overrides)

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_sources(cls, cli: dict, config_path: str | None) -> "RunConfig":
        """Merge defaults < config file < CLI flags; reject unknown file keys."""
        merged: dict = {}
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = set(file_cfg) - cls.field_names()
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            merged.update(file_cfg)
        merged.update({k: v for k, v in cli.items() if v is not None})
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _value_payload(v: LogComplex) -> dict:
    """Emit (log_mag, phase) always, re/im only when representable."""
    out = {"log_mag": v.log_mag, "phase": v.phase}
    if v.is_zero:
        out.update(re=0.0, im=0.0)
    elif abs(v.log_mag) < 700.0:
        z = v.to_complex()
        out.update(re=z.real, im=z.imag)
    return out


@dataclass(frozen=True)
class ResultRecord:
    """One evaluation result; serialization round-trips exactly through JSON."""

    inputs: dict
    method: str
    value: dict
    error_estimate: float
    wall_time: float
    library_version: str = __version__
    diagnostics: dict = dataclasses.field(default_factory=dict)   # how the value was obtained

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _inputs_echo(cfg: RunConfig, s: SpectralData) -> dict:
    return {"m": s.m, "N": s.N, "lambda": list(s.lam), "hbar": s.hbar, "x": s.x,
            "method": cfg.method, "seed": cfg.seed}


def _evaluate(cfg: RunConfig, s: SpectralData, method: str) -> tuple[LogComplex, ResultRecord]:
    """One value by method ("mb", "residue" or "asymptotic") and its timed record."""
    t0 = time.perf_counter()
    diagnostics = {}
    if method == "mb":
        res = eval_mb(s, cfg.contour(s), max_rel_err=1e-3)
        value, err = res.value, res.error_estimate
    elif method == "residue":
        res = eval_residue_series(s)
        value, err = res.value, res.tail_estimate
        diagnostics = {"orders_summed": res.orders_summed, "terms": res.terms}
    else:
        value, err = leading_asymptotic(s), 0.0
    rec = ResultRecord(_inputs_echo(cfg, s), method, _value_payload(value), err,
                       time.perf_counter() - t0, diagnostics=diagnostics)
    return value, rec


def _value_methods(cfg: RunConfig, x: float) -> list[str]:
    """The evaluators a command runs at x, in record order (sweep takes eval's list)."""
    if cfg.command == "asympt":
        return ["asymptotic"]
    if cfg.command == "xval":
        return ["mb", "residue", "asymptotic"] if x < 0 else ["mb", "asymptotic"]
    return ["mb", "residue"] if cfg.method == "both" else [cfg.method]


def _rel_discrepancy(a: LogComplex, b: LogComplex) -> float:
    if a.is_zero and b.is_zero:
        return 0.0
    if a.is_zero or b.is_zero:
        return math.inf
    diff = rescaled_sum([a, -b])
    return math.exp(diff.log_mag - a.log_mag) if not diff.is_zero else 0.0


def cmd_value(cfg: RunConfig) -> dict:
    """eval, asympt and xval: one record per method and the pairwise discrepancies."""
    s = cfg.spectral()
    values, records = {}, []
    for method in _value_methods(cfg, s.x):
        values[method], rec = _evaluate(cfg, s, method)
        records.append(rec.to_dict())
    discrepancies = {f"{a}/{b}": _rel_discrepancy(values[a], values[b])
                     for a, b in itertools.combinations(values, 2)}
    out = {"schema": SCHEMA_VERSION, "command": cfg.command, "records": records}
    if cfg.command == "xval":
        out["discrepancies"] = discrepancies
    elif discrepancies:
        out["discrepancy"] = discrepancies["mb/residue"]
    return out


def cmd_sweep(cfg: RunConfig) -> dict:
    rows = []
    for x in cfg.x_grid:
        asym = None     # shared by the method rows of this x
        for method in _value_methods(cfg, x):
            row = {"x": x, "method": method}
            try:
                s = cfg.spectral(x=x)
                value, rec = _evaluate(cfg, s, method)
                if asym is None:
                    asym = leading_asymptotic(s)
                ratio = value / asym
                row.update(rec.value)
                row["error_estimate"] = rec.error_estimate
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


def _operator_suite(cfg: RunConfig) -> dict:
    checks = check_brackets(cfg.N, cfg.hbar, 5, 5, cfg.seed)
    checks += check_build_EnN(cfg.N, cfg.hbar, 5, 5, cfg.seed + 1)
    worst = max(c.deviation for c in checks)
    return {"name": "gz-operators", "passed": worst <= VERIFY_TOL, "max_deviation": worst,
            "tol": VERIFY_TOL, "checks": [{"name": c.name, "deviation": c.deviation} for c in checks]}


def cmd_verify(cfg: RunConfig) -> dict:
    if not 2 <= cfg.m < cfg.N:
        raise ConfigError(f"verify needs 2 <= m < N, got m={cfg.m}, N={cfg.N}")
    worst, tol = check_combin_identities(cfg.seed), 1e-11
    suites = [{"name": "combin-identities", "passed": worst <= tol, "max_deviation": worst, "tol": tol},
              _operator_suite(cfg)]
    left = verify_left_whittaker(cfg.m, cfg.N, samples=cfg.samples, seed=cfg.seed,
                                 hbar=cfg.hbar, perturb=cfg.perturb_psi_l)
    suites.append(left.to_dict())
    right = verify_right_support_relations(cfg.m, cfg.N, samples=max(cfg.samples, 20),
                                           seed=cfg.seed, hbar=cfg.hbar)
    suites.append(right.to_dict())
    passed = all(s["passed"] for s in suites)
    return {"schema": SCHEMA_VERSION, "command": "verify", "seed": cfg.seed,
            "m": cfg.m, "N": cfg.N, "hbar": cfg.hbar,
            "suites": suites, "passed": passed}


def _emit(payload: dict, cfg: RunConfig) -> None:
    if cfg.format == "csv":
        if payload.get("command") != "sweep":
            raise ConfigError("csv output is only available for sweep")
        text = _sweep_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parwhit",
        description="Parabolic Whittaker function evaluation and verification.",
    )
    parser.add_argument("--version", action="version", version=f"parwhit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=str, default=None,
                       help="comma-separated list of N reals")
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--method", choices=_METHODS, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--half-extent", dest="half_extent", type=float, default=None)
        p.add_argument("--nodes-per-dim", dest="nodes_per_dim", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--perturb-psi-l", dest="perturb_psi_l", type=float, default=None,
                       help="test hook: offset one psi_L gamma argument")
        p.add_argument("--x-grid", dest="x_grid", type=str, default=None,
                       help="comma-separated x values for sweep; use --x-grid=-2,-4 for negative leads")
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=_FORMATS, default=None)
    return parser


#: commands other than the value commands (eval, asympt, xval)
_DISPATCH = {"verify": cmd_verify, "sweep": cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; preserve those
        return int(exc.code or 0)
    cli = vars(args).copy()
    config_path = cli.pop("config", None)
    if cli.get("lam") is not None:
        cli["lam"] = _parse_float_list(cli["lam"])
    if cli.get("x_grid") is not None:
        cli["x_grid"] = _parse_float_list(cli["x_grid"])
    try:
        cfg = RunConfig.from_sources(cli, config_path)
        payload = _DISPATCH.get(cfg.command, cmd_value)(cfg)
        _emit(payload, cfg)
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


if __name__ == "__main__":
    raise SystemExit(main())
