"""The four benchmark workloads, generated from a seed.

A workload is a fixed list of calls.  Each call names what the worker runs
(`kind`) and lists, under `values`, the outputs it must return and how each is
checked; one entry of `values` is one operation.  The seed only moves lambda,
x and the GZ seeds by small amounts, so that every seed does the same amount
of work: the quadrature node counts and the series orders do not change
within the jitter used here.

Instance shapes come from the library's acceptance grid.  The (1,2) sweep of
`cli-sweep` takes nothing from the seed, because its rows at x >= 4 fail on
every run (the contour offset stays at hbar for x >= 0) and must fail the
same way whatever the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("quad", "series", "cli-sweep", "gz-verify")

L3A = (0.7, 0.0, -0.9)
L3B = (1.1, 0.35, -0.45)
L4A = (0.9, 0.4, -0.3, -1.15)
L4B = (1.25, 0.55, -0.15, -0.85)
L5 = (1.17, 0.55, -0.02, -0.73, -1.38)
L5W = (0.62, 0.31, 0.0, -0.33, -0.67)
L6 = (1.31, 0.86, 0.37, -0.08, -0.61, -1.17)

#: the (1,2) instance whose x >= 4 rows expose the contour-offset fault
FAULT_LAM = (0.3, -0.2)
FAULT_GRID = tuple(x / 2 for x in range(-16, 17))

LAM_JITTER = 0.01
X_JITTER = 0.05


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def lam(self, base):
        return [round(v + self.rng.uniform(-LAM_JITTER, LAM_JITTER), 4) for v in base]

    def x(self, base):
        if base == 0:
            return 0.0
        return round(base + self.rng.uniform(-X_JITTER, X_JITTER), 4)

    def seed(self):
        return self.rng.randrange(1, 2**31)


def _inst(m, N, lam, hbar, x):
    return {"m": m, "N": N, "lam": list(lam), "hbar": hbar, "x": x}


def _quad(g: _Gen) -> list[dict]:
    shapes = [
        (1, 3, L3A, 1.0, 0.0), (1, 3, L3A, 1.0, -3.0), (1, 3, L3B, 1.0, -5.0),
        (2, 4, L4A, 1.0, -3.0), (2, 4, L4A, 1.0, -5.0), (2, 4, L4B, 1.0, -3.0),
        (2, 5, L5, 1.0, -3.0), (2, 5, L5, 1.0, -5.0), (2, 4, L4A, 0.7, -2.0),
        (3, 5, L5W, 1.0, -2.0),
    ]
    calls = []
    for m, N, lam, h, x in shapes:
        inst = _inst(m, N, g.lam(lam), h, g.x(x))
        calls.append({"kind": "quad", **inst, "values": [{"check": "mb", **inst}]})
    return calls


def _series(g: _Gen) -> list[dict]:
    shapes = [(3, 5, L5, -6.0), (3, 6, L6, -4.0), (4, 5, L5, -4.0)]
    calls = []
    for k, (m, N, lam, x) in enumerate(shapes):
        inst = _inst(m, N, g.lam(lam), 1.0, g.x(x))
        calls.append({"kind": "series", **inst, "values": [
            {"check": "series", **inst}, {"check": "asympt", **inst}]})
        if k == 0:
            # symmetry and covariance of the first instance, checked against it
            perm = dict(inst, lam=inst["lam"][::-1])
            calls.append({"kind": "series", **perm, "values": [
                {"check": "permuted", "base": 0, **perm}, {"check": "asympt", **perm}]})
            delta = 0.125
            shift = dict(inst, lam=[v + delta for v in inst["lam"]])
            calls.append({"kind": "series", **shift, "values": [
                {"check": "shifted", "base": 0, "delta": delta, **shift},
                {"check": "asympt", **shift}]})
    return calls


def _flag_list(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def _cli(argv, values):
    return {"kind": "cli", "argv": argv, "values": values}


def _cli_sweep(g: _Gen) -> list[dict]:
    calls = []
    # fixed (1,2) sweep over x << 0 .. +8, CSV output; rows at x >= 3.5 fail
    argv = ["sweep", "--m", "1", "--N", "2", f"--lambda={_flag_list(FAULT_LAM)}",
            "--method", "mb", f"--x-grid={_flag_list(FAULT_GRID)}", "--format", "csv"]
    calls.append(_cli(argv, [{"check": "mb", "known_fault": x >= 3.5, **_inst(1, 2, FAULT_LAM, 1.0, x)}
                             for x in FAULT_GRID]))
    # (2,4) sweep over the same range, JSON output
    lam = g.lam(L4A)
    grid = [g.x(float(x)) for x in range(-8, 9)]
    argv = ["sweep", "--m", "2", "--N", "4", f"--lambda={_flag_list(lam)}",
            "--method", "mb", f"--x-grid={_flag_list(grid)}"]
    calls.append(_cli(argv, [{"check": "mb", **_inst(2, 4, lam, 1.0, x)} for x in grid]))
    # (1,3) sweep by both methods at x < 0, at hbar != 1
    lam = g.lam(L3A)
    grid = [g.x(float(x)) for x in range(-1, -7, -1)]
    argv = ["sweep", "--m", "1", "--N", "3", f"--lambda={_flag_list(lam)}", "--hbar", "1.3",
            "--method", "both", f"--x-grid={_flag_list(grid)}"]
    values = []
    for x in grid:
        values.append({"check": "mb", **_inst(1, 3, lam, 1.3, x)})
        values.append({"check": "series", **_inst(1, 3, lam, 1.3, x)})
    calls.append(_cli(argv, values))
    # one each of eval, asympt and xval
    lam = g.lam(L4A)
    x = g.x(-4.0)
    inst = _inst(2, 4, lam, 1.0, x)
    calls.append(_cli(["eval", "--m", "2", "--N", "4", f"--lambda={_flag_list(lam)}",
                       f"--x={x!r}", "--method", "both"],
                      [{"check": "mb", **inst}, {"check": "series", **inst}]))
    lam = g.lam(L4B)
    x = g.x(-5.0)
    calls.append(_cli(["asympt", "--m", "2", "--N", "4", f"--lambda={_flag_list(lam)}", f"--x={x!r}"],
                      [{"check": "asympt", **_inst(2, 4, lam, 1.0, x)}]))
    lam = g.lam(L5)
    x = g.x(-5.0)
    inst = _inst(2, 5, lam, 1.0, x)
    calls.append(_cli(["xval", "--m", "2", "--N", "5", f"--lambda={_flag_list(lam)}", f"--x={x!r}"],
                      [{"check": "mb", **inst}, {"check": "series", **inst},
                       {"check": "asympt", **inst}, {"check": "xval-discrepancy"}]))
    return calls


GZ_HBAR = 1.1


def _gz(g: _Gen) -> list[dict]:
    calls = []
    for N in (3, 4, 5, 6):
        calls.append({"kind": "gz", "fn": "check_brackets", "args": [N, GZ_HBAR, 4, 4, g.seed()],
                      "values": [{"check": "identity"}] * (N - 1)})
    for N, size in ((3, 4), (4, 4), (5, 4), (6, 3)):
        calls.append({"kind": "gz", "fn": "check_build_EnN",
                      "args": [N, GZ_HBAR, size, size, g.seed()],
                      "values": [{"check": "identity"}] * (N - 1)})
    for m, N in ((2, 4), (3, 5), (4, 6)):
        seed = g.seed()
        kw = {"samples": 8, "seed": seed, "hbar": GZ_HBAR}
        calls.append({"kind": "gz", "fn": "verify_left_whittaker", "args": [m, N], "kwargs": kw,
                      "values": [{"check": "identity"}]})
        calls.append({"kind": "gz", "fn": "verify_left_whittaker", "args": [m, N],
                      "kwargs": dict(kw, perturb=1e-3), "values": [{"check": "perturbed"}]})
        calls.append({"kind": "gz", "fn": "verify_right_support_relations", "args": [m, N],
                      "kwargs": {"samples": 20, "seed": seed, "hbar": GZ_HBAR},
                      "values": [{"check": "identity"}]})
    return calls


#: indices of the calls kept by the self-check's reduced pass (the cheap ones)
SMOKE = {"quad": (0, 1, 3), "series": (0, 1, 2), "cli-sweep": (0, 4),
         "gz-verify": (0, 4, 8, 9, 10)}


def build(name: str, seed: int, smoke: bool = False) -> list[dict]:
    """The calls of one round of workload `name` for this seed."""
    g = _Gen(seed)
    calls = {"quad": _quad, "series": _series, "cli-sweep": _cli_sweep, "gz-verify": _gz}[name](g)
    return [calls[k] for k in SMOKE[name]] if smoke else calls
