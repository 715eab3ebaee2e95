"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from parwhit import (SpectralData, auto_contour, eval_mb, eval_residue_series,
                     leading_asymptotic)
from parwhit.cli import main
from parwhit.gz import (check_combin_identities, verify_left_whittaker,
                        verify_right_support_relations)
from parwhit.gz.identity import check_brackets, check_build_EnN
from parwhit.logcomplex import rescaled_sum
from parwhit.residues import residue_term

from oracles import BESSEL_REFERENCE, k0_series


def _report(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_bessel_oracle():
    t0 = time.monotonic()
    for x in (-4.0, -2.0, 0.0, 1.0):
        s = SpectralData(m=1, N=2, lam=(0.0, 0.0), hbar=1.0, x=x)
        got = eval_mb(s, auto_contour(s, 1e-10)).value.to_complex().real
        oracle = 2.0 * k0_series(2.0 * math.exp(x / 2.0))
        assert oracle == pytest.approx(BESSEL_REFERENCE[x], rel=1e-13)
        assert abs(got - oracle) / abs(oracle) <= 1e-8, f"x={x}"
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "Bessel oracle (m=1, N=2)")


CROSS_METHOD_GRID = [
    (1, 3, (0.7, 0.0, -0.9)),
    (1, 3, (1.1, 0.35, -0.45)),
    (2, 4, (0.9, 0.4, -0.3, -1.15)),
    (2, 4, (1.25, 0.55, -0.15, -0.85)),
    (2, 5, (1.17, 0.55, -0.02, -0.73, -1.38)),
    (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67)),
]


def test_criterion_2_cross_method_agreement():
    t0 = time.monotonic()
    for (m, N, lam), x in itertools.product(CROSS_METHOD_GRID, (-3.0, -5.0)):
        gaps = [abs(a - b) for a, b in itertools.combinations(lam, 2)]
        assert min(gaps) >= 0.3 - 1e-12
        s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=x)
        mb = eval_mb(s, auto_contour(s, 1e-9), max_rel_err=None).value
        rs = eval_residue_series(s).value
        rel = abs((mb / rs).to_complex() - 1.0)
        assert rel <= 1e-6, f"(m,N)=({m},{N}), x={x}: rel={rel:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"cross-method agreement on 12 instances ({elapsed:.0f}s)")


def test_criterion_3_asymptotics():
    for (m, N, lam) in [(1, 2, (0.5, 0.0)), (1, 3, (0.7, 0.0, -0.9)),
                        (2, 4, (0.9, 0.4, -0.3, -1.15))]:
        s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=-12.0)
        mb = eval_mb(s, auto_contour(s, 1e-9), max_rel_err=None).value
        ratio = (mb / leading_asymptotic(s)).to_complex()
        assert abs(ratio - 1.0) <= 1e-3, f"(m,N)=({m},{N})"

    rng = np.random.default_rng(1234)
    done = 0
    while done < 10:
        N = int(rng.integers(2, 6))
        m = int(rng.integers(1, N))
        lam = np.sort(rng.uniform(-1.6, 1.6, size=N))[::-1]
        if N > 1 and min(abs(np.diff(lam))) < 0.3:
            continue
        s = SpectralData(m=m, N=N, lam=tuple(lam), hbar=float(rng.uniform(0.6, 1.6)),
                         x=float(rng.uniform(-8, -1)))
        order0 = rescaled_sum([
            residue_term(js, (0,) * m, s)
            for js in itertools.permutations(range(1, N + 1), m)
        ])
        rel = abs((order0 / leading_asymptotic(s)).to_complex() - 1.0)
        assert rel <= 1e-12
        done += 1
    _report(3, "leading asymptotics at x=-12 and order-0 tie-out")


def test_criterion_4_combinatorial_identities():
    worst = check_combin_identities(2024)
    assert worst <= 1e-11, f"worst deviation {worst:.2e}"
    _report(4, f"interpolation identities n<=8 (worst {worst:.1e})")


def test_criterion_5_operator_algebra():
    worst = 0.0
    for N in (2, 3, 4, 5):
        for chk in check_brackets(N, 1.1, 20, 20, seed=55):
            worst = max(worst, chk.deviation)
    for N in (3, 4, 5):
        for chk in check_build_EnN(N, 1.1, 20, 20, seed=56):
            worst = max(worst, chk.deviation)
    assert worst <= 1e-9, f"worst deviation {worst:.2e}"
    _report(5, f"gl brackets and closed-form E_nN to N=5 (worst {worst:.1e})")


def test_criterion_6_whittaker_vectors():
    for (m, N) in [(2, 3), (2, 4), (3, 4), (2, 5)]:
        rep = verify_left_whittaker(m, N, samples=8, seed=777)
        assert rep.passed, f"left ({m},{N}): {rep.deviations}"
        assert rep.max_deviation <= 1e-9
    for (m, N) in [(2, 4), (2, 5)]:
        rep = verify_right_support_relations(m, N, samples=50, seed=778)
        assert rep.passed, f"right ({m},{N}): {rep.check_deviations}"
        assert rep.constant_sign == (1 if m % 2 == 0 else -1)
    _report(6, "Whittaker vector relations (left and right-support)")


def test_criterion_7_symmetry_and_covariance():
    from parwhit import ContourConfig

    rng = np.random.default_rng(4321)
    shapes = [(1, 2), (1, 3), (2, 3), (2, 4)]
    done = 0
    while done < 20:
        m, N = shapes[int(rng.integers(0, len(shapes)))]
        lam = np.sort(rng.uniform(-1.2, 1.2, size=N))[::-1]
        if N > 1 and min(abs(np.diff(lam))) < 0.3:
            continue
        lam = tuple(round(float(v), 6) for v in lam)
        x = float(rng.uniform(-4, -1))
        s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=x)
        try:
            s.require_generic(margin=5e-3)
        except Exception:
            continue
        perm = tuple(rng.permutation(lam))
        sp = SpectralData(m=m, N=N, lam=perm, hbar=1.0, x=x)

        # exact termwise symmetry for the series and the coset sum
        a, b = eval_residue_series(s).value, eval_residue_series(sp).value
        assert a.log_mag == b.log_mag and a.phase == b.phase
        a, b = leading_asymptotic(s), leading_asymptotic(sp)
        assert a.log_mag == b.log_mag and a.phase == b.phase

        # quadrature: same contour, permuted lambda
        c = auto_contour(s, 1e-9)
        qa = eval_mb(s, c, max_rel_err=None).value
        qb = eval_mb(sp, c, max_rel_err=None).value
        assert abs((qa / qb).to_complex() - 1.0) <= 1e-10

        # translation covariance
        delta = 0.3
        st = SpectralData(m=m, N=N, lam=tuple(v + delta for v in lam), hbar=1.0, x=x)
        ct = ContourConfig(tuple(v + delta for v in c.lines), c.half_extent, c.nodes_per_dim)
        qt = eval_mb(st, ct, max_rel_err=None).value
        expected = math.exp(-m * delta * x)
        assert abs((qt / qa).to_complex() / expected - 1.0) <= 1e-8
        done += 1
    _report(7, "permutation symmetry and translation covariance (20 instances)")


def test_criterion_8_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    args = ["verify", "--m", "2", "--N", "4", "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(8, "verify reports byte-identical for a fixed seed")
