import cmath
import math

import numpy as np
import pytest

from parwhit.gammafns import POLE_TOL, log_gamma1, on_pole_lattice


def gamma1(z, h):
    """gamma1(z|h) as an ordinary complex, from the scalar kernel."""
    return cmath.exp(log_gamma1(complex(z), h))


def test_log_gamma_classic_values():
    assert gamma1(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert log_gamma1(0.5 + 0j, 1.0).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
    assert gamma1(4.0, 1.0) == pytest.approx(6.0, rel=1e-13)


def test_log_gamma_poles():
    for z in (0.0, -1.0, -2.0, -7.0):
        assert on_pole_lattice(complex(z))
    assert not on_pole_lattice(complex(-1.5))


def test_gamma1_trivial_values():
    for h in (0.5, 1.0, 2.7):
        assert gamma1(h, h) == pytest.approx(h, rel=1e-13)
    assert gamma1(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # hbar=2, z=1: 2^(1/2) Gamma(1/2) = sqrt(2 pi)
    assert gamma1(1.0, 2.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)


def test_gamma1_pole_detection_in_units_of_hbar():
    # -0.9 / 0.3 rounds to -3.0000000000000004, inside POLE_TOL of the pole
    for z, h in ((0.0, 0.3), (-0.9, 0.3), (-3 * 0.7, 0.7)):
        assert on_pole_lattice(complex(z) / h)
    assert not on_pole_lattice(complex(-0.9 + 0.5 * 0.3) / 0.3)


def test_gamma1_recurrence_random():
    # gamma1(z + hbar) = z * gamma1(z) at 1000 random complex z with |z/hbar| <= 50
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        h = rng.uniform(0.3, 2.5)
        w = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        z = w * h
        if min(abs(w.real - round(w.real)), abs(w.real + 1 - round(w.real + 1))) < 1e-3 and abs(w.imag) < 1e-3:
            continue
        ratio = cmath.exp(log_gamma1(z + h, h) - log_gamma1(z, h) - cmath.log(z))
        worst = max(worst, abs(ratio - 1.0))
    assert worst <= 1e-12


def test_gamma1_conjugation_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = rng.uniform(0.4, 2.0)
        z = complex(rng.uniform(-8, 8), rng.uniform(0.1, 8))
        a = gamma1(z, h)
        b = gamma1(z.conjugate(), h)
        assert b == pytest.approx(a.conjugate(), rel=1e-12)


def test_log_gamma1_is_conjugate_exact():
    # what lets the quadrature evaluate each line's table on y >= 0 only and conjugate the rest
    rng = np.random.default_rng(13)
    for h in (0.1, 0.45, 1.0, 1.7):
        z = (40.0 - rng.uniform(0.0, 39.99, 4000)) + 1j * rng.uniform(-400.0, 400.0, 4000)
        z[:50] = z[:50].real
        assert np.array_equal(log_gamma1(z.conj(), h), log_gamma1(z, h).conj())


def test_recip_times_gamma1_is_one():
    # reflection: 1/gamma1(z) = gamma1(hbar - z) sin(pi z/hbar) / (pi hbar), independent of 1/exp
    rng = np.random.default_rng(11)
    for _ in range(300):
        h = rng.uniform(0.4, 2.0)
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        w = z / h
        if abs(w.imag) < 0.05 and abs(w.real - round(w.real)) < 0.05:
            continue
        recip = cmath.exp(log_gamma1(h - z, h)) * cmath.sin(math.pi * w) / (math.pi * h)
        prod = cmath.exp(log_gamma1(z, h)) * recip
        assert abs(prod - 1.0) <= 1e-12


def test_log_gamma1_array_matches_elementwise_gamma1():
    rng = np.random.default_rng(5)
    for h in (0.45, 1.0, 1.7):
        re = rng.uniform(-30, 30, size=400)
        re[:100] = -np.arange(100) * h - h * rng.uniform(0.05, 0.95, size=100)  # negative reals
        im = rng.uniform(-400, 400, size=400)
        im[:150] = 0.0
        im[150:200] = rng.choice([-400.0, 400.0], size=50)
        z = (re + 1j * im).reshape(20, 20)
        got = log_gamma1(z, h)
        assert got.shape == z.shape
        for zk, gk in zip(z.ravel().tolist(), got.ravel().tolist()):
            # numpy and Python round z/hbar differently in the last bit, which
            # moves log gamma1 by about |z/hbar| |digamma(z/hbar)| * 1e-16
            want = log_gamma1(complex(zk), h)
            tol = 1e-14 * (1.0 + abs(gk))
            assert gk.real == pytest.approx(want.real, rel=0, abs=tol)
            assert abs(cmath.exp(1j * (gk.imag - want.imag)) - 1.0) <= tol


def test_on_pole_lattice_tolerance_edges():
    inside, outside = 0.5 * POLE_TOL, 2.0 * POLE_TOL
    for n in (0, -1, -7, -250):
        for d in (inside, -inside, inside * 1j, -inside * 1j):
            assert on_pole_lattice(n + d)
        for d in (outside, -outside, outside * 1j, -outside * 1j):
            assert not on_pole_lattice(n + d)
    for w in (1.0, 3.0, 0.5, -0.5, -2.5 + 0j, 1e-3j):
        assert not on_pole_lattice(complex(w))
    w = np.array([[-3 + inside, -3 + outside], [inside * 1j, 1.0 + 0j]])
    assert on_pole_lattice(w).tolist() == [[True, False], [True, False]]


def test_scipy_is_imported_by_gammafns_only():
    import ast
    import pathlib

    import parwhit

    root = pathlib.Path(parwhit.__file__).parent
    importers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.relative_to(root).as_posix())
    assert importers == {"gammafns.py"}
