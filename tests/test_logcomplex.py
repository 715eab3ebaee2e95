import cmath
import math

import pytest
from hypothesis import example, given, strategies as st

from parwhit.logcomplex import LogComplex, rescaled_sum, wrap_phase

finite_logs = st.floats(min_value=-650, max_value=650)
phases = st.floats(min_value=-20.0, max_value=20.0)


@given(finite_logs, phases)
def test_roundtrip_within_double_range(log_mag, phase):
    v = LogComplex(log_mag, phase)
    back = LogComplex.from_complex(v.to_complex())
    assert abs(back.log_mag - v.log_mag) <= 1e-14 * max(1.0, abs(v.log_mag)) + 1e-14
    assert abs(wrap_phase(back.phase - v.phase)) <= 1e-12


@given(finite_logs, phases, finite_logs, phases)
def test_product_adds_logs_and_wraps_phase(l1, p1, l2, p2):
    a, b = LogComplex(l1, p1), LogComplex(l2, p2)
    prod = a * b
    assert prod.log_mag == pytest.approx(l1 + l2, rel=1e-15, abs=1e-12)
    assert abs(wrap_phase(prod.phase - (a.phase + b.phase))) <= 1e-12
    assert -math.pi < prod.phase <= math.pi


def test_zero_handling():
    z = LogComplex.zero()
    assert z.is_zero
    assert z.to_complex() == 0j
    assert (z * LogComplex.from_complex(3.0)).is_zero
    with pytest.raises(ZeroDivisionError):
        LogComplex.from_complex(1.0) / z


def test_from_real_signs():
    assert LogComplex.from_complex(-2.0).phase == pytest.approx(math.pi)
    assert LogComplex.from_complex(2.0).phase == 0.0
    assert LogComplex.from_complex(-2.0).to_complex() == pytest.approx(-2.0)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        LogComplex(800.0, 0.0).to_complex()


def test_rescaled_sum_matches_direct():
    vals = [1.5, -0.25, 3.0, -4.25, 1e-3]
    lcs = [LogComplex.from_complex(v) for v in vals]
    got = rescaled_sum(lcs)
    assert got.to_complex() == pytest.approx(sum(vals), rel=1e-14)


def test_rescaled_sum_survives_huge_scales():
    # e^800 * (1 - 1) + e^799 must come out as e^799 exactly in log space
    lcs = [LogComplex(800.0, 0.0), LogComplex(800.0, math.pi), LogComplex(799.0, 0.0)]
    got = rescaled_sum(lcs)
    assert got.log_mag == pytest.approx(799.0, abs=1e-10)
    assert got.phase == pytest.approx(0.0, abs=1e-12)


@given(st.lists(st.tuples(finite_logs, phases), min_size=1, max_size=8))
@example(pairs=[(0.0, 0.0), (0.0, 5e-324)])     # cmath.phase(2 + 5e-324j) raises OverflowError
def test_rescaled_sum_agrees_with_complex_arithmetic(pairs):
    lcs = [LogComplex(l, p) for l, p in pairs]
    m = max(v.log_mag for v in lcs)
    terms = [cmath.exp(complex(v.log_mag - m, v.phase)) for v in lcs]
    direct = sum(terms)
    got = rescaled_sum(lcs)
    if abs(direct) < 1e-10:
        # fully cancelled within the naive sum's own noise; only a bound is meaningful
        assert got.is_zero or got.log_mag - m < math.log(1e-9)
        return
    # the reference sum is naive, so its noise scales with the cancellation
    condition = sum(abs(t) for t in terms) / abs(direct)
    tol = 1e-12 + 1e-14 * condition
    assert got.log_mag - m == pytest.approx(math.log(abs(direct)), abs=tol)
    assert abs(wrap_phase(got.phase - math.atan2(direct.imag, direct.real))) <= tol
