import math
import re
import warnings

import numpy as np
import pytest

from parwhit.errors import ConfigError, DomainError, SupportError
from parwhit.gz import (SupportConstraints, TriangularArray, psi_L,
                        random_array, verify_left_whittaker,
                        verify_right_support_relations)
from parwhit.gz.whittaker import _block_args


class TestPsiL:
    def test_zero_on_recip_gamma_zero(self):
        h = 1.0
        # arrange gamma_{1,1} - gamma_{2,1} + h/2 = 0
        arr = TriangularArray(((0.25,), (0.75, -0.4)))
        assert psi_L(2, arr, h) == 0j

    def test_closed_form_m2(self):
        h = 1.0
        arr = TriangularArray(((0.0,), (0.3, -0.4)))
        got = psi_L(2, arr, h)
        expect = 1.0
        for b in (0.3, -0.4):
            expect /= math.gamma(0.0 - b + 0.5)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_overflow_is_a_domain_error(self):
        # at hbar = 1e-3 the phase e^{i pi gamma_11 / hbar} overflows where Im gamma_11 = -1;
        # the second array of the batch stays in range on its own
        arr = TriangularArray([[np.array([-1j, 0.5j])], [np.array([0.3, 0.3]), np.array([-0.4, -0.4])]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="hbar = 0.001"):
                psi_L(2, arr, 1e-3)
            assert np.isfinite(psi_L(2, arr[1], 1e-3)).all()

    def test_phase_flips_sign_under_hbar_shift_of_gamma11(self):
        # e^{i pi gamma_{1,1}/hbar} picks up exactly -1 when gamma_{1,1} moves by hbar
        for h in (1.0, 0.7, 1.9):
            arr = TriangularArray(((0.4,), (0.9 + 0.2j, -0.8), (1.2, 0.1, -1.3)))
            shifted = arr.shifted({(1, 1): 1}, h)
            a = psi_L(3, arr, h)
            b = psi_L(3, shifted, h)
            # rows m-1, m untouched by the row-1 shift for m = 3
            assert b == pytest.approx(-a, rel=1e-12)


@pytest.mark.parametrize("N,n,p", [(3, 2, 1), (4, 4, 2), (5, 3, 2), (6, 6, 4), (6, 4, 3)])
def test_block_args_keep_their_arithmetic(N, n, p):
    # the elementwise form the numpy outer difference replaced, in float hex, on a
    # batch of three arrays: one line per (a, b), one column per array
    h = 1.1
    for seed in range(3):
        arr = random_array(N, np.random.default_rng(seed), 3)
        got = _block_args(arr, n, p, h)
        assert got.shape == (p * n, 3)
        for s in range(3):
            rows = arr[s].rows
            expect = [rows[n - 2][a] - rows[n - 1][b] + h / 2 for a in range(p) for b in range(n)]
            assert [(z.real.hex(), z.imag.hex()) for z in got[:, s].tolist()] == \
                [(z.real.hex(), z.imag.hex()) for z in expect]


class TestLeftWhittaker:
    @pytest.mark.parametrize("m,N", [(2, 3), (2, 4), (3, 4)])
    def test_eigen_relations_pass(self, m, N):
        rep = verify_left_whittaker(m, N, samples=6, seed=101)
        assert rep.passed, rep
        assert rep.max_deviation <= 1e-9
        assert all(s in (-1, 1) for s in rep.signs)

    def test_eigenvalue_modulus_at_nonunit_hbar(self):
        rep = verify_left_whittaker(2, 4, samples=5, seed=7, hbar=1.37)
        assert rep.passed
        assert rep.hbar == 1.37

    def test_numpy_hbar_is_accepted(self):
        rep = verify_left_whittaker(2, 3, samples=4, seed=5, hbar=np.float32(1.1))
        assert rep.passed
        assert type(rep.hbar) is float and rep.hbar == float(np.float32(1.1))

    def test_perturbation_hook_fails_suite(self):
        rep = verify_left_whittaker(2, 3, samples=4, seed=13, perturb=1e-6)
        assert not rep.passed

    def test_requires_m_at_least_two(self):
        with pytest.raises(ConfigError):
            verify_left_whittaker(1, 3, samples=2, seed=0)

    def test_deterministic_for_fixed_seed(self):
        a = verify_left_whittaker(2, 3, samples=4, seed=99)
        b = verify_left_whittaker(2, 3, samples=4, seed=99)
        assert a == b


class TestSupportConstraints:
    def test_fixed_rows_below_m(self):
        sc = SupportConstraints(3, 5, 1.0)
        arr = sc.build((0.3, -0.2, 0.9), (1.0, 0.5, 0.0, -0.5, -1.0))
        assert arr.gamma(1, 1) == 0
        assert arr.gamma(2, 1) == pytest.approx(0.5)
        assert arr.gamma(2, 2) == pytest.approx(-0.5)

    def test_rows_above_m_follow_row_m(self):
        sc = SupportConstraints(2, 4, 0.8)
        t = (0.3 + 0.1j, -0.6)
        arr = sc.build(t, (1.0, 0.5, -0.5, -1.0))
        assert arr.gamma(3, 1) == pytest.approx(t[0] + 0.4)
        assert arr.gamma(3, 2) == pytest.approx(t[1] + 0.4)
        assert arr.gamma(3, 3) == pytest.approx(-0.8)
        # row sums telescope on the constrained rows
        assert sum(arr.row(3)) == pytest.approx(sum(arr.row(2)))

    def test_m_bounds(self):
        with pytest.raises(SupportError):
            SupportConstraints(1, 3, 1.0)
        with pytest.raises(SupportError):
            SupportConstraints(3, 3, 1.0)


class TestRightSupport:
    @pytest.mark.parametrize("m,N", [(2, 4), (2, 5)])
    def test_relations_pass(self, m, N):
        rep = verify_right_support_relations(m, N, samples=50, seed=301)
        assert rep.passed, rep.check_deviations
        assert rep.max_deviation <= 1e-9

    def test_constant_sign_recorded(self):
        rep = verify_right_support_relations(2, 4, samples=10, seed=5)
        assert rep.constant_sign == 1  # (-1)^m with m = 2

    def test_m3_constant(self):
        rep = verify_right_support_relations(3, 5, samples=10, seed=5)
        assert rep.passed
        assert rep.constant_sign == -1  # (-1)^m with m = 3

    def test_deterministic(self):
        a = verify_right_support_relations(2, 4, samples=8, seed=11)
        b = verify_right_support_relations(2, 4, samples=8, seed=11)
        assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("verify,hbar", [
    (verify_right_support_relations, 1e-300),   # block logs of 1e302 leave no digits
    (verify_right_support_relations, 1e300),    # every z/hbar inside the pole margin
    (verify_left_whittaker, 1e300),             # psi_L underflows on every draw
])
def test_uncertifiable_hbar_is_a_domain_error(verify, hbar):
    with pytest.raises(DomainError, match=re.escape(f"hbar = {hbar:g}")):
        verify(2, 4, hbar=hbar)


def test_final_constant_degenerate_m1():
    # with a single row-m entry the interpolation sum is an empty product = 1,
    # so -(1/h) * 1 = (-1)^1 / h: the constant formula holds down to m = 1
    h = 0.9
    ssum = 1.0
    assert -(1 / h) * ssum == pytest.approx(((-1) ** 1) / h)
