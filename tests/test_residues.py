import itertools
import math

import numpy as np
import pytest

from parwhit import (SpectralData, auto_contour, eval_mb, eval_residue_series,
                     leading_asymptotic, residue_term)
from parwhit.errors import ConfigError, DomainError, GenericityError
from parwhit.logcomplex import rescaled_sum
from parwhit.residues import MAX_ORDER, SERIES_TOL

from oracles import PSI_REFERENCE, PSI_SPECTRA, SERIES_ROUND_OFF_REFERENCE, quad_serves


def make(m, N, lam, hbar=1.0, x=-3.0):
    return SpectralData(m=m, N=N, lam=lam, hbar=hbar, x=x)


def brute_poles(s, max_order):
    """Every pole (j, n) with distinct 1-based j and sum(n) <= max_order, built
    independently of the library's order blocks."""
    ns = [n for n in itertools.product(range(max_order + 1), repeat=s.m) if sum(n) <= max_order]
    return [(j, n) for j in itertools.permutations(range(1, s.N + 1), s.m) for n in ns]


class TestEnumerate:
    def test_genericity_rejected_with_pair_named(self):
        s = make(2, 4, (0.9, 0.4, -0.3, -1.1))  # 0.9 - (-1.1) = 2.0 = 2*hbar
        with pytest.raises(GenericityError, match="lambda_1 - lambda_4"):
            eval_residue_series(s)


class TestResidueTerm:
    @pytest.mark.parametrize("j,n", [((1, 1), (0, 0)), ((0, 2), (0, 0)), ((1, 5), (0, 0)),
                                     ((1, 2), (0,)), ((1, 2), (0, -1))],
                             ids=["repeated-j", "j-zero", "j-above-N", "length-mismatch",
                                  "negative-n"])
    def test_bad_pole_rejected(self, j, n):
        with pytest.raises(ConfigError):
            residue_term(j, n, make(2, 4, (0.9, 0.4, -0.3, -1.15)))

    def test_order0_matches_coset_closed_form(self):
        # the order-0 terms re-sum to the leading asymptotic coset expression
        s = make(2, 4, (0.9, 0.4, -0.3, -1.15), hbar=0.8, x=-2.0)
        terms = [residue_term(j, n, s) for j, n in brute_poles(s, 0)]
        total = rescaled_sum(terms)
        asym = leading_asymptotic(s)
        assert abs((total / asym).to_complex() - 1.0) <= 1e-12

    def test_order1_relative_factor(self):
        # order-1 terms carry e^x relative to order 0, up to lambda-dependent constants
        s = make(1, 2, (0.5, 0.0), hbar=1.0, x=-2.0)
        t0 = residue_term((1,), (0,), s)
        t1 = residue_term((1,), (1,), s)
        s2 = make(1, 2, (0.5, 0.0), hbar=1.0, x=-4.0)
        u0 = residue_term((1,), (0,), s2)
        u1 = residue_term((1,), (1,), s2)
        ratio_x2 = (t1 / t0).to_complex()
        ratio_x4 = (u1 / u0).to_complex()
        assert ratio_x4 / ratio_x2 == pytest.approx(math.exp(-2.0), rel=1e-12)


class TestSeries:
    def test_domain_error_for_nonnegative_x(self):
        s = make(1, 2, (0.5, 0.0), x=1.0)
        with pytest.raises(DomainError):
            eval_residue_series(s)
        with pytest.raises(DomainError):
            eval_residue_series(make(1, 2, (0.5, 0.0), x=0.0))

    def test_matches_quadrature_m1(self):
        s = make(1, 2, (0.5, 0.0), x=-3.0)
        mb = eval_mb(s, auto_contour(s, 1e-9))
        rs = eval_residue_series(s)
        assert abs((rs.value / mb.value).to_complex() - 1.0) <= 1e-8

    def test_matches_quadrature_m2_various_hbar(self):
        for hbar in (1.0, 0.83):
            s = make(2, 4, (0.9, 0.4, -0.3, -1.15), hbar=hbar, x=-4.0)
            mb = eval_mb(s, auto_contour(s, 1e-9))
            rs = eval_residue_series(s)
            assert abs((rs.value / mb.value).to_complex() - 1.0) <= 1e-6

    def test_order_decay_beyond_order3(self):
        # for x <= -2 hbar the per-order partial sums decay monotonically past order 3
        s = make(2, 4, (0.9, 0.4, -0.3, -1.15), x=-2.5)
        poles = brute_poles(s, 7)
        mags = [rescaled_sum([residue_term(j, n, s) for j, n in poles if sum(n) == k]).log_mag
                for k in range(8)]
        for k in range(3, 7):
            assert mags[k + 1] < mags[k]

    def test_permutation_symmetry_exact(self):
        rng = np.random.default_rng(3)
        lam = (0.9, 0.4, -0.3, -1.15)
        s1 = make(2, 4, lam, x=-3.0)
        v1 = eval_residue_series(s1).value
        for _ in range(5):
            perm = tuple(rng.permutation(lam))
            v2 = eval_residue_series(make(2, 4, perm, x=-3.0)).value
            assert v2.log_mag == v1.log_mag and v2.phase == v1.phase

    def test_tail_estimate_reported(self):
        s = make(1, 3, (0.7, 0.0, -0.9), x=-3.0)
        res = eval_residue_series(s)
        assert res.tail_estimate <= 1e-10
        assert res.orders_summed >= 4

    def test_tail_estimate_covers_round_off(self):
        # at x = -1 the (3,6) terms peak 1e5 above the sum; the error is
        # round-off, not truncation, and the estimate must still bound it
        # without swamping the value
        s = make(3, 6, PSI_SPECTRA[(3, 6)], x=-1.0)
        res = eval_residue_series(s)
        ref = PSI_REFERENCE[(3, 6, -1.0)]
        err = abs(res.value.to_complex() - ref) / ref
        assert err <= res.tail_estimate <= 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the round-off term of tail_estimate misses these errors")
    @pytest.mark.parametrize("hbar", sorted(SERIES_ROUND_OFF_REFERENCE))
    def test_tail_estimate_covers_small_hbar_round_off(self, hbar):
        # (1,2) at x = -1: the terms peak 66x (hbar = 0.2) and 4.7e4x (0.1) above the sum;
        # the error is 5.6e-10 against an estimate of 4.7e-10 at 0.1, 3.5e-13 against 1.8e-13 at 0.2
        res = eval_residue_series(make(1, 2, (0.913, -0.377), hbar=hbar, x=-1.0))
        ref = SERIES_ROUND_OFF_REFERENCE[hbar]
        err = abs(res.value.to_complex() - ref) / ref
        assert err <= res.tail_estimate

    @pytest.mark.parametrize("m,N,x", sorted(k for k in PSI_REFERENCE if not quad_serves(*k[:2])))
    def test_frozen_reference_values(self, m, N, x):
        # shapes the contour quadrature cannot serve: m = 4, and N <= 2m - 2
        res = eval_residue_series(make(m, N, PSI_SPECTRA[(m, N)], x=x))
        ref = PSI_REFERENCE[(m, N, x)]
        err = abs(res.value.to_complex() - ref) / abs(ref)
        assert err <= 1e-10
        assert res.tail_estimate >= err

    def test_order_cap_bounds_the_sum(self):
        # at hbar = 0.1 the order-n terms carry hbar^-n / n!, which peaks near n = 10:
        # the sum needs every order up to the cap and cancels far below its largest
        # terms, so the series refuses it (round-off estimate 1.2e-2) rather than serve it
        with pytest.raises(DomainError, match="tail estimate"):
            eval_residue_series(make(1, 2, (0.33, -0.21), hbar=0.1, x=-0.5))
        res = eval_residue_series(make(1, 2, (0.33, -0.21), hbar=1.0, x=-0.5))
        assert res.orders_summed < MAX_ORDER + 1 and res.tail_estimate < 1e3 * SERIES_TOL

    @pytest.mark.parametrize("hbar,match", [(0.1, "stop rule"), (0.25, "tail estimate 38.8")])
    def test_uncertified_sum_is_refused(self, hbar, match):
        # (3,5) at x = -1: the sum at hbar = 0.1 was -7.9e22 - 9.8e22i and at 0.25
        # -0.022 + 0.057i (estimate 38.8), against 1.6e-28 and 1.9e-11
        with pytest.raises(DomainError, match=match):
            eval_residue_series(make(3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), hbar=hbar, x=-1.0))


class TestPoleTables:
    @pytest.mark.parametrize("m,N,lam,hbar,x", [
        (1, 3, (0.7, 0.0, -0.9), 1.0, -1.5),
        (1, 3, (0.7, 0.0, -0.9), 1.0, -3.0),
        (2, 4, (0.9, 0.4, -0.3, -1.15), 0.83, -1.5),
        (2, 4, (0.9, 0.4, -0.3, -1.15), 0.83, -3.0),
        (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), 0.7, -1.5),
        (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), 0.7, -3.0),
        (4, 5, (1.17, 0.55, -0.02, -0.73, -1.38), 1.0, -6.0),
    ])
    def test_tables_match_termwise_oracle(self, m, N, lam, hbar, x):
        # the order blocks read from the pole and pair tables sum the same
        # terms as residue_term, one pole at a time, over the same orders
        s = make(m, N, lam, hbar=hbar, x=x)
        res = eval_residue_series(s)
        terms = [residue_term(j, n, s) for j, n in brute_poles(s, res.orders_summed - 1)]
        assert res.terms == len(terms)
        want = rescaled_sum(terms)
        cancel = math.fsum(math.exp(t.log_mag - want.log_mag) for t in terms)
        rel = abs((res.value / want).to_complex() - 1.0)
        # where the terms cancel, both sums lose digits in proportion
        assert rel <= max(1e-13, 100 * 1e-16 * cancel)


class TestExtremeRegimes:
    def test_log_space_pathway_beyond_double_range(self):
        # value ~ e^85; everything stays in log space until the final ratio
        s = make(1, 2, (2.13, 0.0), x=-40.0)
        mb = eval_mb(s, auto_contour(s, 1e-9), max_rel_err=None)
        rs = eval_residue_series(s)
        assert mb.value.log_mag > 80.0
        assert abs((mb.value / rs.value).to_complex() - 1.0) <= 1e-8
        # at x = -40 the order-0 term is the whole series to double precision
        la = leading_asymptotic(s)
        assert abs((rs.value / la).to_complex() - 1.0) <= 1e-15

    def test_cross_method_at_nonunit_hbar_n5(self):
        s = make(2, 5, (1.17, 0.55, -0.02, -0.73, -1.38), hbar=1.3, x=-4.0)
        mb = eval_mb(s, auto_contour(s, 1e-9), max_rel_err=None)
        rs = eval_residue_series(s)
        assert abs((mb.value / rs.value).to_complex() - 1.0) <= 1e-8

    def test_cross_method_mild_x(self):
        s = make(1, 3, (0.7, 0.0, -0.9), x=-1.0)
        mb = eval_mb(s, auto_contour(s, 1e-9))
        rs = eval_residue_series(s)
        assert abs((mb.value / rs.value).to_complex() - 1.0) <= 1e-8
