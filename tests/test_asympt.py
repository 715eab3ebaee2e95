import cmath
import itertools
import math

import numpy as np
import pytest

from parwhit import SpectralData, auto_contour, eval_mb, leading_asymptotic
from parwhit.errors import PoleError
from parwhit.gammafns import log_gamma1
from parwhit.logcomplex import rescaled_sum
from parwhit.residues import residue_term

SQRT_PI = math.sqrt(math.pi)


class TestCosetCoefficient:
    # at m = 1, N = 2 the coset {1} carries e^{-x/2} Gamma(1/2) and the coset {2}
    # carries Gamma(-1/2); at |x| = 100 the other coset is e^-50 below
    def test_single_factor(self):
        v = leading_asymptotic(SpectralData(1, 2, (0.5, 0.0), 1.0, -100.0))
        assert v.to_complex() == pytest.approx(math.exp(50.0) * SQRT_PI, rel=1e-13)

    def test_negative_coefficient(self):
        v = leading_asymptotic(SpectralData(1, 2, (0.5, 0.0), 1.0, 100.0))
        assert v.to_complex() == pytest.approx(-2 * SQRT_PI, rel=1e-13)  # Gamma(-1/2)

    def test_pole_named(self):
        with pytest.raises(PoleError, match=r"coset \(1,\): lambda_1 - lambda_2"):
            leading_asymptotic(SpectralData(1, 2, (0.0, 1.0), 1.0, -1.0))  # Gamma(-1)


class TestLeadingAsymptotic:
    def test_two_coset_closed_form(self):
        s = SpectralData(1, 2, (0.5, 0.0), 1.0, -5.0)
        expect = SQRT_PI * (math.exp(2.5) - 2.0)
        assert leading_asymptotic(s).to_complex().real == pytest.approx(expect, rel=1e-13)

    def test_formula_at_x_zero(self):
        # formula check only; not an approximation of Psi(0)
        s = SpectralData(1, 2, (0.5, 0.0), 1.0, 0.0)
        assert leading_asymptotic(s).to_complex().real == pytest.approx(-SQRT_PI, rel=1e-13)

    def test_equals_residue_order0(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            N = int(rng.integers(2, 5))
            m = int(rng.integers(1, N))
            lam = np.sort(rng.uniform(-1.5, 1.5, size=N))[::-1]
            if min(abs(np.diff(lam))) < 0.25:
                continue
            s = SpectralData(m, N, tuple(lam), float(rng.uniform(0.6, 1.6)), float(rng.uniform(-6, -1)))
            terms = [residue_term(js, (0,) * m, s)
                     for js in itertools.permutations(range(1, N + 1), m)]
            order0 = rescaled_sum(terms)
            asym = leading_asymptotic(s)
            assert abs((order0 / asym).to_complex() - 1.0) <= 1e-12

    def test_permutation_invariance_exact(self):
        lam = (0.9, 0.4, -0.3, -1.15)
        s1 = SpectralData(2, 4, lam, 1.0, -4.0)
        v1 = leading_asymptotic(s1)
        rng = np.random.default_rng(1)
        for _ in range(5):
            s2 = SpectralData(2, 4, tuple(rng.permutation(lam)), 1.0, -4.0)
            v2 = leading_asymptotic(s2)
            assert v2.log_mag == v1.log_mag and v2.phase == v1.phase

    def test_ratio_approaches_one(self):
        for (m, N, lam) in [(1, 2, (0.5, 0.0)), (1, 3, (0.7, 0.0, -0.9)),
                            (2, 4, (0.9, 0.4, -0.3, -1.15))]:
            s = SpectralData(m, N, lam, 1.0, -12.0)
            mb = eval_mb(s, auto_contour(s, 1e-9), max_rel_err=None)
            ratio = (mb.value / leading_asymptotic(s)).to_complex()
            assert abs(ratio - 1.0) <= 1e-3

    def test_one_gamma1_table_per_call(self, monkeypatch):
        # the N(N-1) differences lambda_a - lambda_b are evaluated once, not per coset pair
        import parwhit.gammafns as gammafns
        points = []
        loggamma = gammafns._loggamma

        def counted(w):
            points.append(np.size(w))
            return loggamma(w)

        monkeypatch.setattr(gammafns, "_loggamma", counted)
        s = SpectralData(3, 6, (1.31, 0.86, 0.37, -0.08, -0.61, -1.17), 1.0, -4.0)
        leading_asymptotic(s)
        assert 0 < sum(points) <= 6 * 5

    def test_m1_reduces_to_n_term_sum(self):
        # m = 1: hbar * sum_i e^{-x lambda_i / hbar} prod_{j != i} gamma1(lambda_i - lambda_j)
        lam, h, x = (0.7, 0.0, -0.9), 0.75, -2.0
        expect = h * sum(cmath.exp(-x * li / h + sum(log_gamma1(complex(li - lj), h) for lj in lam if lj != li))
                         for li in lam)
        got = leading_asymptotic(SpectralData(1, 3, lam, h, x)).to_complex()
        assert got == pytest.approx(expect, rel=1e-13)
