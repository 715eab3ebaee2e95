import itertools
import math

import numpy as np
import pytest

from parwhit import (ContourConfig, SpectralData, auto_contour, eval_mb,
                     eval_residue_series, mbquad)
from parwhit.errors import ConfigError, DeskScaleError, PoleError, QuadratureError
from parwhit.spectral import MAX_NODES_PER_DIM

from scipy.special import digamma

from oracles import (BESSEL_LOG_REFERENCE, BESSEL_REFERENCE, FROZEN_LAMBDA, PSI_REFERENCE,
                     PSI_SPECTRA, ROUND_OFF_REFERENCE, SADDLE_REFERENCE, integrand, k0_series,
                     ladder_half_extent, quad_serves, tensor_trapezoid)


def bessel_instance(x=0.0):
    return SpectralData(m=1, N=2, lam=(0.0, 0.0), hbar=1.0, x=x)


class TestIntegrand:
    def test_unit_point_two_gammas(self):
        s = bessel_instance()
        v = integrand([1.0 + 0j], s)
        assert v.to_complex() == pytest.approx(1.0, rel=1e-13)  # Gamma(1)^2

    def test_half_point_gives_pi(self):
        s = bessel_instance()
        v = integrand([0.5 + 0j], s)
        assert v.to_complex() == pytest.approx(math.pi, rel=1e-13)  # Gamma(1/2)^2

    def test_coincident_components_vanish(self):
        s = SpectralData(m=2, N=3, lam=(0.4, -0.2, 0.7), hbar=1.0, x=-1.0)
        v = integrand([1.3 + 0.4j, 1.3 + 0.4j], s)
        assert v.is_zero

    def test_pole_error(self):
        s = bessel_instance()
        with pytest.raises(PoleError):
            integrand([0.0 + 0j], s)
        with pytest.raises(PoleError):
            integrand([-2.0 + 0j], s)


class TestAutoContour:
    def test_epsilon_clears_lambda(self):
        # the line sits at the saddle, the root of sum_j psi(sigma - lambda_j) = x, or at
        # max(lambda) + hbar where that root lies closer to max(lambda), as it does here
        s = SpectralData(m=1, N=3, lam=(0.7, 0.0, -0.9), hbar=1.0, x=0.0)
        (line,) = auto_contour(s, 1e-9).lines
        assert line == pytest.approx(0.7 + 1.0)
        assert sum(digamma(line - v) for v in s.lam) > 0.0

    def test_saddle_at_the_digamma_root(self):
        # (1,2), lambda = 0, x = 0: 2 psi(sigma) = 0 at psi's positive root
        (line,) = auto_contour(bessel_instance(), 1e-9).lines
        assert line == pytest.approx(1.4616321449683623, rel=1e-12)

    def test_each_column_has_its_own_line(self):
        # x_k = x + i pi (2k - m + 1): the outer columns' saddles are complex
        # conjugates, so their lines coincide and differ from the middle one
        s = SpectralData(m=3, N=5, lam=(0.62, 0.31, 0.0, -0.33, -0.67), hbar=1.0, x=8.0)
        a, b, c = auto_contour(s, 1e-9).lines
        assert a == c
        assert abs(a - b) > 0.1

    @pytest.mark.parametrize("m,N,lam", [
        (1, 3, (0.7, 0.0, -0.9)),
        (2, 4, (0.9, 0.4, -0.3, -1.15)),
        (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67)),
    ])
    def test_one_saddle_per_conjugate_pair(self, monkeypatch, m, N, lam):
        calls, saddle = [], mbquad._saddle

        def counted(s, xk):
            calls.append(xk)
            return saddle(s, xk)

        monkeypatch.setattr(mbquad, "_saddle", counted)
        c = auto_contour(SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=-2.0), 1e-9)
        assert len(calls) == (m + 1) // 2
        assert c.lines == c.lines[::-1]

    @pytest.mark.parametrize("x", [-6.0, -1.0, 2.0, 8.0])
    @pytest.mark.parametrize("m,N", [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
    def test_saddle_is_conjugate_symmetric_bit_for_bit(self, m, N, x):
        # what lets auto_contour solve column m-1-k as column k: the same bits, conjugated
        # (_saddle refuses none of these points)
        for hbar in (0.4, 1.0):
            s = SpectralData(m=m, N=N, lam=FROZEN_LAMBDA[N], hbar=hbar, x=x)
            for xk in mbquad._column_shifts(s):
                assert mbquad._saddle(s, xk.conjugate()) == mbquad._saddle(s, xk).conjugate()

    @pytest.mark.parametrize("m,N", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)])
    def test_chunked_probe_climbs_the_ladder_rung_by_rung(self, m, N):
        # probing eight rungs per log_gamma1 call picks the rung the one-rung ladder picks,
        # bit for bit, at every frozen-grid point auto_contour serves
        served = 0
        for hbar in (0.1, 0.2, 0.4, 0.7, 1.0, 1.3):
            for x in (-6.0, -3.0, -1.0, -0.3, 0.5, 2.0, 5.0, 8.0):
                s = SpectralData(m=m, N=N, lam=FROZEN_LAMBDA[N], hbar=hbar, x=x)
                try:
                    c = auto_contour(s, 1e-9)
                except QuadratureError:
                    continue
                served += 1
                assert c.half_extent == ladder_half_extent(s, c.lines, 1e-9)
        assert served >= 40

    def test_ladder_past_its_cap_is_refused(self):
        # far left of x = 0 a floored line cancels e^{|x| offset / hbar}, and no rung below
        # 200 N hbar clears it: the chunked probe refuses at the one-rung ladder's first rung
        s = SpectralData(m=1, N=2, lam=(0.3, -0.2), hbar=1.0, x=-1e4)
        lines = (s.lam_max + mbquad._contour_offset(s),)
        with pytest.raises(QuadratureError) as want:
            ladder_half_extent(s, lines, 1e-9)
        with pytest.raises(QuadratureError, match="no contour truncation below T = ") as got:
            auto_contour(s, 1e-9)
        assert str(want.value) in str(got.value)

    def test_offset_shrinks_for_strongly_negative_x(self):
        s = SpectralData(m=3, N=5, lam=(0.62, 0.31, 0.0, -0.33, -0.67), hbar=1.0, x=-5.0)
        c = auto_contour(s, 1e-9)
        assert all(s.lam_max + 0.19 < line < s.lam_max + 1.0 for line in c.lines)

    def test_step_bound(self):
        s = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.0, x=-3.0)
        c = auto_contour(s, 1e-9)
        assert c.step <= s.hbar / 4 + 1e-15
        assert c.nodes_per_dim - 1 >= 2 * c.half_extent / (s.hbar / 4)

    def test_bessel_truncation_in_sane_range(self):
        c = auto_contour(bessel_instance(), 1e-10)
        assert 6.0 <= c.half_extent <= 64.0

    def test_zero_tol_rejected(self):
        with pytest.raises(ConfigError):
            auto_contour(bessel_instance(), 0.0)

    def test_desk_scale_limit(self):
        s = SpectralData(m=4, N=6, lam=(1.0, 0.5, 0.0, -0.5, -1.0, -1.5), hbar=1.0, x=0.0)
        with pytest.raises(DeskScaleError):
            auto_contour(s, 1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [-1e8, 1e308])
    def test_node_cap(self, x):
        # the step shrinks like 1/|x|; the search stops before a grid is allocated
        s = SpectralData(m=1, N=2, lam=(0.3, -0.2), hbar=1.0, x=x)
        with pytest.raises(QuadratureError, match="cap"):
            auto_contour(s, 1e-9)
        with pytest.raises(ConfigError, match="nodes_per_dim"):
            ContourConfig(lines=(1.0,), half_extent=8.0, nodes_per_dim=MAX_NODES_PER_DIM + 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_saddle_out_of_range_refused(self):
        # e^{x/N} would overflow a double: refused before the Newton start is formed
        s = SpectralData(m=1, N=2, lam=(0.3, -0.2), hbar=1.0, x=5000.0)
        with pytest.raises(QuadratureError, match="saddle"):
            auto_contour(s, 1e-9)


class TestEvalMB:
    def test_bessel_oracle_values(self):
        for x, ref in BESSEL_REFERENCE.items():
            s = bessel_instance(x)
            r = eval_mb(s, auto_contour(s, 1e-10))
            assert ref == pytest.approx(2 * k0_series(2 * math.exp(x / 2)), rel=1e-13)
            assert r.value.to_complex().real == pytest.approx(ref, rel=1e-8)

    def test_value_real_for_real_data(self):
        s = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.0, x=-2.0)
        z = eval_mb(s, auto_contour(s, 1e-9)).value.to_complex()
        assert abs(z.imag) <= 1e-10 * abs(z)

    def test_contour_shift_invariance(self):
        # moving the contour by hbar/2 within the pole-free half-plane is free
        for (m, N, lam) in [(1, 2, (0.5, 0.0)), (1, 3, (0.7, 0.0, -0.9)),
                            (2, 4, (0.9, 0.4, -0.3, -1.15))]:
            s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=-2.0)
            c = auto_contour(s, 1e-9)
            shifted = ContourConfig(tuple(v + 0.5 for v in c.lines), c.half_extent, c.nodes_per_dim)
            a = eval_mb(s, c).value
            b = eval_mb(s, shifted, max_rel_err=None).value
            assert abs((a / b).to_complex() - 1.0) <= 1e-8

    @staticmethod
    def count_log_gamma1(monkeypatch) -> list:
        calls, log_gamma1 = [], mbquad.log_gamma1

        def counted(z, hbar):
            calls.append(np.shape(z))
            return log_gamma1(z, hbar)

        monkeypatch.setattr(mbquad, "log_gamma1", counted)
        return calls

    @pytest.mark.parametrize("m,N,lam,distinct", [
        (1, 3, (0.7, 0.0, -0.9), 1),
        (2, 4, (0.9, 0.4, -0.3, -1.15), 1),
        (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), 2),
    ])
    def test_one_gamma_table_per_distinct_line(self, monkeypatch, m, N, lam, distinct):
        # the gamma product of a line does not depend on x_k: one call for its trapezoid
        # nodes and one for its midpoint nodes serve every column on it
        s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=2.0)
        c = auto_contour(s, 1e-9)
        assert len(set(c.lines)) == distinct
        calls = self.count_log_gamma1(monkeypatch)
        eval_mb(s, c)
        # each table is evaluated on its y >= 0 half: n - n // 2 trapezoid, n // 2 midpoint nodes
        n = c.nodes_per_dim
        assert calls == [(N, n - n // 2), (N, n // 2)] * distinct

    @pytest.mark.parametrize("n", [16, 17, 226, 227])
    def test_half_table_equals_the_direct_sum(self, n):
        # on nodes with y[::-1] == -y the conjugated upper half is the direct sum, bit for bit:
        # the trapezoid and midpoint nodes of eval_mb and auto_contour's probe
        from parwhit.gammafns import log_gamma1
        s = SpectralData(m=3, N=6, lam=FROZEN_LAMBDA[6], hbar=0.7, x=-1.0)
        step = 0.13
        for y in (step * (np.arange(n) - (n - 1) / 2), step * (np.arange(n - 1) - (n - 2) / 2),
                  0.05 * n * mbquad._PROBE_GRID):
            direct = log_gamma1(2.01 + 1j * y - s.lam_array[:, None], s.hbar).sum(axis=0)
            assert np.array_equal(mbquad._line_log(s, 2.01, y), direct)

    def test_hand_set_lines_get_a_table_each(self, monkeypatch):
        # three distinct lines on a (3,5) contour: three tables, and the value of the
        # auto_contour contour, whose outer columns share a line
        s = SpectralData(m=3, N=5, lam=(0.62, 0.31, 0.0, -0.33, -0.67), hbar=1.0, x=2.0)
        c = auto_contour(s, 1e-9)
        a, b, _ = c.lines
        hand = ContourConfig((a, b, a + 0.25), c.half_extent, c.nodes_per_dim)
        calls = self.count_log_gamma1(monkeypatch)
        r = eval_mb(s, hand)
        assert len(calls) == 6
        ref = eval_mb(s, c)
        assert abs((r.value / ref.value).to_complex() - 1.0) <= r.error_estimate + ref.error_estimate

    @pytest.mark.parametrize("x", [-5.0, -1.0, 2.0])
    @pytest.mark.parametrize("m,N", [(2, 4), (2, 5), (3, 5), (3, 6)])
    def test_mirror_column_is_derived_from_its_conjugate(self, monkeypatch, m, N, x):
        # the last column's line moved by one ulp is evaluated directly; on the auto_contour
        # contour it is the first column conjugated
        s = SpectralData(m=m, N=N, lam=FROZEN_LAMBDA[N], hbar=1.0, x=x)
        c = auto_contour(s, 1e-9)
        lines = c.lines[:-1] + (float(np.nextafter(c.lines[-1], np.inf)),)
        nudged = ContourConfig(lines, c.half_extent, c.nodes_per_dim)
        folded, direct = eval_mb(s, c), eval_mb(s, nudged)
        change = abs((folded.value / direct.value).to_complex() - 1.0)
        assert change <= min(folded.error_estimate, direct.error_estimate)
        # the aliasing term, half of Mid - M, is at round-off here and moves by up to 3x with
        # the ulp; the tail and round-off terms of the mirror column are column 0's
        monkeypatch.setattr(mbquad, "_ALIAS_MARGIN", 0.0)
        folded, direct = eval_mb(s, c), eval_mb(s, nudged)
        assert folded.error_estimate == pytest.approx(direct.error_estimate, rel=1e-6, abs=0.0)

    def test_singular_column_matrix_is_refused(self, monkeypatch):
        # a vanishing det M has no log to serve: refused unless the check is off
        s = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.0, x=-2.0)
        c = auto_contour(s, 1e-9)
        monkeypatch.setattr(np.linalg, "slogdet", lambda M: (0.0, -np.inf))
        with pytest.raises(QuadratureError, match="singular"):
            eval_mb(s, c)
        r = eval_mb(s, c, max_rel_err=None)
        assert r.value.is_zero and r.error_estimate == math.inf

    def test_doubling_change_within_reported_bound(self):
        for (m, N, lam, x) in [(1, 2, (0.0, 0.0), -2.0),
                               (2, 4, (0.9, 0.4, -0.3, -1.15), -3.0)]:
            s = SpectralData(m=m, N=N, lam=lam, hbar=1.0, x=x)
            c = auto_contour(s, 1e-9)
            doubled = ContourConfig(c.lines, c.half_extent, 2 * c.nodes_per_dim - 1)
            a = eval_mb(s, c)
            b = eval_mb(s, doubled)
            change = abs((a.value / b.value).to_complex() - 1.0)
            assert change <= 10.0 * a.error_estimate

    def test_translation_covariance(self):
        rng = np.random.default_rng(5)
        delta = 0.3
        shapes = [(1, 2), (1, 3), (2, 3), (2, 4)]
        for _ in range(20):
            m, N = shapes[int(rng.integers(0, len(shapes)))]
            lam = tuple(np.round(rng.uniform(-1, 1, size=N), 3))
            x = float(rng.uniform(-3, 1))
            s = SpectralData(m=int(m), N=int(N), lam=lam, hbar=1.0, x=x)
            c = auto_contour(s, 1e-9)
            s2 = SpectralData(m=int(m), N=int(N), lam=tuple(v + delta for v in lam), hbar=1.0, x=x)
            c2 = ContourConfig(tuple(v + delta for v in c.lines), c.half_extent, c.nodes_per_dim)
            a = eval_mb(s, c, max_rel_err=None).value
            b = eval_mb(s2, c2, max_rel_err=None).value
            expected_ratio = math.exp(-int(m) * delta * x / 1.0)
            assert abs((b / a).to_complex() / expected_ratio - 1.0) <= 1e-8

    def test_lambda_permutation_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            lam = tuple(np.round(rng.uniform(-1, 1, size=3), 3))
            perm = tuple(rng.permutation(lam))
            s1 = SpectralData(m=1, N=3, lam=lam, hbar=1.0, x=-1.0)
            s2 = SpectralData(m=1, N=3, lam=perm, hbar=1.0, x=-1.0)
            c = ContourConfig((max(lam) + 1.0,), 8.0, 129)
            a = eval_mb(s1, c, max_rel_err=None).value
            b = eval_mb(s2, c, max_rel_err=None).value
            assert abs((a / b).to_complex() - 1.0) <= 1e-10

    def test_config_validation(self):
        s = bessel_instance()
        with pytest.raises(ConfigError):
            eval_mb(s, ContourConfig(lines=(-0.5,), half_extent=8.0, nodes_per_dim=129))
        with pytest.raises(ConfigError):
            eval_mb(s, ContourConfig(lines=(1.0,), half_extent=8.0, nodes_per_dim=17))
        s2 = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.0, x=-2.0)
        with pytest.raises(ConfigError, match="m = 2 lines"):     # one line per column
            eval_mb(s2, ContourConfig(lines=(2.0,), half_extent=8.0, nodes_per_dim=129))

    @pytest.mark.parametrize("line", [0.3, 0.5, 0.8])
    def test_aliasing_is_measured_by_the_midpoint_rule(self, line):
        # a line at distance d from the poles of gamma1 at 0 aliases like e^{-2 pi d / step};
        # half the trapezoid-to-midpoint change is that error, and the estimate is 10x it
        r = eval_mb(bessel_instance(), ContourConfig((line,), 16.0, 129), max_rel_err=None)
        err = abs(r.value.to_complex() / BESSEL_REFERENCE[0.0] - 1.0)
        assert 1e-8 < err <= r.error_estimate <= 20.0 * err

    def test_m4_on_a_given_contour_matches_the_series(self):
        # the Andreief determinant serves every m; only auto_contour stops at m = 3
        lam = (1.31, 0.86, 0.37, -0.08, -0.61, -1.17, -1.52, -1.93)
        s = SpectralData(m=4, N=8, lam=lam, hbar=1.0, x=-3.0)
        r = eval_mb(s, ContourConfig(lines=(max(lam) + 0.5,) * 4, half_extent=30.0, nodes_per_dim=1201))
        diff = abs((r.value / eval_residue_series(s).value).to_complex() - 1.0)
        assert diff <= 1e-6
        assert r.error_estimate >= diff


class TestAndreiefReduction:
    @pytest.mark.parametrize("x", [-3.0, 0.0, 2.0])
    @pytest.mark.parametrize("m,N,lam,hbar", [
        (1, 3, (0.7, 0.0, -0.9), 1.0),
        (2, 4, (0.9, 0.4, -0.3, -1.15), 1.0),
        (2, 5, (1.17, 0.55, -0.02, -0.73, -1.38), 0.7),
        (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), 1.0),
    ])
    def test_determinant_equals_tensor_sum(self, m, N, lam, hbar, x):
        # the discrete Andreief identity: same nodes, same sum, no tensor grid
        s = SpectralData(m=m, N=N, lam=lam, hbar=hbar, x=x)
        # one common line for every column, where the columns' sums are the tensor sum
        line = max(lam) + 0.6 * hbar
        c = ContourConfig(lines=(line,) * m, half_extent=4.5 * hbar, nodes_per_dim=41)
        got = eval_mb(s, c, max_rel_err=None).value
        want, cancel = tensor_trapezoid(m, lam, hbar, x, line, c.half_extent,
                                        c.nodes_per_dim)
        rel = abs(np.expm1(complex(got.log_mag, got.phase) - want))
        # where the terms cancel, both sides lose digits in proportion
        assert rel <= max(1e-12, 100 * 1e-16 * cancel)

    @pytest.mark.parametrize("m,N,x", sorted(k for k in PSI_REFERENCE if quad_serves(*k[:2])))
    def test_frozen_reference_values(self, m, N, x):
        s = SpectralData(m=m, N=N, lam=PSI_SPECTRA[(m, N)], hbar=1.0, x=x)
        r = eval_mb(s, auto_contour(s, 1e-9))
        ref = PSI_REFERENCE[(m, N, x)]
        err = abs(r.value.to_complex() - ref) / abs(ref)
        assert err <= 1e-8
        assert r.error_estimate >= err


class TestTruncationCap:
    def test_slowly_decaying_instance_reports_diagnostic(self):
        # for N <= 2m-2 the pair-measure growth outruns the numerator decay,
        # so no truncation satisfies the boundary criterion; the search must
        # refuse with a diagnostic rather than return a bogus contour
        from parwhit.errors import QuadratureError
        s = SpectralData(m=3, N=4, lam=(0.9, 0.3, -0.4, -1.05), hbar=1.0, x=-1.0)
        with pytest.raises(QuadratureError, match="decays too slowly.*N >= 2m-1"):
            auto_contour(s, 1e-9)


class TestNonConvergenceReporting:
    def test_coarse_truncation_trips_threshold(self):
        from parwhit.errors import QuadratureError
        s = SpectralData(m=1, N=2, lam=(0.0, 0.0), hbar=1.0, x=0.0)
        coarse = ContourConfig(lines=(1.0,), half_extent=2.0, nodes_per_dim=17)
        with pytest.raises(QuadratureError, match="error estimate"):
            eval_mb(s, coarse, max_rel_err=1e-10)
        res = eval_mb(s, coarse, max_rel_err=None)
        assert res.error_estimate > 1e-10

    @pytest.mark.parametrize("lam,hbar,x", [((0.0, 0.0), 1.0, 8.0), ((0.3, -0.2), 0.2, 5.0)])
    @pytest.mark.parametrize("frac", [0.35, 0.5])
    def test_truncated_saddle_line_tail_is_bounded(self, lam, hbar, x, frac):
        # on a saddle line the integrand falls off like a Gaussian wider than 2 hbar,
        # so the tail estimate follows the end nodes' own decay
        s = SpectralData(m=1, N=2, lam=lam, hbar=hbar, x=x)
        c = auto_contour(s, 1e-9)
        T = frac * c.half_extent
        short = ContourConfig(c.lines, T, int(2 * T / c.step) + 2)
        r = eval_mb(s, short, max_rel_err=None)
        err = abs((r.value / eval_mb(s, c).value).to_complex() - 1.0)
        assert 1e-8 < err <= r.error_estimate

    def test_scalar_integrand_consistent_with_grid_assembly(self):
        # the scalar integrand is the product of the columns' one-variable
        # integrands at x and the pair measure; pin the two paths together
        from parwhit.gammafns import log_gamma1
        from parwhit.mbquad import _line_log
        s = SpectralData(m=2, N=4, lam=(0.9, 0.4, -0.3, -1.15), hbar=1.1, x=-2.0)
        y = np.array([-2.4, -1.7, -0.3, 0.3, 1.7, 2.4])
        g = 2.0 + 1j * y
        A = -(s.x / s.hbar) * g + _line_log(s, 2.0, y)
        for (a, b) in itertools.combinations(range(len(y)), 2):
            ga, gb = g[a], g[b]
            direct = integrand([ga, gb], s)
            pair = log_gamma1(ga - gb, s.hbar) + log_gamma1(gb - ga, s.hbar)
            log_grid = A[a] + A[b] - pair
            assert direct.log_mag == pytest.approx(log_grid.real, rel=1e-12, abs=1e-12)


class TestSaddleLines:
    @pytest.mark.parametrize("hbar,x", sorted(BESSEL_LOG_REFERENCE))
    def test_small_hbar_bessel(self, hbar, x):
        # Psi^(1,2) = 2h K_0(2 e^{x/2} / h); a line at lambda_max + hbar saw e^{-2/hbar} cancellation
        s = SpectralData(m=1, N=2, lam=(0.0, 0.0), hbar=hbar, x=x)
        r = eval_mb(s, auto_contour(s, 1e-9))
        err = abs(r.value.log_mag - BESSEL_LOG_REFERENCE[(hbar, x)])
        assert err <= 1e-10 and abs(r.value.phase) <= 1e-10
        assert r.error_estimate >= err

    @pytest.mark.parametrize("key", sorted(SADDLE_REFERENCE), ids=str)
    def test_large_x_references(self, key):
        m, N, lam, hbar, x = key
        s = SpectralData(m=m, N=N, lam=lam, hbar=hbar, x=x)
        r = eval_mb(s, auto_contour(s, 1e-9))
        err = abs(r.value.log_mag - SADDLE_REFERENCE[key])
        assert err <= 1e-10 and abs(r.value.phase) <= 1e-10
        assert r.error_estimate >= err


@pytest.mark.parametrize("key", sorted(ROUND_OFF_REFERENCE), ids=str)
def test_round_off_estimate_keeps_a_margin(key):
    # a host whose libm rounds differently moves these errors by 2x; the estimate stays 5x above
    m, N, lam, hbar, x = key
    s = SpectralData(m=m, N=N, lam=lam, hbar=hbar, x=x)
    r = eval_mb(s, auto_contour(s, 1e-9))
    err = abs(np.expm1(complex(r.value.log_mag - ROUND_OFF_REFERENCE[key], r.value.phase)))
    assert err <= 1e-10
    assert r.error_estimate >= 5.0 * err
