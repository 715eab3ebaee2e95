"""Mellin-Barnes contour quadrature for the specialized Whittaker function.

The m-fold integral of e^{-(x/hbar) sum gamma_i} prod_{i,j} gamma1(gamma_i - lambda_j)
over the pair measure prod_{i != k} 1/gamma1(gamma_i - gamma_k) is, by the
Vandermonde form of the measure and the Andréief identity,
Psi = m! (2 pi hbar)^(-m(m-1)/2) det M with

    M_ik = (2 pi i)^(-1) Int (-i gamma)^i e^{-x_k gamma/hbar} prod_j gamma1(gamma - lambda_j) dgamma,

x_k = x + i pi (2k - m + 1): column k is the m = 1 integral at x_k (the
abelian/non-abelian form of the Grassmannian J-function).  Each column runs
on its own vertical line, through its saddle (the root of
sum_j psi((sigma - lambda_j)/hbar) + N log hbar = x_k) or at the floor
max(lambda) + _contour_offset; it is one trapezoid sum, scaled in log space,
and det M comes from slogdet.  On one common line this is exactly the m-fold
tensor trapezoid sum.  The error estimate adds, per column, the tail, weighted
by the determinant's sensitivity to the column; the aliasing, as half the
change of log det M from the trapezoid to the midpoint rule on the same line;
and the round-off of each node's terms of log W, weighted by the node's share
G[y] F[y] M^-1[:,k] of log det M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DeskScaleError, PoleError, QuadratureError
from .gammafns import digamma, log_gamma1, on_pole_lattice
from .logcomplex import LogComplex
from .spectral import MAX_NODES_PER_DIM, MAX_REL_ERR, ContourConfig, SpectralData

__all__ = ["MBResult", "integrand", "eval_mb", "auto_contour"]

#: target exponent of the trapezoid's aliasing error (ln 1e13; at ln 1e11 the
#: values on a line at max(lambda) + hbar stopped at 4e-11)
_DISC_DECADES = 29.9

#: cancellation budget (in nats) allotted to the contour offset at large |x|*m
_CANCEL_BUDGET = 10.0

_PROBE_NODES = 33
_GROWTH = 1.5

#: margin of the truncation probe below tol: an outer column decays only like e^{-pi |t| / 2}
_TAIL_MARGIN = 1e-4

#: margin of the aliasing term over half the change from the trapezoid to the midpoint rule
_ALIAS_MARGIN = 10.0

#: round-off of W per unit size of the terms of log W, added over the nodes as if in phase:
#: 8 x 2e-16, because at 2e-16 the (1,2) rows at x = -8 kept only 3.1x over their error
_ROUND_OFF = 1.6e-15

#: largest m auto_contour serves: at m = 4 the estimate no longer bounds the error
MAX_QUAD_DIM = 3


@dataclass(frozen=True)
class MBResult:
    """Quadrature value with a relative error estimate.

    error_estimate aggregates the contour-truncation tail, the trapezoid
    aliasing error, and the round-off of the integrand's terms, node by node;
    it is an order-of-magnitude bound, not a rigorous one.
    """

    value: LogComplex
    error_estimate: float
    config: ContourConfig


def integrand(gamma: Sequence[complex], s: SpectralData) -> LogComplex:
    """The MB integrand at a single point gamma in C^m (no contour weights).

    Coincident gamma components are legal and give an exact zero through the
    reciprocal-gamma measure; a gamma_i - lambda_j on the pole lattice raises
    PoleError.
    """
    g = np.array([complex(v) for v in gamma])
    if g.size != s.m:
        raise ConfigError(f"gamma must have m = {s.m} components")
    h = s.hbar
    num = g[:, None] - s.lam_array
    poles = on_pole_lattice(num / h)
    if poles.any():
        raise PoleError(f"gamma - lambda_j = {num[poles][0]} lies on the gamma1 pole lattice")
    pairs = (g[:, None] - g)[~np.eye(s.m, dtype=bool)]
    if on_pole_lattice(pairs / h).any():
        return LogComplex.zero()
    return LogComplex.from_log(complex(
        -(s.x / h) * g.sum() + log_gamma1(num, h).sum() - log_gamma1(pairs, h).sum()))


def _column_shifts(s: SpectralData) -> np.ndarray:
    """x_k = x + i pi (2k - m + 1): column k is the m = 1 integrand at x_k."""
    return s.x + 1j * math.pi * (2 * np.arange(s.m) - s.m + 1)


def _column_log(s: SpectralData, xk: complex, g: np.ndarray) -> np.ndarray:
    """log W(gamma) = -(x_k/hbar) gamma + sum_j log gamma1(gamma - lambda_j) at the nodes g."""
    return -(xk / s.hbar) * g + log_gamma1(g - s.lam_array[:, None], s.hbar).sum(axis=0)


def eval_mb(
    s: SpectralData,
    c: ContourConfig,
    *,
    max_rel_err: float | None = MAX_REL_ERR,
) -> MBResult:
    """Trapezoid approximation of the MB integral on the contour c.

    Returns the value together with a relative error estimate.  When the
    estimate exceeds max_rel_err the quadrature is reported as non-converged
    (QuadratureError); pass max_rel_err=None to disable the check.
    """
    c.validate_for(s)
    m, h, n = s.m, s.hbar, c.nodes_per_dim
    y = np.linspace(-c.half_extent, c.half_extent, n)
    logw = np.full(n, math.log(c.step / (2.0 * math.pi)))
    logw[[0, -1]] -= math.log(2.0)
    # rows (-i gamma / S)^i stay within [0, 1]; det M carries S^P
    S = max(abs(complex(ck, c.half_extent)) for ck in c.lines)
    M, Mid = np.empty((2, m, m), dtype=complex)
    log_scale, tails = np.empty((2, m))
    cols = []
    for k, (xk, ck) in enumerate(zip(_column_shifts(s), c.lines)):
        g = ck + 1j * y
        A = _column_log(s, xk, g) + logw
        log_scale[k] = A.real.max()
        G = np.exp(A - log_scale[k])
        F = (-1j * g / S)[:, None] ** np.arange(m)
        M[:, k] = G @ F
        # the midpoint rule on the same line, whose aliasing error is the trapezoid's with the
        # opposite sign (Poisson summation), so that half their difference is the trapezoid's
        gm = g[:-1] + 0.5j * c.step
        Gm = np.exp(_column_log(s, xk, gm) + logw[1] - log_scale[k])
        Mid[:, k] = Gm @ (-1j * gm / S)[:, None] ** np.arange(m)
        absF = np.linalg.norm(F, axis=1) * np.abs(G)
        # the end nodes carry half weight; beyond them the nodes decay by q each
        end = absF[[0, -1]]
        q = np.divide(2.0 * end, absF[[1, -2]], out=np.zeros(2), where=end > 0)
        more = np.divide(1.0 + q, 1.0 - q, out=np.full(2, np.inf), where=q < 1.0)
        tails[k] = end @ np.maximum(2.0 * h / c.step, more)
        # per node, the size of the terms of log W (x_k gamma / hbar, w log hbar + loggamma(w)):
        # their round-off, and the node's own, is a relative error of W of eps times that
        w = np.abs(g - s.lam_array[:, None]) / h
        size = np.abs(xk * g) / h + (w * (abs(math.log(h)) + np.abs(np.log(w)) + math.pi + 1.0)).sum(axis=0)
        cols.append((G, F, size))

    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return MBResult(LogComplex.zero(), math.inf, c)
    pairs = m * (m - 1) // 2
    log_mag = (float(logdet) + float(log_scale.sum()) + math.lgamma(m + 1)
               + pairs * math.log(S / (2.0 * math.pi * h)))
    value = LogComplex(log_mag, float(np.angle(sign)))

    # relative error of det M per unit absolute error of column k: ||M^-1[k,:]||
    inv = np.linalg.inv(M)
    sens = np.linalg.norm(inv, axis=1)
    tail_rel = float(sens @ tails)
    alias_rel = _ALIAS_MARGIN * 0.5 * float(np.abs(np.einsum("ki,ik->k", inv, Mid - M)).sum())
    # round-off: a relative error e of node y's term moves log det M by e G[y] F[y] M^-1[:,k]
    noise_rel = _ROUND_OFF * sum(float(np.abs(G * (F @ inv[k])) @ size)
                                 for k, (G, F, size) in enumerate(cols))
    err = tail_rel + alias_rel + noise_rel

    if max_rel_err is not None and not err <= max_rel_err:
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds {max_rel_err:.2e} "
            f"(tail {tail_rel:.1e}, aliasing {alias_rel:.1e}, round-off {noise_rel:.1e})"
        )
    return MBResult(value, err, c)


def _contour_offset(s: SpectralData) -> float:
    """Least offset of a line above max(lambda).

    The default is one full hbar.  For strongly negative x the integrand's
    oscillatory cancellation grows like e^{(|x|/hbar)(m*offset + spread)}, so
    the offset shrinks (floored at 0.2 hbar) to keep the cancellation within
    the double-precision budget.
    """
    h = s.hbar
    if s.x == 0:
        return h
    top = float(np.sort(s.lam_array)[-s.m:].sum())
    intrinsic = (abs(s.x) / h) * (s.m * s.lam_max - top)
    frac = (_CANCEL_BUDGET - intrinsic) * h / (s.m * abs(s.x))
    return h * min(1.0, max(0.2, frac))


def _saddle(s: SpectralData, xk: complex) -> complex:
    """Root of sum_j psi((sigma - lambda_j)/hbar) + N log hbar = x_k by Newton from
    lambda_max + max(hbar, |e^{x_k/N}|) e^{i Im(x_k)/N}, each step at most half
    the distance to max(lambda).  Refused where the round-off of the term
    x_k sigma / hbar of log W alone would exceed MAX_REL_ERR."""
    h, lam, top = s.hbar, s.lam_array, s.lam_max
    log_size = math.log(max(abs(xk), h) / h) + math.log(abs(top) + h) + max(0.0, xk.real / s.N)
    if log_size > math.log(MAX_REL_ERR / _ROUND_OFF):
        raise QuadratureError(f"the saddle at x = {s.x:g} lies near e^(x/N), beyond the reach of a "
                              f"double-precision quadrature: the terms of log W reach e^{log_size:.0f}")
    z = top + max(h, math.exp(xk.real / s.N)) * cmath.exp(1j * xk.imag / s.N)
    for _ in range(100):
        dz = 1e-7 * abs(z - top)
        f0, f1 = digamma((np.array([z, z + dz])[:, None] - lam) / h).sum(axis=1) + s.N * math.log(h) - xk
        step = -f0 * dz / (f1 - f0)
        if not abs(step) > 1e-13 * abs(z - top):
            break
        z += step * min(1.0, 0.5 * abs(z - top) / abs(step))
    return z


def auto_contour(s: SpectralData, tol: float) -> ContourConfig:
    """Lines, truncation and node count for eval_mb.

    T grows from 2 hbar until on every line the end nodes of a 33-node probe
    fall 1e-4 tol below its peak, less a floored line's cancellation.  A node
    count above MAX_NODES_PER_DIM is refused before anything is allocated, and
    before the saddles are solved when the coarsest step allows none at T = 2 hbar.
    """
    if not (tol > 0):
        raise ConfigError(f"tol must be > 0, got {tol}")
    m, h = s.m, s.hbar
    if m > MAX_QUAD_DIM:
        raise DeskScaleError(
            f"m = {m} exceeds the largest m ({MAX_QUAD_DIM}) whose quadrature error estimate is validated"
        )
    if s.N < 2 * m - 1:
        # |t| -> inf: the numerators decay like e^{-N pi |t| / (2 hbar)}, the
        # outer columns grow like e^{(m-1) pi |t| / hbar}
        raise QuadratureError(
            f"the contour integrand decays too slowly for (m, N) = ({m}, {s.N}); "
            "the vertical contour needs N >= 2m-1"
        )

    def step_for(d: float) -> float:
        d = min(d, h)
        return min(2.0 * math.pi * d / (_DISC_DECADES + abs(s.x) * d / h), h / 4.0)

    def nodes(T: float, step: float) -> int:
        span = 2.0 * T / step if step > 0 else math.inf
        if not span < MAX_NODES_PER_DIM - 1:
            raise QuadratureError(
                f"the contour at x = {s.x:g} needs about {span:.3g} nodes per dimension, above the "
                f"cap of {MAX_NODES_PER_DIM}; the oscillation e^(-x gamma / hbar) is too fast"
            )
        return max(16, int(math.ceil(span)) + 1)

    nodes(2.0 * h, step_for(h))  # no line allows a coarser step: refuse before the saddles
    floor = s.lam_max + _contour_offset(s)
    xs = _column_shifts(s)
    lines = tuple(max(_saddle(s, xk).real, floor) for xk in xs)
    T = 0.0
    for xk, ck in zip(xs, lines):
        gap = max(0.0, -s.x) * (ck - s.lam_max) / h   # cancellation of a floored line
        t = 2.0 * h
        while True:
            if t > 200.0 * s.N * max(h, ck - s.lam_max):
                raise QuadratureError(
                    f"no contour truncation below T = {t:.3g} reached boundary decay {tol:g}; "
                    "the integrand decays too slowly (check the instance scale)")
            a = _column_log(s, xk, ck + 1j * np.linspace(-t, t, _PROBE_NODES)).real
            if max(a[0], a[-1]) <= math.log(_TAIL_MARGIN * tol) + a.max() - gap:
                break
            t *= _GROWTH
        T = max(T, t)
    return ContourConfig(lines, T, nodes(T, step_for(min(lines) - s.lam_max)))
