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
max(lambda) + _contour_offset.  For real lambda and x, x_{m-1-k} = conj(x_k),
so conjugate columns share one saddle solve, one truncation probe and one
line.  On a line, sum_j log gamma1(gamma - lambda_j) and the monomial rows do
not depend on x_k: eval_mb computes them once per distinct line, on the
trapezoid and the midpoint nodes, and shares them among the columns on it.
Every node set (trapezoid, midpoint, truncation probe) is exactly symmetric
about y = 0, and for real lambda the gamma product at c - i y is the
conjugate of the one at c + i y, so _line_log evaluates the y >= 0 half of
each table and conjugates it: the gamma work is about distinct lines x n/2 x
N values.  The per-node size of the gamma terms is even in y and is computed
on the same half.  eval_mb derives column m-1-k > k from column k whenever
their lines are equal (a hand-set contour whose mirror lines differ
evaluates both): its row i is (-1)^i times the conjugate of column k's, its
scale and tail are column k's, and its node terms are column k's reversed
and conjugated.  auto_contour probes the rungs of its truncation ladder
eight at a time, in one log_gamma1 call, and keeps the first that passes.
Each column is one trapezoid sum, scaled in log space, and det M comes from
slogdet.  On one common line this is exactly the m-fold tensor trapezoid
sum.  The error estimate adds, per column, the tail, weighted by the
determinant's sensitivity to the column; the aliasing, as half the change of
log det M from the trapezoid to the midpoint rule on the same line; and the
round-off of each node's terms of log W, weighted by the node's share
G[y] F[y] M^-1[:,k] of log det M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DeskScaleError, QuadratureError
from .gammafns import digamma, log_gamma1
from .logcomplex import LogComplex
from .spectral import MAX_NODES_PER_DIM, MAX_REL_ERR, ContourConfig, SpectralData

__all__ = ["MBResult", "eval_mb", "auto_contour"]

#: target exponent of the trapezoid's aliasing error (ln 1e13; at ln 1e11 the
#: values on a line at max(lambda) + hbar stopped at 4e-11)
_DISC_DECADES = 29.9

#: cancellation budget (in nats) allotted to the contour offset at large |x|*m
_CANCEL_BUDGET = 10.0

#: the truncation probe's nodes on [-1, 1], exact dyadics symmetric about 0
_PROBE_GRID = np.linspace(-1.0, 1.0, 33)
_GROWTH = 1.5

#: rungs of the truncation ladder probed in one log_gamma1 call: 8 reach T = 2 hbar 1.5^7, about
#: 34 hbar, which is as far as the benchmark's instances climb
_PROBE_CHUNK = 8

#: margin of the truncation probe below tol: an outer column decays only like e^{-pi |t| / 2}
_TAIL_MARGIN = 1e-4

#: the end nodes and their inner neighbours, whose sizes give a column's tail
_ENDS = [0, -1, 1, -2]

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


def _column_shifts(s: SpectralData) -> np.ndarray:
    """x_k = x + i pi (2k - m + 1): column k is the m = 1 integrand at x_k."""
    return s.x + 1j * math.pi * (2 * np.arange(s.m) - s.m + 1)


def _mirror(up: np.ndarray, n: int) -> np.ndarray:
    """The n-node table whose y >= 0 half (its last n - n // 2 entries, along the last axis) is
    up and whose value at -y is the conjugate of that at y."""
    return np.concatenate([up[..., ::-1][..., :n // 2].conj(), up], axis=-1)


def _line_log(s: SpectralData, c: float, y: np.ndarray) -> np.ndarray:
    """sum_j log gamma1(gamma - lambda_j) at gamma = c + i y: log W = -(x_k/hbar) gamma + this.

    The nodes, along the last axis of y, must satisfy y[..., ::-1] == -y.  The sum is evaluated
    on the y >= 0 half only; at -y it is the conjugate (Schwarz reflection for real lambda, bit
    for bit in scipy's loggamma).
    """
    n = y.shape[-1]
    lam = s.lam_array.reshape((-1,) + (1,) * y.ndim)
    return _mirror(log_gamma1(c + 1j * y[..., n // 2:] - lam, s.hbar).sum(axis=0), n)


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
    # nodes exactly symmetric about y = 0, so that _line_log evaluates half of each table
    y = c.step * (np.arange(n) - (n - 1) / 2)
    ym = c.step * (np.arange(n - 1) - (n - 2) / 2)
    logw = np.full(n, math.log(c.step / (2.0 * math.pi)))
    logw[[0, -1]] -= math.log(2.0)
    # rows (-i gamma / S)^i stay within [0, 1]; det M carries S^P
    S = max(abs(complex(ck, c.half_extent)) for ck in c.lines)
    M, Mid = np.empty((2, m, m), dtype=complex)
    log_scale, tails = np.empty((2, m))
    # row i of column m-1-k is (-1)^i conj of column k's on a common line (x_{m-1-k} = conj(x_k))
    mirror = (-1.0) ** np.arange(m)
    tables, cols = {}, []
    for k, (xk, ck) in enumerate(zip(_column_shifts(s), c.lines)):
        j = m - 1 - k
        if j < k and c.lines[j] == ck:
            M[:, k], Mid[:, k] = mirror * M[:, j].conj(), mirror * Mid[:, j].conj()
            log_scale[k], tails[k] = log_scale[j], tails[j]
            G, F, size = cols[j]
            cols.append((G[::-1].conj(), F, size[::-1]))
            continue
        if ck not in tables:
            # what the columns on this line share: the nodes, their gamma products and monomial
            # rows, on the trapezoid nodes g and on the midpoint rule's gm, whose aliasing error
            # is the trapezoid's with the opposite sign (Poisson summation), so that half their
            # difference is the trapezoid's; and the size of the gamma terms of log W per node,
            # which is even in y
            g, gm = ck + 1j * y, ck + 1j * ym
            w = np.abs(g[n // 2:] - s.lam_array[:, None]) / h
            size = (w * (abs(math.log(h)) + np.abs(np.log(w)) + math.pi + 1.0)).sum(axis=0)
            tables[ck] = (g, _line_log(s, ck, y), (-1j * g / S)[:, None] ** np.arange(m),
                          gm, _line_log(s, ck, ym), (-1j * gm / S)[:, None] ** np.arange(m),
                          _mirror(size, n))
        g, lg, F, gm, lgm, Fm, size = tables[ck]
        A = -(xk / h) * g + lg + logw
        log_scale[k] = A.real.max()
        G = np.exp(A - log_scale[k])
        M[:, k] = G @ F
        Mid[:, k] = np.exp(-(xk / h) * gm + lgm + logw[1] - log_scale[k]) @ Fm
        # the end nodes carry half weight; beyond them the nodes decay by q each
        end, inner = (np.linalg.norm(F[_ENDS], axis=1) * np.abs(G[_ENDS])).reshape(2, 2)
        q = np.divide(2.0 * end, inner, out=np.zeros(2), where=end > 0)
        more = np.divide(1.0 + q, 1.0 - q, out=np.full(2, np.inf), where=q < 1.0)
        tails[k] = end @ np.maximum(2.0 * h / c.step, more)
        # per node, the size of the terms of log W (x_k gamma / hbar, w log hbar + loggamma(w)):
        # their round-off, and the node's own, is a relative error of W of eps times that
        cols.append((G, F, np.abs(xk * g) / h + size))

    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        if max_rel_err is not None:
            raise QuadratureError("the column matrix M is singular: the quadrature has no value "
                                  "to serve on this contour")
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
    fall 1e-4 tol below its peak, less a floored line's cancellation.  Column
    m-1-k is column k conjugated: its saddle is the conjugate (bit for bit),
    its probe is column k's reversed, so each conjugate pair is solved and
    probed once and lines[m-1-k] == lines[k].  The rungs T = 2 hbar 1.5^j up
    to the cap are probed _PROBE_CHUNK at a time, in one log_gamma1 call on a
    (rungs x 17) half grid, and the first that passes is taken: the same T as
    one rung at a time.  A node
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
    xs = _column_shifts(s)[:(m + 1) // 2]
    half = [max(_saddle(s, xk).real, floor) for xk in xs]
    lines = tuple(half + half[:m // 2][::-1])
    T = 0.0
    for xk, ck in zip(xs, half):
        gap = max(0.0, -s.x) * (ck - s.lam_max) / h   # cancellation of a floored line
        ladder, t, cap = [], 2.0 * h, 200.0 * s.N * max(h, ck - s.lam_max)
        while t <= cap:
            ladder.append(t)
            t *= _GROWTH
        for i in range(0, len(ladder), _PROBE_CHUNK):
            y = np.array(ladder[i:i + _PROBE_CHUNK])[:, None] * _PROBE_GRID
            a = (-(xk / h) * (ck + 1j * y) + _line_log(s, ck, y)).real
            passed = np.flatnonzero(np.maximum(a[:, 0], a[:, -1])
                                    <= math.log(_TAIL_MARGIN * tol) + a.max(axis=1) - gap)
            if passed.size:
                T = max(T, ladder[i + passed[0]])
                break
        else:
            raise QuadratureError(
                f"no contour truncation below T = {t:.3g} reached boundary decay {tol:g}; "
                "the integrand decays too slowly (check the instance scale)")
    return ContourConfig(lines, T, nodes(T, step_for(min(lines) - s.lam_max)))
