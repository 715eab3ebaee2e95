"""Mellin-Barnes contour quadrature for the specialized Whittaker function.

Evaluates

    Psi(x) = (2*pi*i)^(-m) Int_C dgamma  e^{-(x/hbar) sum gamma_i}
             * prod_{i<=m, j<=N} gamma1(gamma_i - lambda_j | hbar)
             * prod_{i != k}    1 / gamma1(gamma_i - gamma_k | hbar)

on the truncated product contour C = (i[-T, T] + epsilon)^m with a uniform
trapezoid rule per dimension.  The integrand is analytic in a strip around
the contour and decays in every |Im gamma_i| direction, so the trapezoid
converges geometrically in both the step and the truncation.

The sum is not formed node by node.  On the vertical contour the pair
measure factorizes into two Vandermonde determinants,

    prod_{i != k} 1 / gamma1(i(y_i - y_k) | hbar)
        = (2 pi hbar)^(-m(m-1)/2) det[y_i^j] det[e^{(2k-m+1) pi y_i / hbar}],

so by the Andréief (Cauchy-Binet) identity, which holds for the discrete
trapezoid measure as for any other, the m-fold tensor sum over n^m nodes
equals exactly

    m! (T / (2 pi hbar))^(m(m-1)/2) det M,
    M_jk = sum_y w(y) f(y) (y/T)^j e^{(2k-m+1) pi y / hbar},

an m x m matrix of one-dimensional trapezoid moments (f: the exponent and
the N numerator gammas over 2 pi; w: the trapezoid weight).  The cost is
O(n m^2) instead of O(n^m), for every m.  Columns are rescaled in log space
and the determinant comes from an LU factorization (numpy.linalg.slogdet).

The error budget reads per-node leverages lev(y) = G[y] M^-1 F[y] (M = F^T G):
by the matrix-determinant lemma, dropping node y scales det M by
1 - lev(y), and the leverages sum to m.  The truncation tail is the
leverage of the two end nodes, continued over ~2 hbar of further decay;
sum |lev| / m measures the cancellation between nodes and scales both the
aliasing term and the round-off floor 2e-16 sqrt(n) sum |lev|.

Contour placement trades two error sources against each other: the distance
of epsilon above max(lambda) sets the analyticity margin (hence the step),
while for x << 0 every unit of that distance inflates the oscillatory
cancellation of the integral by e^{|x| m / hbar}.  auto_contour shrinks the
offset adaptively so the cancellation stays within double-precision reach.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DeskScaleError, PoleError, QuadratureError
from .gammafns import log_gamma1, on_pole_lattice
from .logcomplex import LogComplex
from .spectral import MAX_NODES_PER_DIM, ContourConfig, SpectralData

__all__ = ["MBResult", "integrand", "eval_mb", "auto_contour"]

#: target exponent for the discretization (aliasing) error of the trapezoid;
#: the Poisson-image amplitude carries a prefactor of order a few hundred
_DISC_DECADES = 25.3  # ln(1e11)

#: cancellation budget (in nats) allotted to the contour offset at large |x|*m
_CANCEL_BUDGET = 10.0

_PROBE_NODES = 33
_GROWTH = 1.5

#: largest m the 33^m contour probe of auto_contour serves (eval_mb serves every m)
MAX_QUAD_DIM = 3


@dataclass(frozen=True)
class MBResult:
    """Quadrature value with a relative error estimate.

    error_estimate aggregates the contour-truncation tail, the trapezoid
    aliasing error, and the round-off floor of the moment sums; it is an
    order-of-magnitude bound, not a rigorous one.
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


def _numerator_log(s: SpectralData, epsilon: float, y: np.ndarray) -> np.ndarray:
    """Per-dimension log factor A(y): exponent plus the N gamma1 numerators."""
    g = epsilon + 1j * y
    terms = log_gamma1(g - s.lam_array[:, None], s.hbar)
    return np.vstack([-(s.x / s.hbar) * g, terms]).sum(axis=0)


def _pair_log(s: SpectralData, y: np.ndarray) -> np.ndarray:
    """Symmetrized log of the pair measure: Q[a,b] = -log gamma1(i(y_a - y_b)) - log gamma1(i(y_b - y_a)).

    The diagonal carries the exact zero of the measure (log = -inf).
    """
    h = s.hbar
    eye = np.eye(len(y), dtype=bool)
    C = -log_gamma1(np.where(eye, h, 1j * (y[:, None] - y[None, :])), h)
    C[eye] = -np.inf
    return C + C.T


def _moments(s: SpectralData, c: ContourConfig):
    """Andréief moment matrix of the trapezoid rule on the contour c.

    Returns (F, G, M, log_scale): F[y, j] = (y/T)^j and
    G[y, k] = exp((2k - m + 1) pi y / hbar + A(y) - log_scale[k]) over the
    nodes y, where A carries the numerator, the trapezoid weight and the
    1/(2 pi) of the measure; M = F^T G is the m x m moment matrix.
    """
    m, h, T = s.m, s.hbar, c.half_extent
    y = np.linspace(-T, T, c.nodes_per_dim)
    logw = np.full(y.size, math.log(c.step))
    logw[[0, -1]] -= math.log(2.0)
    A = _numerator_log(s, c.epsilon, y) + logw - math.log(2.0 * math.pi)
    k = np.arange(m)
    E = A[:, None] + np.outer(y, (2 * k - m + 1) * (math.pi / h))
    log_scale = E.real.max(axis=0)
    G = np.exp(E - log_scale)
    F = (y / T)[:, None] ** k
    return F, G, F.T @ G, log_scale


def eval_mb(
    s: SpectralData,
    c: ContourConfig,
    *,
    max_rel_err: float | None = 1e-3,
) -> MBResult:
    """Trapezoid approximation of the MB integral on the contour c.

    Returns the value together with a relative error estimate.  When the
    estimate exceeds max_rel_err the quadrature is reported as non-converged
    (QuadratureError); pass max_rel_err=None to disable the check.
    """
    c.validate_for(s)
    m, h = s.m, s.hbar

    F, G, M, log_scale = _moments(s, c)
    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return MBResult(LogComplex.zero(), math.inf, c)
    pairs = m * (m - 1) // 2
    log_mag = (logdet + float(log_scale.sum()) + math.lgamma(m + 1)
               + pairs * math.log(c.half_extent / (2.0 * math.pi * h)))
    value = LogComplex(log_mag, float(np.angle(sign)))

    # removing node y scales det M by 1 - G[y] M^-1 F[y]; these leverages sum to m
    lev = np.abs(np.einsum("yk,ky->y", G, np.linalg.solve(M, F.T)))
    lev_sum = float(lev.sum())
    amp = max(0.0, math.log(lev_sum / m))
    # truncation: end-node leverage, extended over ~2 hbar of further decay
    tail_rel = float(lev[0] + lev[-1]) * (2.0 * h / c.step)
    # aliasing: analyticity margin d, oscillation |x|/h, pair-measure growth pi(m-1)/h
    d = min(c.epsilon - s.lam_max, h)
    alias_log = -(2 * math.pi / c.step) * d + (abs(s.x) / h + math.pi * (m - 1) / h) * d
    alias_rel = 300.0 * math.exp(max(-700.0, alias_log + 0.5 * amp))
    # round-off of the moment sums, amplified by cancellation between nodes
    noise_rel = 2e-16 * math.sqrt(c.nodes_per_dim) * lev_sum
    err = tail_rel + alias_rel + noise_rel

    if max_rel_err is not None and err > max_rel_err:
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds {max_rel_err:.2e} "
            f"(tail {tail_rel:.1e}, aliasing {alias_rel:.1e}, round-off {noise_rel:.1e})"
        )
    return MBResult(value, err, c)


def _contour_offset(s: SpectralData) -> float:
    """Offset of the contour above max(lambda).

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


def auto_contour(s: SpectralData, tol: float) -> ContourConfig:
    """Choose a contour for eval_mb by growing the truncation geometrically.

    The half-extent T grows until the largest integrand magnitude on the
    truncation boundary of a coarse probe grid falls below tol times the
    largest magnitude in the interior; the node count then enforces both the
    step bound hbar/4 and the aliasing/oscillation budget.  A node count above
    MAX_NODES_PER_DIM raises QuadratureError before anything is allocated, and
    before the probe when T = 2 hbar already exceeds it.
    """
    if not (tol > 0):
        raise ConfigError(f"tol must be > 0, got {tol}")
    m, h = s.m, s.hbar
    if m > MAX_QUAD_DIM:
        raise DeskScaleError(
            f"m = {m} exceeds the desk-scale limit ({MAX_QUAD_DIM}) of the quadrature contour probe"
        )
    if s.N < 2 * m - 1:
        # |y_i| -> inf: the numerators decay like e^{-N pi |y| / (2 hbar)}, the
        # pair measure grows like e^{(m-1) pi |y| / hbar}
        raise QuadratureError(
            f"the contour integrand decays too slowly for (m, N) = ({m}, {s.N}); "
            "the vertical contour needs N >= 2m-1"
        )
    eps = s.lam_max + _contour_offset(s)
    delta = eps - s.lam_max
    step = 2.0 * math.pi * delta / (_DISC_DECADES + (abs(s.x) + math.pi * (m - 1)) * delta / h)
    step = min(step, h / 4.0)

    def nodes(T: float) -> int:
        span = 2.0 * T / step if step > 0 else math.inf
        if not span < MAX_NODES_PER_DIM - 1:
            raise QuadratureError(
                f"the contour at x = {s.x:g} needs about {span:.3g} nodes per dimension, above the "
                f"cap of {MAX_NODES_PER_DIM}; the oscillation e^(-x gamma / hbar) is too fast"
            )
        return max(16, int(math.ceil(span)) + 1)

    T = 2.0 * h
    nodes(T)   # T only grows: refuse now if even the smallest truncation is too fine
    while True:
        if T > 200.0 * h * s.N:
            raise QuadratureError(
                f"no contour truncation below T = {T:.3g} reached boundary decay {tol:g}; "
                "the integrand decays too slowly (check the instance scale)"
            )
        y = np.linspace(-T, T, _PROBE_NODES)
        A = _numerator_log(s, eps, y).real
        # R = sum_i A(y_i) + sum_{i<k} Q(y_i, y_k) on the probe cube, added in that order
        R = 0.0
        for i in range(m):
            R = R + np.expand_dims(A, [a for a in range(m) if a != i])
        if m > 1:
            Q = _pair_log(s, y).real
            for i, k in itertools.combinations(range(m), 2):
                R = R + np.expand_dims(Q, [a for a in range(m) if a not in (i, k)])
        R = np.where(np.isfinite(R), R, -np.inf)
        gmax = float(R.max())
        # the truncation boundary: some y_i at an end node
        bmax = max(float(np.take(R, [0, -1], axis=i).max()) for i in range(m))
        if bmax <= math.log(tol) + gmax:
            break
        T *= _GROWTH

    return ContourConfig(epsilon=eps, half_extent=T, nodes_per_dim=nodes(T))
