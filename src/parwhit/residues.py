"""Residue-lattice series for x < 0.

Closing each contour line to the left picks up the simple poles of the
numerator gammas at gamma_k = lambda_{j_k} - n_k * hbar (distinct j_k only;
repeated indices are killed by the zeros of the reciprocal-gamma measure).
The iterated residue of the (2*pi*i)^(-m)-normalized integrand at such a
point factorizes as

    prod_k  e^{-(x/hbar)(lambda_{j_k} - n_k hbar)}
            * hbar^(1 - n_k) * (-1)^(n_k) / n_k!          [gamma1 residue]
    * prod_k prod_{j not in image}  gamma1(lambda_{j_k} - lambda_j - n_k hbar)
    * prod_{k != l} gamma1(lambda_{j_k} - lambda_{j_l} - n_k hbar)
                   / gamma1(lambda_{j_k} - lambda_{j_l} - (n_k - n_l) hbar)

validated termwise against the quadrature evaluator (which is the oracle for
the per-variable residue factor hbar^(1-n) (-1)^n / n!).  Order-n terms carry
e^{x n}, so the series is summed by increasing total order with geometric
tail control; it is only offered for x < 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import ConfigError, DomainError
from .logcomplex import LogComplex, rescaled_sum
from .spectral import SpectralData

__all__ = ["PoleAssignment", "SeriesConfig", "SeriesResult",
           "enumerate_terms", "residue_term", "eval_residue_series"]

MAX_ORDER_CAP = 60


@dataclass(frozen=True)
class PoleAssignment:
    """One pole of the residue lattice: gamma_k = lambda_{j_k} - n_k * hbar.

    j holds m distinct 1-based indices into lambda; n the nonnegative shift
    counts.  order = sum(n).
    """

    j: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if len(self.j) != len(self.n):
            raise ConfigError("j and n must have equal length")
        if len(set(self.j)) != len(self.j):
            raise ConfigError(f"repeated lambda index in {self.j} (term vanishes identically)")
        if any(k < 0 for k in self.n):
            raise ConfigError("shift counts must be >= 0")

    @property
    def order(self) -> int:
        return sum(self.n)


@dataclass(frozen=True)
class SeriesConfig:
    max_order: int = 40
    tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.max_order, int) and 0 <= self.max_order <= MAX_ORDER_CAP):
            raise ConfigError(f"max_order must be an int in [0, {MAX_ORDER_CAP}]")
        if not self.tol > 0:
            raise ConfigError("tol must be > 0")


@dataclass(frozen=True)
class SeriesResult:
    value: LogComplex
    tail_estimate: float          # |last order partial sum| / |value| + round-off floor
    orders_summed: int


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_terms(s: SpectralData, cfg: SeriesConfig) -> list[PoleAssignment]:
    """All pole assignments with distinct j and order <= max_order.

    Ordered by increasing order, then lexicographically in (j, n); the count
    per order is m! * C(N, m) * (#compositions of the order into m parts).
    """
    s.require_generic()
    out = []
    for order in range(cfg.max_order + 1):
        for js in itertools.permutations(range(1, s.N + 1), s.m):
            for ns in _compositions(order, s.m):
                out.append(PoleAssignment(j=js, n=ns))
    out.sort(key=lambda a: (a.order, a.j, a.n))
    return out


def residue_term(a: PoleAssignment, s: SpectralData) -> LogComplex:
    """Iterated residue at the pole a, in log form."""
    s.require_generic()
    m, h = s.m, s.hbar
    if len(a.j) != m or any(not 1 <= jk <= s.N for jk in a.j):
        raise ConfigError(f"assignment indices {a.j} out of range for N = {s.N}")
    lam = s.lam
    log_h = math.log(h)

    L = 0j
    for k in range(m):
        lam_k = lam[a.j[k] - 1]
        nk = a.n[k]
        L += -(s.x / h) * (lam_k - nk * h)
        L += (1 - nk) * log_h - math.lgamma(nk + 1)
        L += 1j * math.pi * nk            # the (-1)^n of the gamma residue

    factors = []
    for k in range(m):
        lam_k = lam[a.j[k] - 1]
        for j in range(1, s.N + 1):
            if j in a.j:
                continue
            factors.append((+1, lam_k - lam[j - 1] - a.n[k] * h))
        for l in range(m):
            if l == k:
                continue
            lam_l = lam[a.j[l] - 1]
            factors.append((+1, lam_k - lam_l - a.n[k] * h))
            factors.append((-1, lam_k - lam_l - (a.n[k] - a.n[l]) * h))
    if factors:
        # canonical order keeps the value bit-identical under lambda relabeling
        factors.sort(key=lambda t: (t[0], t[1].real if isinstance(t[1], complex) else t[1]))
        signs = np.asarray([t[0] for t in factors], dtype=float)
        w = np.asarray([t[1] for t in factors], dtype=complex) / h
        lg = w * log_h + _loggamma(w)
        L += complex(np.dot(signs, lg))
    return LogComplex.from_log(L)


def eval_residue_series(s: SpectralData, cfg: SeriesConfig | None = None) -> SeriesResult:
    """Sum the residue series order by order; requires x < 0 and generic lambda.

    Stops early once two consecutive order sums fall below tol relative to
    the running total (the orders decay like e^{x * order}).
    """
    if cfg is None:
        cfg = SeriesConfig()
    if s.x >= 0:
        raise DomainError(f"residue series requires x < 0, got x = {s.x}")
    s.require_generic()

    m = s.m
    running: list[LogComplex] = []
    total = LogComplex.zero()
    last_rel = math.inf
    small_streak = 0
    orders = 0
    n_terms = 0
    peak = -math.inf
    for order in range(cfg.max_order + 1):
        terms = []
        for js in itertools.permutations(range(1, s.N + 1), m):
            for ns in _compositions(order, m):
                terms.append(residue_term(PoleAssignment(j=js, n=ns), s))
        n_terms += len(terms)
        peak = max(peak, max(t.log_mag for t in terms))
        osum = rescaled_sum(terms)
        running.append(osum)
        total = rescaled_sum(running)
        orders = order + 1
        if not total.is_zero:
            last_rel = 0.0 if osum.is_zero else math.exp(osum.log_mag - total.log_mag)
            if order >= 3 and last_rel <= cfg.tol:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
    # round-off: a term e^L computed from its log carries a relative error of
    # about eps * (1 + |L|); n_terms of them at up to the peak magnitude
    noise = 0.0 if total.is_zero else 2e-16 * math.sqrt(n_terms) * (1.0 + abs(peak)) * math.exp(
        min(700.0, peak - total.log_mag))
    return SeriesResult(value=total, tail_estimate=last_rel + noise, orders_summed=orders)
