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
the per-variable residue factor hbar^(1-n) (-1)^n / n!).  residue_term
evaluates this one pole at a time and is the termwise oracle.

Every gamma1 argument is lambda_a - lambda_b - t hbar with integer
|t| <= K = MAX_ORDER, so eval_residue_series builds two tables once per call:

    L[a, b, K + t] = log gamma1(lambda_a - lambda_b - t hbar),   a != b,
    P[a, n]        = -(x/hbar)(lambda_a - n hbar) + (1 - n) log hbar
                     - log n! + i pi n + sum_{b != a} L[a, b, K + n],

the pair table from one gammafns.log_gamma1 call over the real differences
(made complex only after the division by hbar), the pole table of size
N x (K + 1) from its rows.  residue_term reads its gamma1 factors from one
log_gamma1 call as well.  P already holds the first two gamma1 products
above, so a term is

    log term(j, n) = sum_k P[j_k, n_k] - sum_{k != l} L[j_k, j_l, K + n_k - n_l].

Order-n terms carry e^{x n}, so the series is summed by increasing total
order with geometric tail control; it is only offered for x < 0.  Each order
is one numpy block over the permutations x compositions index arrays
(m^2 table gathers), exponentiated against the block maximum and summed
with math.fsum.  lambda is sorted once, after the genericity check has
named any offending pair in the caller's labels, so relabeled lambda give
bit-identical tables and values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .gammafns import log_gamma1
from .logcomplex import LogComplex, rescaled_sum
from .spectral import MAX_REL_ERR, SpectralData

__all__ = ["SeriesResult", "residue_term", "eval_residue_series"]

#: the series is summed over orders 0..MAX_ORDER at most
MAX_ORDER = 40
#: early stop: two consecutive order sums below SERIES_TOL relative to the running total
SERIES_TOL = 1e-12


@dataclass(frozen=True)
class SeriesResult:
    value: LogComplex
    tail_estimate: float          # |last order partial sum| / |value| + round-off floor
    orders_summed: int
    terms: int                    # pole terms summed over those orders


def residue_term(j: tuple[int, ...], n: tuple[int, ...], s: SpectralData) -> LogComplex:
    """Iterated residue at the pole gamma_k = lambda_{j_k} - n_k hbar, in log form.

    j holds m distinct 1-based indices into lambda, n the m shift counts >= 0.
    """
    s.require_generic()
    m, h, lam = s.m, s.hbar, s.lam
    if (len(j) != m or len(n) != m or len(set(j)) != m or min(n) < 0
            or not all(1 <= jk <= s.N for jk in j)):
        raise ConfigError(f"a pole needs m = {m} distinct indices in 1..{s.N} and m shift "
                          f"counts >= 0, got j = {j}, n = {n}")
    log_h = math.log(h)
    L = 0j
    factors = []
    for jk, nk in zip(j, n):
        lam_k = lam[jk - 1]
        L += -(s.x / h) * (lam_k - nk * h)
        L += (1 - nk) * log_h - math.lgamma(nk + 1)
        L += 1j * math.pi * nk            # the (-1)^n of the gamma residue
        factors += [(+1, lam_k - lam[i - 1] - nk * h) for i in range(1, s.N + 1) if i not in j]
        for jl, nl in zip(j, n):
            if jl != jk:
                factors += [(+1, lam_k - lam[jl - 1] - nk * h),
                            (-1, lam_k - lam[jl - 1] - (nk - nl) * h)]
    # canonical order keeps the value bit-identical under lambda relabeling
    signs, z = zip(*sorted(factors))
    L += complex(np.dot(np.asarray(signs, dtype=float), log_gamma1(np.asarray(z, dtype=complex), h)))
    return LogComplex.from_log(L)


def eval_residue_series(s: SpectralData) -> SeriesResult:
    """Sum the residue series order by order; requires x < 0 and generic lambda.

    Stops early once two consecutive order sums fall below SERIES_TOL
    relative to the running total (the orders decay like e^{x * order}).
    Raises DomainError when that rule is not met within MAX_ORDER orders or
    the tail estimate exceeds MAX_REL_ERR.
    """
    if s.x >= 0:
        raise DomainError(f"residue series requires x < 0, got x = {s.x}")
    s.require_generic()

    m, N, h, K = s.m, s.N, s.hbar, MAX_ORDER
    # canonical labels: relabeled lambda give bit-identical tables and sums
    lam = np.sort(s.lam_array)
    log_h = math.log(h)
    # pair table L[a, b, K + t] = log gamma1(lambda_a - lambda_b - t hbar), a != b
    a, b = np.nonzero(~np.eye(N, dtype=bool))
    L = np.zeros((N, N, 2 * K + 1), dtype=complex)
    L[a, b] = log_gamma1((lam[a] - lam[b])[:, None] - np.arange(-K, K + 1) * h, h)
    # pole table P[a, n]: the one-variable residue at lambda_a - n hbar times
    # prod_{b != a} gamma1(lambda_a - lambda_b - n hbar)
    n = np.arange(K + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(K + 1)])
    P = (-(s.x / h) * (lam[:, None] - n * h) + (1 - n) * log_h - log_fact + 1j * math.pi * n
         + L[:, :, K:].sum(axis=1))

    # the terms of one order pair each ordered m-tuple of distinct 0-based lambda
    # indices (perms) with each composition of the order into m parts (comps),
    # both in lexicographic order
    perms = np.array(list(itertools.permutations(range(N), m)), dtype=np.intp)
    running: list[LogComplex] = []
    total = LogComplex.zero()
    last_rel = math.inf
    small_streak = 0
    n_terms = 0
    peak = -math.inf
    for order in range(K + 1):
        # compositions read off the m - 1 bar positions of each stars-and-bars combination
        bars = np.array(list(itertools.combinations(range(order + m - 1), m - 1)),
                        dtype=np.intp, ndmin=2)
        comps = np.diff(bars, axis=1, prepend=-1, append=order + m - 1) - 1
        # log term(j, n) = sum_k P[j_k, n_k] - sum_{k != l} L[j_k, j_l, K + n_k - n_l]
        lg = np.zeros((len(perms), len(comps)), dtype=complex)
        for k in range(m):
            jk, nk = perms[:, k, None], comps[None, :, k]
            lg += P[jk, nk]
            for l in range(m):
                if l != k:
                    lg -= L[jk, perms[:, l, None], K + nk - comps[None, :, l]]
        top = float(lg.real.max())
        e = np.exp(lg - top).ravel()
        re, im = math.fsum(e.real.tolist()), math.fsum(e.imag.tolist())
        mag = math.hypot(re, im)
        osum = LogComplex(top + math.log(mag), math.atan2(im, re)) if mag > 0.0 else LogComplex.zero()
        n_terms += lg.size
        peak = max(peak, top)
        running.append(osum)
        total = rescaled_sum(running)
        if not total.is_zero:
            last_rel = 0.0 if osum.is_zero else math.exp(osum.log_mag - total.log_mag)
            if order >= 3 and last_rel <= SERIES_TOL:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
    else:
        raise DomainError(f"residue series has not met its stop rule by order {K} "
                          f"(hbar = {h:g}, x = {s.x:g})")
    # round-off: a term e^L computed from its log carries a relative error of
    # about eps * (1 + |L|); n_terms of them at up to the peak magnitude
    noise = 2e-16 * math.sqrt(n_terms) * (1.0 + abs(peak)) * math.exp(
        min(700.0, peak - total.log_mag))
    tail = last_rel + noise
    if tail > MAX_REL_ERR:
        raise DomainError(f"residue series tail estimate {tail:.3g} exceeds {MAX_REL_ERR:g} "
                          f"(hbar = {h:g}, x = {s.x:g})")
    return SeriesResult(value=total, tail_estimate=tail, orders_summed=order + 1, terms=n_terms)
