"""Leading x -> -infinity behavior of the Whittaker function.

The limit is a sum over the C(N, m) cosets of S_N / (S_m x S_{N-m}),
realized as m-subsets S of {1..N}:

    Psi(x)  ~  m! * hbar^m * sum_S  e^{-(x/hbar) sum_{i in S} lambda_i}
                            * prod_{i in S, j not in S} gamma1(lambda_i - lambda_j | hbar)

This closed form is identical to the order-0 partial sum of the residue
series, which ties it to the quadrature evaluator; the hbar^m factor is the
per-variable residue of gamma1 and reduces to 1 at hbar = 1.  Coefficients
like gamma1 at negative arguments are genuinely signed, so the coset sum is
accumulated with sign tracking in log space.

The factors come from one table of log gamma1 over the N(N-1) differences,
built on the sorted lambda (so relabeled lambda give bit-identical values);
a coset sums the table over rows in S and columns outside S.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import PoleError
from .gammafns import log_gamma1, on_pole_lattice
from .logcomplex import LogComplex, rescaled_sum
from .spectral import SpectralData

__all__ = ["leading_asymptotic"]


def _coset_logs(cosets: Sequence[Sequence[int]], lam: np.ndarray, hbar: float) -> np.ndarray:
    """log prod_{i in S, j not in S} gamma1(lambda_i - lambda_j | hbar) for each coset S.

    Raises PoleError naming the first coset and pair (in the caller's labels)
    whose difference lands on the gamma1 pole lattice.
    """
    N = len(lam)
    in_S = (np.array(cosets)[:, :, None] == np.arange(1, N + 1)).any(axis=1)
    cross = in_S[:, :, None] & ~in_S[:, None, :]      # rows in S, columns outside
    diff = lam[:, None] - lam
    c, i, j = np.nonzero(cross & on_pole_lattice(diff / hbar))
    if c.size:
        raise PoleError(f"coset {tuple(cosets[c[0]])}: lambda_{i[0] + 1} - lambda_{j[0] + 1} = "
                        f"{diff[i[0], j[0]]:.6g} sits on a gamma1 pole")
    order = np.argsort(lam, kind="stable")
    diff, cross = diff[order][:, order], cross[:, order][:, :, order]
    off = ~np.eye(N, dtype=bool)
    table = np.zeros((N, N), dtype=complex)
    table[off] = log_gamma1(diff[off], hbar)
    return np.where(cross, table, 0.0).sum(axis=(1, 2))


def leading_asymptotic(s: SpectralData) -> LogComplex:
    """m! * hbar^m * sum over cosets of the exponential-weighted coefficients."""
    h = s.hbar
    cosets = list(itertools.combinations(range(1, s.N + 1), s.m))
    expo = [-(s.x / h) * math.fsum(s.lam[i - 1] for i in S) for S in cosets]
    log_pref = math.log(math.factorial(s.m)) + s.m * math.log(h)
    logs = _coset_logs(cosets, s.lam_array, h) + expo + log_pref
    return rescaled_sum(LogComplex.from_log(complex(v)) for v in logs)
