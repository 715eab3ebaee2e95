"""The interpolation factor and the Lagrange identities over distinct nodes.

Every rational coefficient of the Gelfand-Zetlin layer is a ratio of factor
products over one row.  combin1 is the divided difference of the monomial x^p
over n nodes: it vanishes for p < n-1, equals 1 at p = n-1, and for p >= n
equals the complete homogeneous symmetric polynomial of degree p - n + 1 (the
degree is pinned down by the brute-force monomial oracle in the test suite).
combin2 is the statement that Lagrange basis polynomials sum to 1 at any point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import CoincidentPointsError

__all__ = ["factor", "combin1", "combin2", "separated_nodes", "check_combin_identities"]


def _check_distinct(gamma: Sequence[complex]) -> list[complex]:
    g = [complex(v) for v in gamma]
    for i in range(len(g)):
        for k in range(i + 1, len(g)):
            if g[i] == g[k]:
                raise CoincidentPointsError(f"coincident nodes gamma_{i + 1} = gamma_{k + 1} = {g[i]}")
    return g


def factor(g: complex, row: Sequence[complex], off: complex = 0.0, skip: int | None = None) -> complex:
    """prod_{k != skip} (g - row_k + off) over one row; skip is 1-based, None skips nothing.

    A product of j factors written as prod (row_k - g + off) is (-1)^j factor(g, row, -off, skip).
    """
    out = 1.0 + 0j
    for k, v in enumerate(row, start=1):
        if k != skip:
            out *= g - v + off
    return out


def combin1(gamma: Sequence[complex], p: int) -> complex:
    """sum_i gamma_i^p / prod_{k != i} (gamma_i - gamma_k).

    Equals delta_{p, n-1} for p < n and the complete homogeneous symmetric
    polynomial h_{p-n+1}(gamma) for p >= n.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    g = _check_distinct(gamma)
    return sum(gi ** p / factor(gi, g, skip=i) for i, gi in enumerate(g, start=1))


def combin2(gamma: Sequence[complex], c: complex) -> complex:
    """sum_i prod_{k != i} (c - gamma_k)/(gamma_i - gamma_k); identically 1."""
    g = _check_distinct(gamma)
    return sum(factor(c, g, skip=i) / factor(gi, g, skip=i) for i, gi in enumerate(g, start=1))


def separated_nodes(rng: np.random.Generator, n: int) -> list[complex]:
    """n random complex nodes in [-1.6, 1.6]^2, redrawn until pairwise >= 0.35 apart."""
    while True:
        g = [complex(rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)) for _ in range(n)]
        if all(abs(g[i] - g[k]) >= 0.35 for i in range(n) for k in range(i + 1, n)):
            return g


def check_combin_identities(seed: int) -> float:
    """Worst deviation of combin1 and combin2 from their closed forms at random nodes.

    For n = 2..8, 100 node sets from separated_nodes: combin1 for every
    p < n against delta_{p, n-1}, and combin2 at one random point against 1.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(100):
            g = separated_nodes(rng, n)
            for p in range(n):
                expect = 1.0 if p == n - 1 else 0.0
                worst = max(worst, abs(combin1(g, p) - expect))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, abs(combin2(g, c) - 1.0))
    return worst
