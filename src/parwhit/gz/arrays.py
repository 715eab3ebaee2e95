"""Triangular arrays of Gelfand-Zetlin variables and the right-vector support."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError, SupportError
from ..gammafns import _checked_hbar

__all__ = ["TriangularArray", "SupportConstraints", "random_array", "moved_rows"]

Position = tuple[int, int]          # (row n, column i), both 1-based
ShiftMap = Mapping[Position, int]   # integer shifts in units of hbar


@dataclass(frozen=True)
class TriangularArray:
    """gamma_{n,i} for 1 <= i <= n <= N; row N is the spectral row (lambda)."""

    rows: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(complex(v) for v in r) for r in self.rows)
        for n, r in enumerate(rows, start=1):
            if len(r) != n:
                raise ConfigError(f"row {n} must have {n} entries, got {len(r)}")
        object.__setattr__(self, "rows", rows)

    @property
    def N(self) -> int:
        return len(self.rows)

    def gamma(self, n: int, i: int) -> complex:
        return self.rows[n - 1][i - 1]

    def row(self, n: int) -> tuple[complex, ...]:
        return self.rows[n - 1]

    def shifted(self, shift: ShiftMap, hbar: float) -> "TriangularArray":
        """gamma_{n,i} -> gamma_{n,i} + shift[(n,i)] * hbar.

        The rows are already complex and of the right lengths, so the result
        is built without re-running the constructor's checks.
        """
        if not shift:
            return self
        out = object.__new__(TriangularArray)
        object.__setattr__(out, "rows", moved_rows(self.rows, shift, hbar))
        return out


def moved_rows(rows: tuple[tuple[complex, ...], ...], shift: ShiftMap, hbar: float,
               first: int = 1) -> tuple[tuple[complex, ...], ...]:
    """rows, holding rows first, first+1, ... of an array, with shift applied.

    Every position of shift must lie in those rows.  Each moved row is
    rebuilt from tuple slices around its new entry; the others are kept.
    """
    out = list(rows)
    for (n, i), k in shift.items():
        r = out[n - first]
        out[n - first] = r[:i - 1] + (r[i - 1] + k * hbar,) + r[i:]
    return tuple(out)


def random_array(N: int, rng: np.random.Generator) -> TriangularArray:
    """Random complex array, entries in [-2, 2]^2, within-row entries at least 0.05 apart.

    Row separation keeps the generator denominators prod (gamma_{n,i} -
    gamma_{n,s}) and the measure ratios well conditioned.  A draw that
    violates it is redrawn, at most 200 times.
    """
    for _ in range(200):
        rows = []
        for n in range(1, N + 1):
            re, im = rng.uniform(-2.0, 2.0, size=n).tolist(), rng.uniform(-2.0, 2.0, size=n).tolist()
            r = tuple(map(complex, re, im))
            if any(abs(r[a] - r[b]) < 0.05 for a in range(n) for b in range(a + 1, n)):
                break
            rows.append(r)
        else:
            return TriangularArray(tuple(rows))
    raise ConfigError("failed to sample a well-separated array")


@dataclass(frozen=True)
class SupportConstraints:
    """Affine support of the right Whittaker vector's delta factors.

    gamma_{1,1} = 0; for every row n in 2..N-1 except n = m the first n-1
    entries follow the row below minus hbar/2 and the row sums telescope,
    pinning gamma_{n,n} = -(n-1) hbar / 2.  Row m stays free (the m
    integration variables) and row N carries lambda.
    """

    m: int
    N: int
    hbar: float

    def __post_init__(self):
        if not 2 <= self.m < self.N:
            raise SupportError(
                f"right-vector support needs 2 <= m < N, got m={self.m}, N={self.N}"
            )
        _checked_hbar(self.hbar)

    def build(self, row_m: Sequence[complex], lam: Sequence[complex]) -> TriangularArray:
        """The unique support array with the given free row m and spectral row."""
        m, N, h = self.m, self.N, self.hbar
        if len(row_m) != m:
            raise SupportError(f"row_m must have {m} entries")
        if len(lam) != N:
            raise SupportError(f"lam must have {N} entries")
        rows: list[tuple[complex, ...]] = []
        for n in range(1, N + 1):
            if n < m:
                rows.append(tuple(complex((n + 1 - 2 * k) * h / 2) for k in range(1, n + 1)))
            elif n == m:
                rows.append(tuple(complex(v) for v in row_m))
            elif n < N:
                prev = rows[n - 2]
                rows.append(tuple(prev[k] + h / 2 for k in range(n - 1)) + (complex(-(n - 1) * h / 2),))
            else:
                rows.append(tuple(complex(v) for v in lam))
        return TriangularArray(tuple(rows))
