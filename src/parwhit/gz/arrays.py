"""Batches of triangular arrays of Gelfand-Zetlin variables and the right-vector support.

separated_points is the one sampler of the GZ layer: random arrays, the
nodes of the Lagrange identity checks and the free rows of the right-vector
support samples are all drawn with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, SupportError
from ..gammafns import _checked_hbar

__all__ = ["TriangularArray", "SupportConstraints", "random_array", "separated_points"]

Position = tuple[int, int]          # (row n, column i), both 1-based
#: integer shifts in units of hbar, as a mapping or as ((n, i), k) pairs
ShiftMap = Mapping[Position, int] | Iterable[tuple[Position, int]]


def _flat(n: int, i: int) -> int:
    """Index of gamma_{n,i} in the row-by-row order of the entries."""
    return n * (n - 1) // 2 + i - 1


class TriangularArray:
    """A batch of S arrays gamma_{n,i}, 1 <= i <= n <= N; row N is the spectral row (lambda).

    The entries are one read-only complex matrix `data` of shape
    (N(N+1)/2, S): one line per position, row by row, one column per array.
    `gamma(n, i)` is the (S,) vector of a position and `row(n)` the (n, S)
    block of a row, so all arithmetic on a batch is elementwise over its
    arrays and a single array is a batch of one.  The constructor takes the
    rows of one array, or rows whose entries are (S,) vectors (scalars are
    repeated over the batch).
    """

    __slots__ = ("N", "data")

    def __init__(self, rows):
        entries = []
        for n, r in enumerate(rows, start=1):
            if len(r) != n:
                raise ConfigError(f"row {n} must have {n} entries, got {len(r)}")
            entries += [np.asarray(v, dtype=complex) for v in r]
        self.N, self.data = len(rows), np.array(np.broadcast_arrays(*entries)).reshape(len(entries), -1)
        self.data.flags.writeable = False

    @classmethod
    def _of(cls, N: int, data: np.ndarray) -> "TriangularArray":
        """The batch of the given entries, taken as they are and made read-only."""
        out = object.__new__(cls)
        out.N, out.data = N, data
        data.flags.writeable = False
        return out

    @staticmethod
    def stack(arrays: Sequence["TriangularArray"]) -> "TriangularArray":
        """One batch holding the arrays of each batch in turn."""
        return TriangularArray._of(arrays[0].N, np.concatenate([a.data for a in arrays], axis=1))

    def __len__(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, index) -> "TriangularArray":
        """The arrays at index (an int or a numpy index such as a boolean mask), as a batch."""
        if isinstance(index, (int, np.integer)):
            index = [index]
        return TriangularArray._of(self.N, np.ascontiguousarray(self.data[:, index]))

    def gamma(self, n: int, i: int) -> np.ndarray:
        return self.data[_flat(n, i)]

    def row(self, n: int) -> np.ndarray:
        start = _flat(n, 1)
        return self.data[start:start + n]

    @property
    def rows(self) -> tuple[tuple[complex, ...], ...]:
        """The entries of a batch of one, as one tuple of complex per row."""
        if len(self) != 1:
            raise ConfigError(f"rows reads a batch of one array, this batch has {len(self)}")
        return tuple(tuple(self.row(n)[:, 0].tolist()) for n in range(1, self.N + 1))

    def shifted(self, shift: ShiftMap, hbar: float) -> "TriangularArray":
        """gamma_{n,i} -> gamma_{n,i} + shift[(n,i)] * hbar on every array of the batch."""
        items = shift.items() if isinstance(shift, Mapping) else shift
        if not items:
            return self
        data = self.data.copy()
        for (n, i), k in items:
            data[_flat(n, i)] = data[_flat(n, i)] + k * hbar
        return TriangularArray._of(self.N, data)


def separated_points(rng: np.random.Generator, counts: Sequence[int], size: int,
                     half: float, gap: float) -> np.ndarray:
    """size random point sets, one per column of a (sum(counts), size) complex matrix.

    Entries are uniform in [-half, half]^2, and within a column each group of
    counts[r] consecutive entries is pairwise at least gap apart.  A round
    draws the real parts, then the imaginary parts, of every missing column in
    one call and keeps the columns that are separated; only the rest are drawn
    again, and after 200 rounds ConfigError is raised.  The groups are
    independent, so keeping a column only when all of them are separated
    gives each group the law of drawing it alone until it is.
    """
    group = np.repeat(np.arange(len(counts)), counts)
    at = np.arange(len(group))
    a, b = np.nonzero((group[:, None] == group) & (at[:, None] < at))     # the pairs to check
    out = np.empty((len(group), size), dtype=complex)
    missing = np.arange(size)
    for _ in range(200):
        u = rng.uniform(-half, half, size=(2, len(group), len(missing)))
        z = u[0] + 1j * u[1]
        ok = (np.abs(z[a] - z[b]) >= gap).all(axis=0)
        out[:, missing[ok]] = z[:, ok]
        missing = missing[~ok]
        if not len(missing):
            return out
    raise ConfigError(f"no point sets {gap:g} apart in [-{half:g}, {half:g}]^2 after 200 rounds")


def random_array(N: int, rng: np.random.Generator, size: int = 1) -> TriangularArray:
    """size random complex arrays as one batch, entries in [-2, 2]^2, within-row entries
    at least 0.05 apart (separated_points, one column per array).

    Row separation keeps the generator denominators prod (gamma_{n,i} -
    gamma_{n,s}) and the measure ratios well conditioned.
    """
    return TriangularArray._of(N, separated_points(rng, range(1, N + 1), size, 2.0, 0.05))


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

    def build(self, row_m: Sequence, lam: Sequence) -> TriangularArray:
        """The support array with the given free row m and spectral row.

        Entries may be (S,) vectors, which gives the batch of S support arrays.
        """
        m, N, h = self.m, self.N, self.hbar
        if len(row_m) != m:
            raise SupportError(f"row_m must have {m} entries")
        if len(lam) != N:
            raise SupportError(f"lam must have {N} entries")
        rows: list = []
        for n in range(1, N + 1):
            if n < m:
                rows.append([complex((n + 1 - 2 * k) * h / 2) for k in range(1, n + 1)])
            elif n == m:
                rows.append([np.asarray(v, dtype=complex) for v in row_m])
            elif n < N:
                rows.append([v + h / 2 for v in rows[-1][:n - 1]] + [complex(-(n - 1) * h / 2)])
            else:
                rows.append(list(lam))
        return TriangularArray(rows)
