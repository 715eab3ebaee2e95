"""Batches of triangular arrays of Gelfand-Zetlin variables and the right-vector support."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, SupportError
from ..gammafns import _checked_hbar

__all__ = ["TriangularArray", "SupportConstraints", "random_array"]

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


_LAYOUTS: dict[int, tuple[np.ndarray, ...]] = {}


def _draw_layout(N: int) -> tuple[np.ndarray, ...]:
    """Where each entry's real and imaginary parts sit among an attempt's N(N+1) uniforms,
    and the pairs of entries that share a row, with that row."""
    if N in _LAYOUTS:
        return _LAYOUTS[N]
    re, im, pairs = [], [], []
    for n in range(1, N + 1):
        start = n * (n - 1)          # the uniforms of rows 1..n-1
        re += range(start, start + n)
        im += range(start + n, start + 2 * n)
        pairs += [(_flat(n, a), _flat(n, b), n) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    a, b, row = (np.array([p[k] for p in pairs], dtype=int) for k in range(3))
    out = _LAYOUTS[N] = (np.array(re), np.array(im), a, b, row)
    return out


def random_array(N: int, rng: np.random.Generator, size: int = 1) -> TriangularArray:
    """size random complex arrays as one batch, entries in [-2, 2]^2, within-row entries
    at least 0.05 apart.

    Row separation keeps the generator denominators prod (gamma_{n,i} -
    gamma_{n,s}) and the measure ratios well conditioned.  An attempt reads
    N(N+1) uniforms, row by row: the n real parts, then the n imaginary parts.
    An attempt that violates the separation at row n is redrawn, at most 200
    times per array, starting from the values after row n; only the
    shortfall is drawn, so every array and the generator's final state are
    those of drawing each row with its own two calls.
    """
    re, im, pa, pb, prow = _draw_layout(N)
    width = N * (N + 1)
    buf = np.empty(0)
    done: list[np.ndarray] = []
    kept = fails = 0        # arrays drawn, failed attempts at the array being drawn
    while kept < size:
        need = (size - kept) * width
        if len(buf) < need:
            buf = np.concatenate([buf, rng.uniform(-2.0, 2.0, size=need - len(buf))])
        block = buf[:need].reshape(-1, width)
        z = np.empty((len(block), len(re)), dtype=complex)
        z.real, z.imag = block[:, re], block[:, im]
        # the first row of each attempt with two entries closer than 0.05, N + 1 for none
        first_bad = np.where(np.abs(z[:, pa] - z[:, pb]) < 0.05, prow, N + 1).min(axis=1, initial=N + 1)
        bad = np.flatnonzero(first_bad <= N)
        good = bad[0] if len(bad) else len(block)
        done.append(z[:good])
        kept += good
        if good == len(block):
            break
        fails = 1 if good else fails + 1
        if fails == 200:
            raise ConfigError("failed to sample a well-separated array")
        row = first_bad[good]
        buf = buf[good * width + row * (row + 1):]
    return TriangularArray._of(N, np.concatenate(done).T.copy())


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
