"""Finite-difference operators in Gelfand-Zetlin variables.

A DifferenceOperator is evaluated as its symbol: the map gamma ->
{shift sigma: c_sigma(gamma)} with one entry per distinct integer shift, and
(A f)(gamma) = sum_sigma c_sigma(gamma) f(gamma + hbar * sigma).  The product
A.B evaluates A's symbol once at gamma and B's once per distinct shift of A,
summing equal keys as they are formed; sums and differences merge keys the
same way.  That is all the operator algebra needed to check identities
numerically; no symbolic normal form is kept.

Batches.  An operator is evaluated on a batch of S arrays at once (a
TriangularArray holds S arrays, one per column; a single array is a batch of
one), and a symbol maps each shift to an (S,) complex array.  All arithmetic
on a batch is elementwise numpy on arrays, never on 0-d numpy scalars, never
in place, and sums run left to right (no numpy reduction), so every array
gets the same value bit for bit whatever batch it is evaluated in: a 0-d
product, an in-place product on a batch of one and numpy's pairwise sums
each round differently.

Memo rule.  Each operator records the contiguous range of rows its
coefficients read (`rows`): a generator reads two rows, E_{n,N} reads rows
n..N, a product or sum reads the hull of its operands' ranges, and an
operator built from a bare symbol reads every row.  A symbol depends only on
those rows, so `apply` owns one memo for the length of the call and every
operator it reaches looks its symbol up there under (operator, the integer
shift from the applied batch restricted to its rows), computing it only on
a miss, on the batch shifted by that move.  A product looks its right
operand up at each of the left operand's shifts by adding that shift to its
own move, so no array is built for a hit.  Inside a nested commutator the
same generator is reached at many shifts that agree on its two rows; each
distinct move is computed once per batch.  Symbols are therefore read-only
values: nothing mutates a dict a symbol returned.

The generator realization (E_kk multiplication; E_{n,n+1} and E_{n+1,n}
single-row shift operators with interpolation-style rational coefficients)
satisfies the gl_N bracket relations, verified termlessly on random test
functions by the test suite.

Adjoints are taken with respect to the pairing <f, g> = integral f g mu with
the product measure mu(gamma) = prod_{n=2}^{N-1} prod_{i != j}
1/Gamma((gamma_{n,i} - gamma_{n,j})/hbar): the adjoint has the reversed
shift -sigma for each shift sigma, with coefficient c_sigma evaluated at
gamma - hbar*sigma times the measure ratio mu(gamma - hbar*sigma)/mu(gamma),
which collapses to a finite rational factor through Gamma(s+1) = s Gamma(s)
and is never evaluated through gamma functions at runtime (measure_ratio;
N is the array's size and hbar the operator's).  Each operator receives its
adjoint builder when it is built, so its adjoint follows the same structure:
(A.B)^dag = B^dag.A^dag, (A + B)^dag = A^dag + B^dag, and an operator built
from terms flips each term on its own, reading its own rows and the rows its
shifts move (the measure-ratio rows).  A commutator of generators thus has
the adjoint [B^dag, A^dag], and each coefficient is evaluated once per point.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Mapping

import numpy as np

from ..errors import ConfigError
from ..gammafns import _checked_hbar
from .arrays import TriangularArray
from .combin import factor

__all__ = ["DifferenceOperator", "measure_ratio", "gen", "commutator",
           "build_Eij", "build_EnN", "twist", "adjoint", "coxeter_cycle"]

Coeff = Callable[[TriangularArray], np.ndarray]
ShiftKey = tuple[tuple[tuple[int, int], int], ...]
Symbol = Callable[[TriangularArray, dict, ShiftKey], Mapping[ShiftKey, np.ndarray]]
TestFn = Callable[[TriangularArray], np.ndarray]
Rows = tuple[int, "int | None"]      # first and last row read, 1-based; None reads to the end


def _shift_key(shift: Mapping[tuple[int, int], int]) -> ShiftKey:
    return tuple(sorted((pos, k) for pos, k in shift.items() if k != 0))


def _add_keys(ka: ShiftKey, kb: ShiftKey) -> ShiftKey:
    merged = dict(ka)
    for pos, k in kb:
        merged[pos] = merged.get(pos, 0) + k
    return _shift_key(merged)


def _hull(a: Rows, b: Rows) -> Rows:
    return min(a[0], b[0]), None if None in (a[1], b[1]) else max(a[1], b[1])


class DifferenceOperator:
    """sum_sigma c_sigma(gamma) f(gamma + hbar*sigma) over distinct shifts, at a fixed hbar.

    `shifts` lists the distinct shift keys; `symbol(arr, memo, move)` returns
    a fresh dict {key: c_key} over exactly those keys, each an (S,) array
    over the batch arr shifted by the key `move`, reading the operators it
    was built from through `coeffs(arr, memo, move)`.  `rows` is the range
    of rows the coefficients read (every row by default).  `dagger`, when
    given, builds the adjoint from the parts the operator was made of.
    """

    def __init__(self, hbar: float, shifts: Iterable[ShiftKey], symbol: Symbol,
                 dagger: Callable[[], "DifferenceOperator"] | None = None,
                 rows: Rows = (1, None)):
        self.hbar = _checked_hbar(hbar)
        self.shifts = tuple(shifts)
        self.symbol = symbol
        self.rows = rows
        self._last = float("inf") if rows[1] is None else rows[1]
        self._dagger = dagger

    def __len__(self) -> int:
        return len(self.shifts)

    def coeffs(self, arr: TriangularArray, memo: dict, move: ShiftKey = ()) -> Mapping[ShiftKey, np.ndarray]:
        """The symbol at arr shifted by move, computed once per memo for each move of its rows.

        arr is the batch the memo belongs to.  The memo key is the operator
        with the part of move inside its rows; the shifted batch is built
        only on a miss.
        """
        first, last = self.rows[0], self._last
        move = tuple(entry for entry in move if first <= entry[0][0] <= last)
        key = (self, move)
        out = memo.get(key)
        if out is None:
            out = memo[key] = self.symbol(arr, memo, move)
        return out

    def apply(self, f: TestFn, arr: TriangularArray, values: dict | None = None) -> np.ndarray:
        """(A f) on each array of the batch arr, as an (S,) array.

        f maps a batch to its (S,) values.  It is evaluated on the whole
        shifted batch once per shift key and kept in values; operators of the
        same hbar applied to the same batch may share one values dict.  A
        key whose coefficient is exactly zero on every array is skipped, and
        a zero coefficient adds nothing to its array's value.
        """
        h = self.hbar
        if values is None:
            values = {}
        out = np.zeros(len(arr), dtype=complex)
        for key, c in self.symbol(arr, {}, ()).items():
            nonzero = c != 0
            if nonzero.any():
                v = values.get(key)
                if v is None:
                    v = values[key] = f(arr.shifted(key, h))
                out = np.where(nonzero, out + c * v, out)
        return out

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """Operator product self . other (apply other first)."""
        if abs(self.hbar - other.hbar) > 0:
            raise ConfigError("cannot compose operators with different hbar")
        h = self.hbar
        sums = {ka: {kb: _add_keys(ka, kb) for kb in other.shifts} for ka in self.shifts}

        def symbol(arr, memo, move):
            out: dict[ShiftKey, np.ndarray] = {}
            for ka, ca in self.coeffs(arr, memo, move).items():
                row = sums[ka]
                for kb, cb in other.coeffs(arr, memo, _add_keys(move, ka) if move else ka).items():
                    key = row[kb]
                    out[key] = out.get(key, 0j) + ca * cb
            return out

        shifts = dict.fromkeys(key for row in sums.values() for key in row.values())
        return DifferenceOperator(h, shifts, symbol, lambda: adjoint(other).compose(adjoint(self)),
                                  _hull(self.rows, other.rows))

    def _merge(self, other: "DifferenceOperator", combine, dagger) -> "DifferenceOperator":
        """The operator combine(self, other) for combine in (operator.add, operator.sub).

        Its symbol is a fresh dict: self's keys first, then other's new keys.
        """
        if abs(self.hbar - other.hbar) > 0:
            raise ConfigError("cannot add operators with different hbar")

        def symbol(arr, memo, move):
            out = dict(self.coeffs(arr, memo, move))
            for key, c in other.coeffs(arr, memo, move).items():
                out[key] = combine(out.get(key, 0j), c)
            return out

        return DifferenceOperator(self.hbar, dict.fromkeys(self.shifts + other.shifts), symbol,
                                  dagger, _hull(self.rows, other.rows))

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self._merge(other, operator.add, lambda: adjoint(self) + adjoint(other))

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self._merge(other, operator.sub, lambda: adjoint(self) - adjoint(other))


def _from_terms(h: float, terms: list[tuple[ShiftKey, Coeff]], rows: Rows) -> DifferenceOperator:
    """The operator sum_t c_t(gamma) f(gamma + hbar*key_t); the keys must be distinct.

    The coefficients read `rows`.  The adjoint has one term per term: shift
    -key, coefficient c_t(gamma - hbar*key) * mu(gamma - hbar*key)/mu(gamma),
    which also reads the rows key moves.
    """
    def dagger():
        flipped = []
        for key, c in terms:
            back = {pos: -k for pos, k in key}
            flipped.append((_shift_key(back), lambda arr, c=c, back=back:
                            c(arr.shifted(back, h)) * measure_ratio(arr, back, h)))
        moved = [pos[0] for key, _ in terms for pos, _k in key]
        return _from_terms(h, flipped, _hull(rows, (min(moved), max(moved))) if moved else rows)

    def symbol(arr, memo, move):
        at = arr.shifted(move, h)
        return {key: c(at) for key, c in terms}

    return DifferenceOperator(h, [key for key, _ in terms], symbol, dagger, rows)


def gen(kind: str, n: int, N: int, hbar: float) -> DifferenceOperator:
    """A generator of the realization: kind in {"cartan", "raise", "lower"}.

    cartan n (1 <= n <= N): multiplication by (sum row n - sum row n-1)/hbar.
    raise n  (1 <= n <= N-1): n terms shifting gamma_{n,i} down by hbar.
    lower n  (1 <= n <= N-1): n terms shifting gamma_{n,i} up by hbar.
    """
    h = float(hbar)
    if kind == "cartan":
        if not 1 <= n <= N:
            raise ConfigError(f"cartan index {n} out of range for N={N}")

        def c(arr, n=n):
            s = sum(arr.row(n))
            if n > 1:
                s = s - sum(arr.row(n - 1))
            return s / h

        return _from_terms(h, [((), c)], (max(n - 1, 1), n))

    if kind not in ("raise", "lower"):
        raise ConfigError(f"unknown generator kind {kind!r}")
    if not 1 <= n <= N - 1:
        raise ConfigError(f"{kind} index {n} out of range for N={N}")

    # raise: -prod_{j <= n+1} (g_ni - g_{n+1,j} - h/2); lower: prod_{j <= n-1} (g_ni - g_{n-1,j} + h/2);
    # both over h prod_{t != i} (g_ni - g_nt).  lower 1 has no row below (an empty product).
    row, off, sign, step = (n + 1, -h / 2, -1.0, -1) if kind == "raise" else (n - 1, h / 2, 1.0, 1)
    rows = (n, n + 1) if kind == "raise" else (max(n - 1, 1), n)

    def c(arr, i):
        g = arr.gamma(n, i)
        return sign * factor(g, arr.row(row) if row else (), off) / (h * factor(g, arr.row(n), skip=i))

    return _from_terms(h, [((((n, i), step),), lambda arr, i=i: c(arr, i)) for i in range(1, n + 1)],
                       rows)


def commutator(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    return a.compose(b) - b.compose(a)


def build_Eij(i: int, j: int, N: int, hbar: float) -> DifferenceOperator:
    """E_{ij} from generators via nested commutators along raising/lowering chains."""
    if not (1 <= i <= N and 1 <= j <= N):
        raise ConfigError(f"indices ({i},{j}) out of range for N={N}")
    if i == j:
        return gen("cartan", i, N, hbar)
    if j == i + 1:
        return gen("raise", i, N, hbar)
    if i == j + 1:
        return gen("lower", j, N, hbar)
    if j > i:
        return commutator(build_Eij(i, i + 1, N, hbar), build_Eij(i + 1, j, N, hbar))
    return commutator(build_Eij(i, i - 1, N, hbar), build_Eij(i - 1, j, N, hbar))


def build_EnN(n: int, N: int, hbar: float) -> DifferenceOperator:
    """Closed-form E_{n,N}: one term per chain (i_1, ..., i_{N-n}), i_r <= N-r.

    Level N-r contributes the interpolation factor with the numerator product
    skipping the index chosen at the level above, and the term shifts one
    entry of every row n..N-1 down by hbar.  Coincides with the nested
    commutator [[...[E_{n,n+1}, E_{n+1,n+2}], ...], E_{N-1,N}].  The symbol
    computes each level ratio once per array and shares it among the
    (N-n)! chains.
    """
    if not 1 <= n <= N - 1:
        raise ConfigError(f"need 1 <= n <= N-1, got n={n}, N={N}")
    h = float(hbar)
    levels = range(N - 1, n - 1, -1)
    # the steps (level, index, index chosen at the level above) of each chain
    chains = [tuple(zip(levels, chain, (None,) + chain[:-1])) for chain in
              itertools.product(*[range(1, N - r + 1) for r in range(1, N - n + 1)])]
    every_step = dict.fromkeys(step for chain in chains for step in chain)

    def symbol(arr, memo, move):
        arr = arr.shifted(move, h)
        # one denominator per (level, index), one ratio per step, shared by every chain
        dens, table = {}, {}
        for lvl, ir, prev in every_step:
            g = arr.gamma(lvl, ir)
            den = dens.get((lvl, ir))
            if den is None:
                den = dens[lvl, ir] = factor(g, arr.row(lvl), skip=ir)
            table[lvl, ir, prev] = factor(g, arr.row(lvl + 1), -h / 2, prev) / den
        out = {}
        for key, chain in zip(keys, chains):
            val = -1.0 / h
            for step in chain:
                val = val * table[step]
            out[key] = val
        return out

    keys = [_shift_key({(lvl, ir): -1 for lvl, ir, _ in chain}) for chain in chains]
    return DifferenceOperator(h, keys, symbol, rows=(n, N))


def coxeter_cycle(m: int, N: int) -> tuple[int, ...]:
    """The permutation w with w(i) = i+1 for i < m, w(m) = 1, fixing i > m.

    This is the Coxeter element twisting used for the Whittaker-vector
    checks; w[i-1] holds w(i).  Needs 1 <= m <= N.
    """
    if not 1 <= m <= N:
        raise ConfigError(f"coxeter_cycle needs 1 <= m <= N, got m={m}, N={N}")
    return tuple(range(2, m + 1)) + (1,) + tuple(range(m + 1, N + 1))


def twist(label: tuple[int, int], w, N: int, hbar: float) -> DifferenceOperator:
    """The w-twisted generator E^w_{ij} = E_{w^{-1}(i), w^{-1}(j)}."""
    i, j = label
    w = tuple(w)
    if sorted(w) != list(range(1, N + 1)):
        raise ConfigError(f"w = {w} is not a permutation of 1..{N}")
    winv = {wa: a for a, wa in enumerate(w, start=1)}
    return build_Eij(winv[i], winv[j], N, hbar)


def measure_ratio(arr: TriangularArray, shift: Mapping[tuple[int, int], int], hbar: float):
    """mu(gamma + hbar*shift) / mu(gamma) as a finite rational factor, per array of the batch
    (the number 1 when the shift moves none of rows 2..N-1).

    mu(gamma) = prod_{n=2}^{N-1} prod_{i != j} 1/Gamma((gamma_{n,i} -
    gamma_{n,j})/hbar) with N = arr.N; it vanishes exactly where some
    within-row difference of rows 2..N-1 lies in hbar * Z_{<=0}.
    """
    out = 1.0 + 0j
    for n in sorted({n for n, _ in shift if 2 <= n < arr.N}):   # rows the shift moves
        row = arr.row(n)
        moves = [shift.get((n, i), 0) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = moves[i] - moves[j]
                if d == 0:
                    continue
                v = (row[i] - row[j]) / hbar
                # Gamma(v+d)/Gamma(v) as a Pochhammer product; mu carries 1/Gamma
                p = 1.0 + 0j
                for t in (range(d) if d > 0 else range(-1, d - 1, -1)):
                    p = p * (v + t)
                out = out / p if d > 0 else out * p
    return out


def adjoint(a: DifferenceOperator) -> DifferenceOperator:
    """Adjoint under the mu-pairing: reverse each shift and attach the mu ratio.

    Shift sigma maps to -sigma with coefficient
    c_sigma(gamma - hbar*sigma) * mu(gamma - hbar*sigma)/mu(gamma).  It is
    built from the adjoints of the parts a was built from, in reverse order
    for products; applying adjoint twice returns the original operator.  A
    bare DifferenceOperator, built without that structure, reads its whole
    symbol once per shift.
    """
    if a._dagger is not None:
        return a._dagger()
    terms = [(key, lambda arr, key=key: a.symbol(arr, {}, ())[key]) for key in a.shifts]
    return _from_terms(a.hbar, terms, a.rows)._dagger()
