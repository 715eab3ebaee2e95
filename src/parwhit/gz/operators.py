"""Finite-difference operators in Gelfand-Zetlin variables.

A DifferenceOperator is evaluated as its symbol: the map gamma ->
{shift sigma: c_sigma(gamma)} with one entry per distinct integer shift, and
(A f)(gamma) = sum_sigma c_sigma(gamma) f(gamma + hbar * sigma).  The product
A.B evaluates A's symbol once at gamma and B's once per distinct shift of A,
summing equal keys as they are formed; sums and differences merge keys the
same way.  That is all the operator algebra needed to check identities
numerically; no symbolic normal form is kept.

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
from terms flips each term on its own.  A commutator of generators thus has
the adjoint [B^dag, A^dag], and each coefficient is evaluated once per point.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping

from ..errors import ConfigError
from ..gammafns import _checked_hbar
from .arrays import TriangularArray

__all__ = ["DifferenceOperator", "measure_ratio", "gen", "commutator",
           "build_Eij", "build_EnN", "twist", "adjoint", "coxeter_cycle"]

Coeff = Callable[[TriangularArray], complex]
ShiftKey = tuple[tuple[tuple[int, int], int], ...]
Symbol = Callable[[TriangularArray], dict[ShiftKey, complex]]
TestFn = Callable[[TriangularArray], complex]


def _shift_key(shift: Mapping[tuple[int, int], int]) -> ShiftKey:
    return tuple(sorted((pos, k) for pos, k in shift.items() if k != 0))


def _add_keys(ka: ShiftKey, kb: ShiftKey) -> ShiftKey:
    merged = dict(ka)
    for pos, k in kb:
        merged[pos] = merged.get(pos, 0) + k
    return _shift_key(merged)


class DifferenceOperator:
    """sum_sigma c_sigma(gamma) f(gamma + hbar*sigma) over distinct shifts, at a fixed hbar.

    `shifts` lists the distinct shift keys; `symbol(arr)` returns a fresh
    dict {key: c_key(arr)} over exactly those keys.  `dagger`, when given,
    builds the adjoint from the parts the operator was made of.
    """

    def __init__(self, hbar: float, shifts: Iterable[ShiftKey], symbol: Symbol,
                 dagger: Callable[[], "DifferenceOperator"] | None = None):
        self.hbar = _checked_hbar(hbar)
        self.shifts = tuple(shifts)
        self.symbol = symbol
        self._dagger = dagger

    def __len__(self) -> int:
        return len(self.shifts)

    def apply(self, f: TestFn, arr: TriangularArray) -> complex:
        """Evaluate (A f)(arr), skipping shifts whose coefficient is exactly zero."""
        h = self.hbar
        out = 0j
        for key, c in self.symbol(arr).items():
            if c != 0:
                out += c * f(arr.shifted(dict(key), h))
        return out

    def compose(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """Operator product self . other (apply other first)."""
        if abs(self.hbar - other.hbar) > 0:
            raise ConfigError("cannot compose operators with different hbar")
        h = self.hbar
        a, b = self.symbol, other.symbol
        sums = {ka: {kb: _add_keys(ka, kb) for kb in other.shifts} for ka in self.shifts}

        def symbol(arr):
            out: dict[ShiftKey, complex] = {}
            for ka, ca in a(arr).items():
                row = sums[ka]
                for kb, cb in b(arr.shifted(dict(ka), h)).items():
                    key = row[kb]
                    out[key] = out.get(key, 0j) + ca * cb
            return out

        shifts = dict.fromkeys(key for row in sums.values() for key in row.values())
        return DifferenceOperator(h, shifts, symbol, lambda: adjoint(other).compose(adjoint(self)))

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        if abs(self.hbar - other.hbar) > 0:
            raise ConfigError("cannot add operators with different hbar")
        a, b = self.symbol, other.symbol

        def symbol(arr):
            out = a(arr)
            for key, c in b(arr).items():
                out[key] = out.get(key, 0j) + c
            return out

        return DifferenceOperator(self.hbar, dict.fromkeys(self.shifts + other.shifts), symbol,
                                  lambda: adjoint(self) + adjoint(other))

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self + (-other)

    def __neg__(self) -> "DifferenceOperator":
        a = self.symbol
        return DifferenceOperator(self.hbar, self.shifts,
                                  lambda arr: {key: -c for key, c in a(arr).items()},
                                  lambda: -adjoint(self))


def _from_terms(h: float, terms: list[tuple[ShiftKey, Coeff]]) -> DifferenceOperator:
    """The operator sum_t c_t(gamma) f(gamma + hbar*key_t); the keys must be distinct.

    Its adjoint has one term per term: shift -key, coefficient
    c_t(gamma - hbar*key) * mu(gamma - hbar*key)/mu(gamma).
    """
    def dagger():
        flipped = []
        for key, c in terms:
            back = {pos: -k for pos, k in key}
            flipped.append((_shift_key(back), lambda arr, c=c, back=back:
                            c(arr.shifted(back, h)) * measure_ratio(arr, back, h)))
        return _from_terms(h, flipped)

    return DifferenceOperator(h, [key for key, _ in terms],
                              lambda arr: {key: c(arr) for key, c in terms}, dagger)


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
                s -= sum(arr.row(n - 1))
            return s / h

        return _from_terms(h, [((), c)])

    if kind not in ("raise", "lower"):
        raise ConfigError(f"unknown generator kind {kind!r}")
    if not 1 <= n <= N - 1:
        raise ConfigError(f"{kind} index {n} out of range for N={N}")

    # raise: -prod_{j <= n+1} (g_ni - g_{n+1,j} - h/2); lower: prod_{j <= n-1} (g_ni - g_{n-1,j} + h/2)
    row, off, sign, step = (n + 1, -h / 2, -1.0, -1) if kind == "raise" else (n - 1, h / 2, 1.0, 1)

    def c(arr, i):
        g = arr.gamma(n, i)
        num = sign + 0j
        for j in range(1, row + 1):
            num *= g - arr.gamma(row, j) + off
        den = 1.0 + 0j
        for t in range(1, n + 1):
            if t != i:
                den *= g - arr.gamma(n, t)
        return num / (h * den)

    return _from_terms(h, [((((n, i), step),), lambda arr, i=i: c(arr, i)) for i in range(1, n + 1)])


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
    commutator [[...[E_{n,n+1}, E_{n+1,n+2}], ...], E_{N-1,N}].
    """
    if not 1 <= n <= N - 1:
        raise ConfigError(f"need 1 <= n <= N-1, got n={n}, N={N}")
    h = float(hbar)
    terms = []
    for chain in itertools.product(*[range(1, N - r + 1) for r in range(1, N - n + 1)]):

        def c(arr, chain=chain):
            val = -1.0 / h
            prev = None
            for r, ir in enumerate(chain, start=1):
                lvl = N - r
                num = 1.0 + 0j
                for j in range(1, lvl + 2):
                    if prev is not None and j == prev:
                        continue
                    num *= arr.gamma(lvl, ir) - arr.gamma(lvl + 1, j) - h / 2
                den = 1.0 + 0j
                for k in range(1, lvl + 1):
                    if k != ir:
                        den *= arr.gamma(lvl, ir) - arr.gamma(lvl, k)
                val *= num / den
                prev = ir
            return val

        terms.append((_shift_key({(N - r, ir): -1 for r, ir in enumerate(chain, start=1)}), c))
    return _from_terms(h, terms)


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


def measure_ratio(arr: TriangularArray, shift: Mapping[tuple[int, int], int], hbar: float) -> complex:
    """mu(gamma + hbar*shift) / mu(gamma) as a finite rational factor.

    mu(gamma) = prod_{n=2}^{N-1} prod_{i != j} 1/Gamma((gamma_{n,i} -
    gamma_{n,j})/hbar) with N = arr.N; it vanishes exactly where some
    within-row difference of rows 2..N-1 lies in hbar * Z_{<=0}.
    """
    out = 1.0 + 0j
    for n in sorted({n for n, _ in shift if 2 <= n < arr.N}):   # rows the shift moves
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                d = shift.get((n, i), 0) - shift.get((n, j), 0)
                if d == 0:
                    continue
                v = (arr.gamma(n, i) - arr.gamma(n, j)) / hbar
                # Gamma(v+d)/Gamma(v) as a Pochhammer product; mu carries 1/Gamma
                p = 1.0 + 0j
                for t in (range(d) if d > 0 else range(-1, d - 1, -1)):
                    p *= v + t
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
    symbol = a.symbol
    terms = [(key, lambda arr, key=key: symbol(arr)[key]) for key in a.shifts]
    return _from_terms(a.hbar, terms)._dagger()
