"""Numerical operator-identity checks on random test functions.

Identity checking works pointwise: two operators agree iff they agree on a
family of test functions at random arrays.  Test functions are products of
an exponential e^{sum a gamma} with a few shifted reciprocals
1/(gamma_{n,i} + b); the b offsets are kept well off the real axis so the
hbar-shifts of the operators never cross a pole of the test function.  A
check draws all its (test function, array) samples first, in order, and
evaluates them as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DomainError
from .arrays import TriangularArray, random_array
from .operators import DifferenceOperator, build_EnN, commutator, gen

__all__ = ["random_test_function", "operator_deviation", "check_brackets",
           "check_build_EnN", "BracketCheck"]


@dataclass(frozen=True)
class _TestFn:
    """e^{sum_p a_p gamma_p} / prod_t (gamma_{pos_t} + b_t) over the used reciprocals t.

    Each field has one column, shared by every array of a batch, or one
    column per array; positions p run row by row.
    """

    a: np.ndarray       # (P, F) exponent coefficients
    pos: np.ndarray     # (3, F) position of reciprocal t
    b: np.ndarray       # (3, F) its offset
    used: np.ndarray    # (3, F) whether reciprocal t is present

    def __call__(self, arr: TriangularArray) -> np.ndarray:
        x = arr.data
        val = np.exp(np.add.accumulate(self.a * x)[-1])     # the exponent summed left to right
        # an unused reciprocal divides by exactly 1, which leaves the value as it is
        den = np.where(self.used, x[self.pos, np.arange(x.shape[1])] + self.b, 1)
        for t in np.flatnonzero(self.used.any(axis=1)):
            val = val / den[t]
        return val

    @staticmethod
    def stack(fns: list["_TestFn"], repeat: int) -> "_TestFn":
        """One column per array of a batch in which each of fns serves `repeat` arrays in turn."""
        return _TestFn(*(np.repeat(np.concatenate([getattr(f, name) for f in fns], axis=1),
                                   repeat, axis=1) for name in ("a", "pos", "b", "used")))


def random_test_function(N: int, rng: np.random.Generator) -> _TestFn:
    """Exponential times up to three shifted reciprocals, entries randomized."""
    P = N * (N + 1) // 2
    a = np.empty((P, 1), dtype=complex)
    draws = rng.uniform(-0.3, 0.3, size=2 * P)       # (re, im) per position, row by row
    a.real[:, 0], a.imag[:, 0] = draws[0::2], draws[1::2]
    k = int(rng.integers(0, 4))
    pos, b = np.zeros((3, 1), dtype=int), np.zeros((3, 1), dtype=complex)
    for t, p in enumerate(rng.choice(P, size=min(k, P), replace=False)):
        pos[t] = p
        b[t] = complex(rng.uniform(-1, 1), float(rng.choice([-1, 1])) * rng.uniform(4.0, 7.0))
    return _TestFn(a, pos, b, np.arange(3)[:, None] < min(k, P))


def operator_deviation(A: DifferenceOperator, B: DifferenceOperator, N: int,
                       rng: np.random.Generator, n_functions: int, n_arrays: int) -> float:
    """max relative deviation of (A - B) f over random (f, array) pairs.

    Each test function is drawn with its n_arrays arrays after it, and all
    n_functions * n_arrays pairs are evaluated as one batch.  A and B share
    one dict of f values, so each shifted batch is built and f evaluated
    there once for both operators.
    """
    if n_functions < 1 or n_arrays < 1:
        raise ConfigError(f"need n_functions >= 1 and n_arrays >= 1, got {n_functions} and {n_arrays}")
    if abs(A.hbar - B.hbar) > 0:
        raise ConfigError("cannot compare operators with different hbar")
    fns, arrays = [], []
    for _ in range(n_functions):
        fns.append(random_test_function(N, rng))
        arrays.append(random_array(N, rng, n_arrays))
    f, arr = _TestFn.stack(fns, n_arrays), TriangularArray.stack(arrays)
    values: dict = {}
    with np.errstate(all="ignore"):      # a value out of the double range is refused below
        va, vb = A.apply(f, arr, values), B.apply(f, arr, values)
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise DomainError(f"a test function leaves the double range at hbar = {A.hbar:g}")
    scale = np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1.0)
    return float((np.abs(va - vb) / scale).max())


@dataclass(frozen=True)
class BracketCheck:
    name: str
    deviation: float


def check_brackets(N: int, hbar: float, n_functions: int, n_arrays: int,
                   seed: int) -> list[BracketCheck]:
    """[E_{n,n+1}, E_{n+1,n}] = E_{nn} - E_{n+1,n+1} for n = 1..N-1."""
    if N < 2:   # no n in 1..N-1: an empty list of checks would pass
        raise ConfigError(f"check_brackets needs N >= 2, got N={N}")
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, N):
        lhs = commutator(gen("raise", n, N, hbar), gen("lower", n, N, hbar))
        rhs = gen("cartan", n, N, hbar) - gen("cartan", n + 1, N, hbar)
        dev = operator_deviation(lhs, rhs, N, rng, n_functions, n_arrays)
        out.append(BracketCheck(f"[E{n}{n + 1},E{n + 1}{n}]=E{n}{n}-E{n + 1}{n + 1}", dev))
    return out


def check_build_EnN(N: int, hbar: float, n_functions: int, n_arrays: int,
                    seed: int) -> list[BracketCheck]:
    """Closed-form E_{n,N} against the nested commutator chain, n = 1..N-1."""
    if N < 2:
        raise ConfigError(f"check_build_EnN needs N >= 2, got N={N}")
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, N):
        closed = build_EnN(n, N, hbar)
        nested = gen("raise", n, N, hbar)
        for k in range(n + 1, N):
            nested = commutator(nested, gen("raise", k, N, hbar))
        dev = operator_deviation(closed, nested, N, rng, n_functions, n_arrays)
        out.append(BracketCheck(f"E{n}{N}-closed-vs-nested", dev))
    return out
