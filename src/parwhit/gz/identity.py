"""Numerical operator-identity checks on random test functions.

Identity checking works pointwise: two operators agree iff they agree on a
family of test functions at random arrays.  Test functions are products of
an exponential e^{sum a gamma} with a few shifted reciprocals
1/(gamma_{n,i} + b); the b offsets are kept well off the real axis so the
hbar-shifts of the operators never cross a pole of the test function.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .arrays import TriangularArray, random_array
from .operators import DifferenceOperator, build_EnN, commutator, gen

__all__ = ["random_test_function", "operator_deviation", "check_brackets",
           "check_build_EnN", "BracketCheck"]


def random_test_function(N: int, rng: np.random.Generator):
    """Exponential times up to three shifted reciprocals, entries randomized."""
    a = {(n, i): complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
         for n in range(1, N + 1) for i in range(1, n + 1)}
    positions = [(n, i) for n in range(1, N + 1) for i in range(1, n + 1)]
    k = int(rng.integers(0, 4))
    chosen = [positions[int(t)] for t in rng.choice(len(positions), size=min(k, len(positions)), replace=False)]
    offsets = {pos: complex(rng.uniform(-1, 1), float(rng.choice([-1, 1])) * rng.uniform(4.0, 7.0))
               for pos in chosen}

    def f(arr: TriangularArray) -> complex:
        val = cmath.exp(sum(a[pos] * arr.gamma(*pos) for pos in a))
        for pos, b in offsets.items():
            val /= arr.gamma(*pos) + b
        return val

    return f


def operator_deviation(A: DifferenceOperator, B: DifferenceOperator, N: int,
                       rng: np.random.Generator, n_functions: int, n_arrays: int) -> float:
    """max relative deviation of (A - B) f over random (f, array) pairs."""
    worst = 0.0
    for _ in range(n_functions):
        f = random_test_function(N, rng)
        for _ in range(n_arrays):
            arr = random_array(N, rng)
            try:
                va, vb = A.apply(f, arr), B.apply(f, arr)
            except OverflowError as exc:
                raise DomainError(f"a test function leaves the double range at hbar = {A.hbar:g}") from exc
            scale = max(abs(va), abs(vb), 1.0)
            worst = max(worst, abs(va - vb) / scale)
    return worst


@dataclass(frozen=True)
class BracketCheck:
    name: str
    deviation: float


def check_brackets(N: int, hbar: float, n_functions: int, n_arrays: int,
                   seed: int) -> list[BracketCheck]:
    """[E_{n,n+1}, E_{n+1,n}] = E_{nn} - E_{n+1,n+1} for n = 1..N-1."""
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
