"""Independent oracles used by the test suite.

These deliberately avoid the library's own gamma/quadrature machinery:
k0_series is the textbook convergent expansion of the modified Bessel
function; homogeneous_poly enumerates monomials directly; integrand is the
Mellin-Barnes integrand at one point of C^m and tensor_trapezoid sums it
node by node over the full n^m grid; ladder_half_extent climbs the
contour's truncation ladder one rung and one scipy call at a time;
gz_measure evaluates the Gelfand-Zetlin pairing measure factor by factor;
plain_operator_deviation applies two operators to one array at a time, with
no memo of symbols or test-function values.
"""

import cmath
import itertools
import math

import numpy as np
from scipy.special import loggamma

from parwhit import LogComplex
from parwhit.errors import ConfigError, PoleError, QuadratureError
from parwhit.gz import TriangularArray, random_array
from parwhit.gz.identity import random_test_function


def k0_series(z: float, terms: int = 120) -> float:
    """Modified Bessel K0 via its convergent small-argument series."""
    euler = 0.5772156649015328606065120900824024
    t = z * z / 4.0
    i0 = 1.0
    term = 1.0
    tail = 0.0
    harmonic = 0.0
    for k in range(1, terms):
        term *= t / (k * k)
        i0 += term
        harmonic += 1.0 / k
        tail += term * harmonic
    return -(math.log(z / 2.0) + euler) * i0 + tail


def homogeneous_poly(gamma, degree: int) -> complex:
    """Complete homogeneous symmetric polynomial by brute monomial enumeration."""
    if degree == 0:
        return 1.0 + 0j
    total = 0j
    for combo in itertools.combinations_with_replacement(range(len(gamma)), degree):
        term = 1.0 + 0j
        for idx in combo:
            term *= gamma[idx]
        total += term
    return total


def gz_measure(arr, hbar: float) -> complex:
    """The pairing measure mu(gamma) = prod_{n=2}^{N-1} prod_{i != j} 1/Gamma((gamma_{n,i} -
    gamma_{n,j})/hbar), N = arr.N, factor by factor; zero on the singular set.  arr is a
    batch of one."""
    rows = arr.rows
    out = 1.0 + 0j
    for n in range(2, arr.N):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                v = (rows[n - 1][i] - rows[n - 1][j]) / hbar
                k = round(v.real)
                if k <= 0 and abs(v - k) <= 1e-12:
                    return 0j
                out *= cmath.exp(-complex(loggamma(v)))
    return out


class _Forgetful(dict):
    """A symbol memo that keeps nothing: every lookup evaluates the symbol afresh."""

    def __setitem__(self, key, value):
        pass


def _plain_apply(op, f, arr):
    """(op f)(arr) at a batch of one, from a memo-free symbol, f taken at a freshly built
    array for each key."""
    out = 0j
    for key, c in op.symbol(arr, _Forgetful(), ()).items():
        if c != 0:
            rows = [list(r) for r in arr.rows]
            for (n, i), k in key:
                rows[n - 1][i - 1] += k * op.hbar
            out += c * f(TriangularArray(tuple(tuple(r) for r in rows)))
    return out


def plain_operator_deviation(A, B, N: int, rng, n_functions: int, n_arrays: int) -> float:
    """operator_deviation with no memo and no batch: the same draws of test functions and
    arrays, one array at a time, and each operator applied on its own to each array, every
    symbol and every point of f computed afresh.  The deviation of an array is formed
    as the library forms it, with numpy's complex abs, which is not Python's."""
    worst = 0.0
    for _ in range(n_functions):
        f = random_test_function(N, rng)
        for _ in range(n_arrays):
            arr = random_array(N, rng)
            va, vb = _plain_apply(A, f, arr), _plain_apply(B, f, arr)
            dev = np.abs(va - vb) / np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1.0)
            worst = max(worst, float(dev[0]))
    return worst


#: 2*K0(2*e^(x/2)) frozen from k0_series (cross-checked against the series at test time)
BESSEL_REFERENCE = {
    -4.0: 2.934809711458726,
    -2.0: 1.2485966466549918,
    0.0: 0.2277877454990671,
    1.0: 0.04936529700560932,
}


def integrand(gamma, s) -> LogComplex:
    """The MB integrand e^{-(x/hbar) sum_i gamma_i} prod_{i,j} gamma1(gamma_i - lambda_j)
    prod_{i != k} 1/gamma1(gamma_i - gamma_k) at one point gamma in C^m, no contour weights.

    Coincident components give an exact zero through the reciprocal-gamma
    measure; a gamma_i - lambda_j on the gamma1 pole lattice raises PoleError.
    """
    h = s.hbar
    g = np.array([complex(v) for v in gamma])
    if g.size != s.m:
        raise ConfigError(f"gamma must have m = {s.m} components")

    def on_lattice(z):
        w = z / h
        return (np.round(w.real) <= 0) & (np.abs(w - np.round(w.real)) <= 1e-12)

    def log_gamma1(z):
        return (z / h) * math.log(h) + loggamma(z / h)

    num = g[:, None] - np.array(s.lam)
    if on_lattice(num).any():
        raise PoleError(f"gamma - lambda_j = {num[on_lattice(num)][0]} lies on the gamma1 pole lattice")
    pairs = (g[:, None] - g)[~np.eye(s.m, dtype=bool)]
    if on_lattice(pairs).any():
        return LogComplex.zero()
    return LogComplex.from_log(complex(
        -(s.x / h) * g.sum() + log_gamma1(num).sum() - log_gamma1(pairs).sum()))


def tensor_trapezoid(m, lam, hbar, x, epsilon, half_extent, nodes) -> tuple[complex, float]:
    """Log of the m-fold trapezoid sum of the MB integrand on (i[-T, T] + epsilon)^m.

    Brute force over all n^m nodes, straight from the definition: the
    one-variable factors and every pair factor 1/gamma1(gamma_i - gamma_k)
    are added in log space, rescaled by the peak and summed with fsum.
    Also returns the cancellation ratio sum|W| / |sum W| of the terms, which
    scales the round-off of any evaluation of the same sum.  Meant for small
    n and m only.
    """
    def log_gamma1(z):
        return (z / hbar) * math.log(hbar) + loggamma(z / hbar)

    y = np.linspace(-half_extent, half_extent, nodes)
    logw = np.full(nodes, math.log(y[1] - y[0]))
    logw[[0, -1]] -= math.log(2.0)
    g = epsilon + 1j * y
    one = logw - math.log(2.0 * math.pi) - (x / hbar) * g
    for lam_j in lam:
        one = one + log_gamma1(g - lam_j)
    eye = np.eye(nodes, dtype=bool)
    pair = -log_gamma1(np.where(eye, 1.0, 1j * (y[:, None] - y[None, :])))
    pair[eye] = -np.inf                     # coincident nodes: the measure vanishes

    L = np.zeros((nodes,) * m, dtype=complex)
    for i in range(m):
        shape = [1] * m
        shape[i] = nodes
        L = L + one.reshape(shape)
        for k in range(m):
            if k != i:
                shape = [1] * m
                shape[i] = shape[k] = nodes
                L = L + (pair if i < k else pair.T).reshape(shape)
    peak = float(np.max(L.real))
    W = np.exp(L - peak).ravel()
    total = math.fsum(W.real) + 1j * math.fsum(W.imag)
    return peak + np.log(total), math.fsum(np.abs(W)) / abs(total)


def ladder_half_extent(s, lines, tol: float) -> float:
    """The truncation T of the contour with these lines, one rung of the ladder at a time.

    T = 2 hbar 1.5^k grows until, on each line k < (m + 1) / 2, the end nodes of the probe
    t linspace(-1, 1, 33) fall 1e-4 tol below the probe's peak, less the cancellation
    |x| (line - max(lambda)) / hbar of a line left of x = 0.  A rung beyond
    200 N max(hbar, line - max(lambda)) raises QuadratureError with the rung in its message.
    """
    h, lam = s.hbar, np.array(s.lam)
    shifts = s.x + 1j * math.pi * (2 * np.arange(s.m) - s.m + 1)
    T = 0.0
    for xk, ck in list(zip(shifts, lines))[:(s.m + 1) // 2]:
        gap = max(0.0, -s.x) * (ck - max(s.lam)) / h
        t = 2.0 * h
        while True:
            if t > 200.0 * s.N * max(h, ck - max(s.lam)):
                raise QuadratureError(f"no contour truncation below T = {t:.3g}")
            g = ck + 1j * (t * np.linspace(-1.0, 1.0, 33))
            z = (g - lam[:, None]) / h
            a = (-(xk / h) * g + (z * math.log(h) + loggamma(z)).sum(axis=0)).real
            if max(a[0], a[-1]) <= math.log(1e-4 * tol) + a.max() - gap:
                break
            t *= 1.5
        T = max(T, t)
    return T


#: spectra of the frozen references below (hbar = 1)
PSI_SPECTRA = {
    (2, 5): (1.17, 0.55, -0.02, -0.73, -1.38),
    (3, 5): (0.62, 0.31, 0.0, -0.33, -0.67),
    (3, 6): (1.31, 0.86, 0.37, -0.08, -0.61, -1.17),
    (3, 4): (0.9, 0.4, -0.3, -1.15),
    (4, 5): (1.17, 0.55, -0.02, -0.73, -1.38),
    (4, 6): (1.31, 0.86, 0.37, -0.08, -0.61, -1.17),
}

#: Psi at (m, N, x), hbar = 1, frozen from the certified mpmath Andréief
#: pole sum of perfbench/reference.py (agreement to 1e-14 at doubled precision)
PSI_REFERENCE = {
    (2, 5, -5.0): 14634.939056792524,
    (2, 5, -2.0): 43.65210608891031,
    (2, 5, 0.0): 0.45959703430216575,
    (2, 5, 3.0): 5.5746494924943074e-05,
    (3, 5, -5.0): 809.8971253367123,
    (3, 5, -2.0): 8.892135182314759,
    (3, 5, 0.0): 0.16819753478356425,
    (3, 5, 3.0): 3.3762880930929094e-05,
    (3, 6, -5.0): 2093368.2817073003,
    (3, 6, -1.0): 13.588617501752794,
    (3, 6, -2.0): 336.7958060949221,
    (3, 6, 0.0): 0.4395338515864435,
    (3, 6, 3.0): 2.159246685022924e-06,
    (3, 4, -3.0): 101.10874987189849149,
    (4, 5, -4.0): 1680.769557131857911,
    (4, 6, -3.0): 28067.018585169468154,
}


#: the lambda of the frozen grid (ROADMAP), one per N; every difference lies at least
#: 0.008 hbar from hbar Z for each hbar of the grid
FROZEN_LAMBDA = {
    2: (0.913, -0.377),
    3: (0.913, 0.141, -0.529),
    4: (0.91, 0.377, -0.141, -0.885),
    5: (0.912, 0.371, -0.137, -0.526, -0.883),
    6: (1.31, 0.86, 0.37, -0.08, -0.61, -1.17),
}


def quad_serves(m: int, N: int) -> bool:
    """Whether auto_contour covers the shape: m <= 3, where its error estimate has
    been checked against the references, and N >= 2m - 1, where the integrand
    decays on a vertical line."""
    return m <= 3 and N >= 2 * m - 1


#: log(2h K_0(2 e^{x/2} / h)) = log Psi^(1,2) at lambda = (0, 0), keyed by (hbar, x),
#: from mpmath at 40 digits; the small-hbar and large-x end of the m = 1 contour
BESSEL_LOG_REFERENCE = {
    (1e-3, 0.0): -2009.7893304599315,
    (1e-3, 2.0): -5446.85294788399,
    (1e-3, 8.0): -109208.08933540875,
    (0.02, 0.0): -105.2969133793265,
    (0.02, 2.0): -277.62431141780087,
    (0.02, 8.0): -5467.110695772094,
    (0.05, 0.0): -43.92432038441084,
    (0.05, 2.0): -113.15365099242011,
    (0.05, 8.0): -2189.8472920164495,
    (0.1, 0.0): -22.88761400802044,
    (0.1, 2.0): -57.74942776008024,
    (0.1, 8.0): -1096.844627779828,
}

#: Psi^(1,2) = 2h e^{-x(a+b)/(2h)} K_{(a-b)/h}(2 e^{x/2}/h) at lambda = (a, b) = (0.913, -0.377),
#: x = -1, keyed by hbar, from mpmath at 40 digits (perfbench/reference.py agrees to 1e-15);
#: the residue series' round-off exceeds its tail estimate at both
SERIES_ROUND_OFF_REFERENCE = {
    0.1: 0.002711926648391898,
    0.2: 0.035887441349030894,
}

#: log Psi (every value positive) at (m, N, lambda, hbar, x) with x >= 2, frozen from
#: perfbench/reference.py; a line left of the saddle loses these to cancellation
SADDLE_REFERENCE = {
    (1, 3, (0.7, 0.0, -0.9), 1.0, 8.0): -43.98405010288445,
    (1, 2, (0.913, -0.377), 1.0, 8.0): -112.76148953015397,
    (1, 2, (0.913, -0.377), 1.0, 10.0): -301.4315752317221,
    (1, 2, (0.913, -0.377), 1.0, 12.0): -812.5003462842017,
    (1, 2, (0.913, -0.377), 0.1, 2.0): -61.59945968406747,
    (1, 2, (0.913, -0.377), 0.2, 2.0): -31.46062231263212,
    (2, 4, (0.913, 0.377, -0.141, -0.887), 1.0, 5.0): -19.289893385849208,
    (2, 4, (0.913, 0.377, -0.141, -0.887), 1.0, 8.0): -43.38184422670436,
    (3, 5, (0.62, 0.31, 0.0, -0.33, -0.67), 1.0, 8.0): -38.57621305486576,
}

#: log Psi (every value positive) at (m, N, lambda, hbar, x), frozen from perfbench/reference.py:
#: the benchmark rows whose error is nearest their estimate, all round-off on a floored line
#: at x ~ -5 (cli-sweep seeds 828 and 1285, quad seed 813)
ROUND_OFF_REFERENCE = {
    (1, 3, (0.7044, -0.009, -0.9091), 1.3, -5.0343): 3.7280992181363786,
    (1, 3, (0.7088, 0.0053, -0.894), 1.3, -5.0281): 3.7485432243744943,
    (1, 3, (1.1007, 0.3573, -0.4421), 1.0, -5.0102): 5.526760590412704,
}
