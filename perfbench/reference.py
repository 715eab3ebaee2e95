"""Independent high-precision reference for Psi^(m,N)_lambda(x, 0, ..., 0).

Shares no code with parwhit: it uses mpmath only.  On the vertical contour the
pair measure prod_{a<b} 1/(gamma1(i(y_a-y_b)) gamma1(i(y_b-y_a))) equals
prod_{a<b} v sinh(pi v)/pi with v = (y_a - y_b)/hbar, a Vandermonde in y times
a Vandermonde in e^{2 pi y/hbar}.  The Andreief (Cauchy-Binet) identity then
turns the m-fold integral into one m x m determinant of one-variable integrals,

    Psi = m! (2 pi)^-m (2 pi hbar)^-(m(m-1)/2) det M,
    M_ij = 2 pi sum_{l, n >= 0} Res_{gamma = lambda_l - n hbar}
           e^{-(x/hbar) gamma} prod_j gamma1(gamma - lambda_j | hbar)
           * y^i e^{(2j - m + 1) pi y / hbar},          y = -i gamma,

(Andreief 1883; P. J. Forrester, arXiv:1806.10411).  The residue of gamma1 at
-n hbar is hbar^(1-n) (-1)^n / n!, and the remaining gamma1 factors follow the
recurrence gamma1(z - hbar) = gamma1(z) / (z - hbar), so every pole costs a
handful of multiplications at any working precision.

Every value is certified by doubling both the working precision and the pole
truncation: the two must agree to CONVERGENCE_TOL, or the precision doubles
again.  For m = 1, N = 2, hbar = 1 the Bessel closed form
2 e^{-x(l1+l2)/2} K_{l1-l2}(2 e^{x/2}) gives a second, formula-free check.

Recompute any figure from the command line, for example

    python3 perfbench/reference.py --m 3 --N 5 --lambda 0.62,0.31,0,-0.33,-0.67 --x=-3
"""

from __future__ import annotations

import argparse
import itertools
import math

import mpmath as mp

CONVERGENCE_TOL = 1e-14
_START_DPS = 30
_MAX_DPS = 1600


class ReferenceError(RuntimeError):
    """The reference did not converge within the precision cap."""


def _pole_table(lam, h, x, max_order):
    """[(weight, y)] for every pole gamma = lambda_l - n hbar, n <= max_order.

    weight is the residue of e^{-(x/h) gamma} prod_j gamma1(gamma - lambda_j)
    at the pole, computed at the current mpmath precision.
    """
    h = mp.mpf(h)
    x = mp.mpf(x)
    lam = [mp.mpf(v) for v in lam]
    out = []
    for l, lam_l in enumerate(lam):
        d = [lam_l - lam_j for j, lam_j in enumerate(lam) if j != l]
        # n = 0: h * prod_j gamma1(lambda_l - lambda_j), gamma1(z) = h^(z/h) Gamma(z/h)
        w = h * mp.exp(-(x / h) * lam_l)
        for dj in d:
            w *= mp.power(h, dj / h) * mp.gamma(dj / h)
        ex = mp.exp(x)
        for n in range(max_order + 1):
            if n:
                # gamma -> gamma - h: residue factor -1/(n h), exponential e^{x},
                # gamma1(d_j - n h) = gamma1(d_j - (n-1) h) / (d_j - n h)
                w *= -ex / (n * h)
                for dj in d:
                    w /= dj - n * h
            out.append((w, -1j * (lam_l - n * h)))
    return out


def _det_psi(m, h, table):
    h = mp.mpf(h)
    M = mp.matrix(m, m)
    for w, y in table:
        yp = mp.mpc(1)
        for i in range(m):
            for j in range(m):
                M[i, j] += w * yp * mp.exp((2 * j - m + 1) * mp.pi * y / h)
            yp *= y
    M *= 2 * mp.pi
    pref = mp.factorial(m) * (2 * mp.pi) ** (-m) * (2 * mp.pi * h) ** (-(m * (m - 1) // 2))
    return pref * mp.det(M) if m > 1 else pref * M[0, 0]


def _log10_abs_gamma1(w, h):
    """log10 |h^w Gamma(w)| for real non-pole w (reflection for w <= 0)."""
    if w > 0:
        lg = math.lgamma(w)
    else:
        lg = math.log(math.pi) - math.log(abs(math.sin(math.pi * w))) - math.lgamma(1 - w)
    return (w * math.log(h) + lg) / math.log(10)


def truncation(m, lam, h, x, digits):
    """Smallest pole order past the peak term where every weight is 10^-digits below it."""
    N = len(lam)

    def lt(n):
        best = -math.inf
        for l in range(N):
            v = -(x / h) * (lam[l] - n * h) / math.log(10) + (1 - n) * math.log10(h)
            v -= math.lgamma(n + 1) / math.log(10)
            for j in range(N):
                if j != l:
                    v += _log10_abs_gamma1((lam[l] - lam[j] - n * h) / h, h)
            # the moments y^i, i < m, grow like |lambda_l - n h|^(m-1)
            v += (m - 1) * math.log10(1.0 + abs(lam[l]) + n * h)
            best = max(best, v)
        return best

    peak = -math.inf
    n = 0
    while True:
        v = lt(n)
        peak = max(peak, v)
        if n >= 4 and v < peak - digits and v < lt(n - 1):
            return n
        n += 1


def psi(m, N, lam, hbar, x, *, order0=False):
    """Certified Psi as an mpmath mpf (real part; the imaginary part is checked to vanish).

    order0=True keeps only the n = 0 poles, which is the x -> -infinity
    leading term; it needs no truncation choice.
    """
    lam = [float(v) for v in lam]
    if len(lam) != N or not 1 <= m < N:
        raise ValueError(f"bad shape m={m}, N={N}, len(lam)={len(lam)}")
    for a, b in itertools.combinations(lam, 2):
        d = (a - b) / hbar
        if abs(d - round(d)) < 1e-9:
            raise ValueError(f"lambda differences on hbar*Z give double poles: {lam}")
    dps = _START_DPS
    while dps <= _MAX_DPS:
        order = 0 if order0 else truncation(m, lam, hbar, x, dps + 5)
        with mp.workdps(dps):
            a = _det_psi(m, hbar, _pole_table(lam, hbar, x, order))
        with mp.workdps(2 * dps):
            b = _det_psi(m, hbar, _pole_table(lam, hbar, x, 0 if order0 else 2 * order))
            if b != 0 and abs(a - b) <= CONVERGENCE_TOL * abs(b) and abs(b.imag) <= CONVERGENCE_TOL * abs(b):
                return +b.real
        dps *= 2
    raise ReferenceError(f"no convergence below {_MAX_DPS} digits: m={m} N={N} lam={lam} hbar={hbar} x={x}")


def bessel_psi(lam, x):
    """Closed form for m = 1, N = 2, hbar = 1: 2 e^{-x(l1+l2)/2} K_{l1-l2}(2 e^{x/2})."""
    l1, l2 = (mp.mpf(v) for v in lam)
    with mp.workdps(40):
        x = mp.mpf(x)
        return +(2 * mp.exp(-x * (l1 + l2) / 2) * mp.besselk(l1 - l2, 2 * mp.exp(x / 2)))


def main(argv=None):
    p = argparse.ArgumentParser(description="Print the certified mpmath reference value of Psi.")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated list of N reals")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--x", type=float, required=True, help="use --x=-3 for negative values")
    p.add_argument("--order0", action="store_true", help="n = 0 poles only (leading asymptotic)")
    a = p.parse_args(argv)
    lam = [float(t) for t in a.lam.split(",")]
    print(mp.nstr(psi(a.m, a.N, lam, a.hbar, a.x, order0=a.order0), 20))


if __name__ == "__main__":
    main()
