"""Complex gamma machinery in the hbar-rescaled normalization.

Every route to Psi evaluates the rescaled gamma

    gamma1(z | hbar) = hbar^(z/hbar) * Gamma(z/hbar),

with the principal branch of hbar^(z/hbar) = exp((z/hbar) log hbar), hbar > 0.
It has simple poles exactly at z = -n*hbar, n = 0, 1, 2, ..., and satisfies
the recurrence gamma1(z + hbar) = z * gamma1(z).  Plain Gamma is gamma1 at
hbar = 1.

Two kernels carry all of it, and this is the only module that calls scipy:

    log_gamma1(z, hbar)  (z/hbar) log hbar + loggamma(z/hbar), elementwise on
                         numpy arrays or scalars, with no pole or hbar check;
    on_pole_lattice(w)   whether w lies within POLE_TOL of a non-positive
                         integer, the pole set of Gamma(w).

The quadrature, the residue tables, the coset sum and the GZ Whittaker vector
call these two; scipy's complex digamma, bound here too, puts the quadrature's
lines through their saddles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, loggamma as _loggamma

from .errors import ConfigError

__all__ = ["log_gamma1", "on_pole_lattice", "digamma", "POLE_TOL"]

#: distance (in units of hbar for gamma1) below which an argument counts as a pole
POLE_TOL = 1e-12


def log_gamma1(z, hbar: float):
    """Unchecked natural log of gamma1(z|hbar), elementwise; the caller guards poles and hbar.

    z is a complex scalar or array, or a real array: that is divided by hbar
    as reals and only then made complex, which selects the principal branch
    on the negative real axis.
    """
    w = z / hbar
    if isinstance(w, np.ndarray) and w.dtype.kind == "f":
        w = w.astype(complex)
    return w * math.log(hbar) + _loggamma(w)


def on_pole_lattice(w):
    """True where w is within POLE_TOL of a non-positive integer, elementwise."""
    n = (w.real + 0.5) // 1.0      # the nearest integer; ties are never within POLE_TOL
    return (n <= 0) & (abs(w.real - n) <= POLE_TOL) & (abs(w.imag) <= POLE_TOL)


def _checked_hbar(hbar) -> float:
    if not (isinstance(hbar, (int, float)) and math.isfinite(hbar) and hbar > 0):
        raise ConfigError(f"hbar must be a finite real > 0, got {hbar!r}")
    return float(hbar)
