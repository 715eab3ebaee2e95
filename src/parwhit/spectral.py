"""Problem-instance and contour-configuration containers."""

from __future__ import annotations

import math
from dataclasses import dataclass


import numpy as np

from .errors import ConfigError, GenericityError

__all__ = ["SpectralData", "ContourConfig", "GENERICITY_MARGIN", "MAX_NODES_PER_DIM", "MAX_REL_ERR"]

#: minimal distance of lambda_i - lambda_j from hbar*Z, in units of hbar
GENERICITY_MARGIN = 1e-6

#: most trapezoid nodes per dimension a contour may have (a few MB per moment column)
MAX_NODES_PER_DIM = 2 ** 20

#: largest relative error estimate a route serves (eval_mb's default bound, the series' tail bound)
MAX_REL_ERR = 1e-3


@dataclass(frozen=True)
class SpectralData:
    """One problem instance: evaluate Psi^(m,N)_lambda at (x, 0, ..., 0).

    lam holds the N real spectral parameters; hbar > 0; x real (the residue
    series additionally requires x < 0).
    """

    m: int
    N: int
    lam: tuple[float, ...]
    hbar: float
    x: float

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.N, int)):
            raise ConfigError("m and N must be integers")
        if not 1 <= self.m < self.N:
            raise ConfigError(f"need 1 <= m < N, got m={self.m}, N={self.N}")
        lam = tuple(float(v) for v in self.lam)
        if len(lam) != self.N:
            raise ConfigError(f"lambda must have length N={self.N}, got {len(lam)}")
        if not all(math.isfinite(v) for v in lam):
            raise ConfigError("lambda entries must be finite")
        object.__setattr__(self, "lam", lam)
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ConfigError(f"hbar must be finite and > 0, got {self.hbar}")
        if not math.isfinite(self.x):
            raise ConfigError("x must be finite")

    @property
    def lam_array(self) -> np.ndarray:
        return np.asarray(self.lam, dtype=float)

    @property
    def lam_max(self) -> float:
        return max(self.lam)

    def require_generic(self, margin: float = GENERICITY_MARGIN) -> None:
        """Reject instances with lambda_i - lambda_j within margin*hbar of hbar*Z.

        Non-generic spectra produce higher-order poles in the residue lattice,
        which this library does not evaluate.
        """
        h = self.hbar
        for i in range(self.N):
            for j in range(self.N):
                if i == j:
                    continue
                d = (self.lam[i] - self.lam[j]) / h
                if abs(d - round(d)) < margin:
                    raise GenericityError(
                        f"lambda_{i + 1} - lambda_{j + 1} = {self.lam[i] - self.lam[j]:.6g} "
                        f"is within {margin:g}*hbar of {round(d)}*hbar"
                    )


@dataclass(frozen=True)
class ContourConfig:
    """Truncated vertical lines Re gamma = lines[k] + i[-T, T], one per column of the quadrature.

    The m lines must clear max(lambda); nodes_per_dim lies in [16, MAX_NODES_PER_DIM];
    the trapezoid step 2T/(nodes-1) must not exceed hbar/4 (validated against a SpectralData by validate_for).
    """

    lines: tuple[float, ...]
    half_extent: float
    nodes_per_dim: int

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(map(float, self.lines)))
        if not (self.lines and all(map(math.isfinite, (*self.lines, self.half_extent))) and self.half_extent > 0):
            raise ConfigError("contour needs finite lines and half_extent > 0")
        n = self.nodes_per_dim
        if not (isinstance(n, int) and 16 <= n <= MAX_NODES_PER_DIM):
            raise ConfigError(f"nodes_per_dim must be an int in [16, {MAX_NODES_PER_DIM}], "
                              f"got {self.nodes_per_dim}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_extent / (self.nodes_per_dim - 1)

    def validate_for(self, s: SpectralData) -> None:
        if len(self.lines) != s.m or min(self.lines) <= s.lam_max:
            raise ConfigError(
                f"the contour needs m = {s.m} lines above max(lambda) = {s.lam_max:.6g}, got {self.lines}"
            )
        if self.step > s.hbar / 4 * (1 + 1e-12):
            raise ConfigError(
                f"trapezoid step {self.step:.6g} exceeds hbar/4 = {s.hbar / 4:.6g}; increase nodes_per_dim"
            )
