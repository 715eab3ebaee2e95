"""Log-magnitude/phase representation of complex values.

Everything downstream (integrands, residue terms, coset sums) can reach
magnitudes like e^{+-|x| lambda / hbar}, far past double-precision range, so
values are carried as (log|z|, arg z) and only materialized to ordinary
complex when safely representable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["LogComplex", "rescaled_sum", "wrap_phase"]

_TWO_PI = 2.0 * math.pi

#: largest log-magnitude that exp() can materialize without overflow
MAX_EXP_LOG = 709.0


def wrap_phase(phi: float) -> float:
    """Reduce a phase to the principal interval (-pi, pi]."""
    phi = math.remainder(phi, _TWO_PI)
    if phi <= -math.pi:
        phi += _TWO_PI
    return phi


@dataclass(frozen=True)
class LogComplex:
    """A complex number z stored as (log|z|, arg z).

    The zero value is represented by log_mag = -inf (phase 0 by convention).
    Multiplication adds log-magnitudes and wraps phases, so products of
    wildly-scaled factors stay exact in log_mag up to rounding.
    """

    log_mag: float
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "phase", wrap_phase(self.phase) if math.isfinite(self.phase) else 0.0)
        if self.log_mag == -math.inf:
            object.__setattr__(self, "phase", 0.0)

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(-math.inf, 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return cls.zero()
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @classmethod
    def from_log(cls, w: complex) -> "LogComplex":
        """Interpret w as a natural logarithm: value = exp(w)."""
        w = complex(w)
        return cls(w.real, wrap_phase(w.imag))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        """Materialize as ordinary complex; raises OverflowError past ~e^709."""
        if self.is_zero:
            return 0j
        if self.log_mag > MAX_EXP_LOG:
            raise OverflowError(
                f"log-magnitude {self.log_mag:.3g} too large for a double"
            )
        return cmath.exp(complex(self.log_mag, self.phase))

    def __mul__(self, other: "LogComplex | complex | float") -> "LogComplex":
        if not isinstance(other, LogComplex):
            other = LogComplex.from_complex(complex(other))
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag + other.log_mag, self.phase + other.phase)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogComplex | complex | float") -> "LogComplex":
        if not isinstance(other, LogComplex):
            other = LogComplex.from_complex(complex(other))
        if other.is_zero:
            raise ZeroDivisionError("division by LogComplex zero")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag - other.log_mag, self.phase - other.phase)

    def __neg__(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mag, self.phase + math.pi)


def rescaled_sum(values: Iterable[LogComplex]) -> LogComplex:
    """Sum LogComplex values by rescaling to the largest magnitude.

    The rescaled addends are accumulated with math.fsum (exact compensated
    summation), so cancellation between terms of opposite sign is resolved
    down to the rounding of the individual exponentials.
    """
    vals: Sequence[LogComplex] = [v for v in values if not v.is_zero]
    if not vals:
        return LogComplex.zero()
    m = max(v.log_mag for v in vals)
    re = math.fsum(math.exp(v.log_mag - m) * math.cos(v.phase) for v in vals)
    im = math.fsum(math.exp(v.log_mag - m) * math.sin(v.phase) for v in vals)
    mag = math.hypot(re, im)
    if mag == 0.0:
        return LogComplex.zero()
    return LogComplex(m + math.log(mag), math.atan2(im, re))
