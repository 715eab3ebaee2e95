"""parwhit: parabolic (Grassmannian) Whittaker function numerics.

Evaluates the specialized Whittaker function Psi^(m,N)_lambda(x, 0, ..., 0)
by Mellin-Barnes contour quadrature and by its residue-lattice series,
computes the leading x -> -infinity asymptotics, and numerically verifies
the Gelfand-Zetlin difference-operator scaffolding behind those formulas.
"""

__version__ = "0.1.0"

from .asympt import leading_asymptotic
from .errors import (CoincidentPointsError, ConfigError, DeskScaleError,
                     DomainError, GenericityError, ParwhitError, PoleError,
                     QuadratureError, SupportError, VerificationError)
from .logcomplex import LogComplex, rescaled_sum
from .mbquad import MBResult, auto_contour, eval_mb
from .residues import SeriesResult, eval_residue_series, residue_term
from .spectral import ContourConfig, SpectralData

__all__ = [
    "__version__",
    "LogComplex", "rescaled_sum",
    "SpectralData", "ContourConfig",
    "MBResult", "eval_mb", "auto_contour",
    "SeriesResult", "residue_term", "eval_residue_series",
    "leading_asymptotic",
    "ParwhitError", "ConfigError", "DomainError", "PoleError",
    "GenericityError", "CoincidentPointsError", "DeskScaleError",
    "QuadratureError", "SupportError", "VerificationError",
]
