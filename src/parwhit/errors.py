"""Exception hierarchy. CLI maps these to exit codes (see cli.py)."""


class ParwhitError(Exception):
    """Base class for all library errors."""


class ConfigError(ParwhitError):
    """Invalid configuration or parameter combination."""


class DomainError(ParwhitError):
    """Input outside the numerical domain of a method (e.g. residue series at x >= 0)."""


class PoleError(DomainError):
    """A gamma-function argument landed on (or within tolerance of) a pole."""


class GenericityError(DomainError):
    """Spectral parameters violate the genericity condition lambda_i - lambda_j not in hbar*Z."""


class CoincidentPointsError(DomainError):
    """Interpolation-node style input with coincident points."""


class QuadratureError(ParwhitError):
    """Contour quadrature failed to converge to the requested tolerance."""


class DeskScaleError(QuadratureError):
    """Instance exceeds the supported desk-scale size (m >= 4 quadrature)."""


class SupportError(ConfigError):
    """Inconsistent or unsupported support constraints for the right Whittaker vector."""


class VerificationError(ParwhitError):
    """A numerical verification suite failed."""
