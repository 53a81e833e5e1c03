"""Exception types shared across the package."""


class ResetCertError(Exception):
    """Base class for all package-specific errors."""


# --- transfer functions / state space ---

class EvaluationAtPole(ResetCertError):
    """Frequency response requested at (or numerically at) a pole."""


class ImproperTransferFunction(ResetCertError):
    """A state-space realization needs a proper transfer function."""


class NormalizationError(ResetCertError):
    """Shaping-filter denominator has a zero constant term."""


class DimensionMismatch(ResetCertError):
    """Matrix dimensions are incompatible."""


class NonStrictlyProperPlant(ResetCertError):
    """The plant slot of the loop requires a strictly proper block."""


class InsufficientFrfResolution(ResetCertError):
    """Adjacent FRF samples rotate too fast for winding-number counting."""


# --- reset elements ---

class RealizationUnavailable(ResetCertError):
    """Requested realization does not exist for these parameters."""


class NotPositiveDefinite(ResetCertError):
    """A matrix that must be symmetric positive definite is not."""


# --- FRF ingestion ---

class ParseError(ResetCertError):
    """Malformed row in an FRF file."""


class NonMonotoneFrequency(ResetCertError):
    """FRF frequencies must be strictly increasing."""


class EmptyTable(ResetCertError):
    """FRF file contains fewer than two samples."""


class OutOfBand(ResetCertError):
    """Query frequency outside the measured band."""


# --- classification / certification ---

class ZeroShapingFilter(ResetCertError):
    """Shaping filter response too small on the grid (modified loop)."""


class SparseGrid(ResetCertError):
    """Frequency grid too coarse for classification."""


class GridTooSparse(ResetCertError):
    """Frequency grid too coarse for an SPR sweep or certification."""


class DomainError(ResetCertError):
    """Parameter outside its admissible domain (e.g. |gamma| >= 1)."""


# --- simulation ---

class RunTooLong(ResetCertError):
    """A simulation asks for more grid steps than its trace can hold, or for
    more Taylor cells per grid step than a step may hold."""


# --- CLI ---

class ConfigError(ResetCertError):
    """Invalid or incomplete run configuration."""
