"""Exception taxonomy shared by all dbdiag modules.

The CLI maps these onto exit codes (usage/config = 2, data = 3, model = 4,
internal = 5), so raising the right class matters more than the message text.
"""


class DiagError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DiagError):
    """Invalid parameters, shapes, or setup (bad split fractions,
    zero-variance feature, shape mismatch at layer construction, ...)."""


class ArchitectureError(ConfigError):
    """Architecture string does not parse or is not a well-formed mirror.

    ``position`` is the 1-based index of the offending token among the
    ``-``-separated tokens of the string, when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DataError(DiagError):
    """Malformed or incompatible input data (CSV ingestion problems,
    duplicate timestamps, feature-name mismatches, series too short)."""


class ModelError(DiagError):
    """Problems with a trained model as an artifact."""


class TrainingError(ModelError):
    """Training diverged or produced nonfinite values; message names the
    epoch/batch or parameter involved."""


class ModelIOError(ModelError):
    """Model file cannot be loaded: truncation, version mismatch,
    checksum failure, or layout not matching its architecture string."""


class InternalError(DiagError):
    """Invariant violation inside the package (backward before forward,
    state that does not match the network). Indicates a bug, not user error."""
