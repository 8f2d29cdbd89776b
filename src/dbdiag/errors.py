"""Exception taxonomy shared by all dbdiag modules.

Each class carries the exit code the CLI returns for it as ``exit_code``
(usage/config = 2, data = 3, model = 4, internal = 5), inherited by its
subclasses, so raising the right class matters more than the message text.
"""


class DiagError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 5


class ConfigError(DiagError):
    """Invalid parameters, shapes, or setup (bad split fractions,
    zero-variance feature, shape mismatch at layer construction, ...)."""

    exit_code = 2


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

    exit_code = 3


class ModelError(DiagError):
    """Problems with a trained model as an artifact."""

    exit_code = 4


class TrainingError(ModelError):
    """Training diverged or produced nonfinite values; message names the
    epoch/batch or parameter involved."""


class ModelIOError(ModelError):
    """Model file cannot be loaded: truncation, version mismatch,
    checksum failure, or layout not matching its architecture string."""


class InternalError(DiagError):
    """Invariant violation inside the package (backward before forward,
    state that does not match the network). Indicates a bug, not user error."""
