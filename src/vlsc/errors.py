"""Exception taxonomy shared across the package."""


class VlscError(Exception):
    """Base class for all package errors."""


class ShapeError(VlscError):
    """Operand shapes do not conform."""


class GraphError(VlscError):
    """A backward sweep reached a node an earlier sweep consumed."""


class NumericError(VlscError):
    """Non-finite or degenerate numeric state (zero-norm rows, NaN losses)."""


class ConfigError(VlscError):
    """Invalid configuration value or combination."""


class VocabError(VlscError):
    """Word not present in the vocabulary."""


class InputError(VlscError):
    """Malformed input data (e.g. all-pad caption)."""


class WorkerError(VlscError):
    """A worker process failed with an error of no package type, or
    ended without a reply."""
