"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration and input-format
problems exit with 2, pipeline/model failures with 1.
"""


class SmxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SmxError):
    """A file cannot be opened, or a setting (zones, engine, manifest, flag) is invalid."""


class FormatError(SmxError):
    """Malformed input content: not UTF-8, invalid JSON, CSV layout, axis ordering."""


class PipelineError(SmxError):
    """A computation failed mid-pipeline (degenerate data, non-convergence)."""


class ModelError(SmxError):
    """Model training or inference failed, including external-process faults."""
