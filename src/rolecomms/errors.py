"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class InconsistentObservationError(ValueError):
    """An observed action has zero probability under the assumed speaker model."""


class SingularGainError(ValueError):
    """A required diagonal gain entry is zero."""


class ComparisonError(ValueError):
    """Two benchmark conditions cannot be compared (unpaired seeds or environments)."""


class GenerationError(RuntimeError):
    """Random environment generation exhausted its retry budget."""


class ConfigError(ValueError):
    """A config file or system file failed validation."""
