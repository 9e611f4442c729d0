"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible. The message names both shapes."""


class DegenerateInputError(ValueError):
    """Input is formally valid but carries no usable signal (e.g. all-zero
    paired differences, a contingency table that collapses below 2x2)."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class ParseError(ValueError):
    """An input file could not be parsed.

    ``line_number`` is 1-based and refers to the offending line when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class FeatureMismatchError(ValueError):
    """Feature columns differ from the ones a model was trained on."""


class ModelIntegrityError(RuntimeError):
    """A model file is corrupt or truncated; nothing was loaded."""


class ModelVersionError(RuntimeError):
    """A model file has an unsupported format version."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value. ``context`` names the
    parameter block or epoch where it happened."""

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context
