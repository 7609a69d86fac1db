"""Exception types shared across the package."""


class TorusGaugeError(Exception):
    """Base class for all package errors."""


class DimensionError(TorusGaugeError):
    """Operands live on spaces of incompatible dimension."""


class DegreeError(TorusGaugeError):
    """Form degree is out of range for the requested operation."""


class FrequencyError(TorusGaugeError):
    """A trig frequency is not an integer vector, or a trig phase not a rational multiple of pi."""


class ExprSyntaxError(TorusGaugeError):
    """Expression text failed to parse.

    Attributes:
        position: 0-based offset of the offending character.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class NonRealExpressionError(TorusGaugeError):
    """Parsed expression has a nonvanishing imaginary part."""


class QuantizationError(TorusGaugeError):
    """A flux period that must be an integer is not."""


class SizeLimitError(TorusGaugeError):
    """An exact number grew past what can be printed or converted to a float."""


class PathError(TorusGaugeError):
    """A path fails a structural precondition (endpoints, closedness)."""
