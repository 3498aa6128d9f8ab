"""Exception types shared across the pipeline, and integer() and real(),
the one check of an integer and of a number: every type that holds one
applies it, whether the value came from a file or a library call.

The CLI maps these onto exit codes: ConfigError and FormatError exit 2,
DegenerateDataError and ConvergenceError exit 3.
"""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration or command usage."""


class FormatError(ValueError):
    """A file did not match its declared on-disk format."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class DegenerateDataError(ValueError):
    """Input data admits no meaningful fit (all-equal, non-positive, too few)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget, or a fit came out
    non-finite."""


def integer(value, name: str) -> int:
    """An integer: 2, 2.0 and numpy integers pass as an int; a fractional,
    non-finite, boolean or string value raises ValueError rather than
    being truncated or parsed."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def real(value, name: str) -> float:
    """A finite number, as a float: a boolean, a string, NaN, an infinity
    (which would pass any "> 0" range check) or an int too large for a
    float raises ValueError.  Range is the caller's."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float, got {value!r}") from None
        raise ValueError(f"{name} must be finite, got {value}")
    raise ValueError(f"{name} must be a number, got {value!r}")
