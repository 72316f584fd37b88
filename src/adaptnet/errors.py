"""Exception hierarchy and the integer check shared across the package."""

from numbers import Integral


class AdaptNetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(AdaptNetError):
    """Malformed, inconsistent, or out-of-domain configuration input."""


class UnsupportedInputError(AdaptNetError):
    """Structurally valid input outside the domain an operation supports."""


class NotDiagonalizableError(UnsupportedInputError):
    """Combination matrix failed the diagonalizability conditioning check."""


class StabilityError(AdaptNetError):
    """Operation requires a stable configuration and the input is not."""


class NumericalError(AdaptNetError):
    """An iterative numerical procedure failed to converge."""


def check_integer(name: str, value, low: int = 0, high: int | None = None):
    """``value`` if it is an integer (not a bool) of at least ``low`` and, when
    ``high`` is given, below it; else a ConfigError.  Compared as a Python int,
    so a NumPy integer of any width is compared exactly."""
    if (isinstance(value, bool) or not isinstance(value, Integral) or int(value) < low
            or high is not None and int(value) >= high):
        bound = f"of at least {low}" if high is None else f"in [{low}, {high})"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return value
