"""Exception types raised across the library, and the checks of integer
arguments and bandwidths."""

import math
import numbers


class OrbitregError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(OrbitregError):
    """Two points (or a point and an operation) belong to different spaces."""


class VariantMismatchError(OrbitregError):
    """Two group elements have incompatible variants."""


class IncompatibleActionError(OrbitregError):
    """A group element or subgroup cannot act on the given space."""


class InvalidElementError(OrbitregError):
    """A group element violates its representation invariant (e.g. non-unit quaternion)."""


class OffOrbitError(OrbitregError):
    """A target point does not lie on the required orbit.

    Carries the measured deviation so callers can report how far off it was.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation {deviation:.3e})")
        self.deviation = deviation


class EmptyHoldoutError(OrbitregError):
    """An error estimate was requested over an empty holdout set."""


class ConfigError(OrbitregError):
    """A configuration value is missing, malformed, or out of range."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: numpy integers count, bools and
    floats do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(value, minimum: int, message: str) -> None:
    """Raise ``ConfigError(message)`` unless ``value`` is an integer (see
    :func:`is_integer`) of at least ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise ConfigError(message)


def check_bandwidth(h) -> float:
    """``h`` as a float; raise :class:`ConfigError` unless it is finite and
    positive."""
    h = float(h)
    if not 0.0 < h < math.inf:
        raise ConfigError(f"bandwidth must be finite and positive, got {h}")
    return h
