"""Exception types raised across the library, and the check of integer counts."""

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


def check_count(value, minimum: int, message: str) -> None:
    """Raise ``ConfigError(message)`` unless ``value`` is an integer of at
    least ``minimum``; numpy integers count, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(message)
