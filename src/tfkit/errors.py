"""Exception types shared across the package, and as_integer, the one
rule every integer argument (orders, coordinates, steps, counts) meets."""

import operator


def as_integer(value, what: str) -> int:
    """value as an int: any integer type (int, np.int64, ...), never a bool;
    otherwise a TypeError naming it, not a truncated float or parsed string."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


class GroupMismatchError(ValueError):
    """Operands live on different groups (orders or Haar weights differ)."""


class LatticeError(ValueError):
    """Invalid lattice step or weight, or a phase point outside the lattice."""


class WindowError(ValueError):
    """Window unusable for the requested operation (zero, or not normalized)."""


class FrameError(ValueError):
    """A Gabor system is not a frame; carries the computed bounds."""

    def __init__(self, message: str, bounds=None):
        super().__init__(message)
        self.bounds = bounds


class ConfigError(ValueError):
    """Malformed experiment configuration."""
