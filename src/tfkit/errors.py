"""Exception types shared across the package, and as_integer, the one
rule every integer argument (orders, coordinates, steps, counts) meets;
as_integers applies it to a sequence of them."""

import operator
from collections.abc import Iterable


def as_integer(value, what: str) -> int:
    """value as an int: any integer type (int, np.int64, ...), never a bool;
    otherwise a TypeError naming it, not a truncated float or parsed string."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def as_integers(values, what: str, each: str) -> tuple:
    """values as a tuple of ints, each judged by as_integer as `each`; a
    TypeError naming values when it is not iterable, such as a bare
    integer, in place of Python's own "'int' object is not iterable"."""
    if not isinstance(values, Iterable):
        raise TypeError(f"{what} must be an integer sequence, got {values!r}")
    return tuple(as_integer(v, each) for v in values)


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
