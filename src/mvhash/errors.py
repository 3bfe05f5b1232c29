"""Exception types shared across the package, and the one integer argument check."""

import operator


class InvalidArgument(ValueError):
    """A precondition on an argument was violated."""


class ShapeMismatch(InvalidArgument):
    """Array dimensions disagree with the declared dims."""


class CapacityError(InvalidArgument):
    """More centers requested than distinct codes exist."""


class GenerationFailure(RuntimeError):
    """Center sampling exhausted its retry budget."""


class FormatError(RuntimeError):
    """A binary file is malformed (bad magic, truncation, bad version)."""


class CacheMismatch(RuntimeError):
    """A backward pass was given a cache from a different forward call."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class InvalidState(RuntimeError):
    """An operation was called on an object in an unusable state."""


def integer(value, name: str, least: int, below: int | None = None) -> int:
    """`value` as a Python int (numpy integers included) in [least, below), or
    InvalidArgument naming `name`; a float or a string is never truncated. A
    power-of-two bound from 2^32 up is written as 2^n."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None
    if below is not None and not least <= n < below:
        top = below if below < 2**32 or below & (below - 1) else f"2^{below.bit_length() - 1}"
        raise InvalidArgument(f"{name} {n} is outside [{least}, {top})")
    if n < least:
        raise InvalidArgument(f"{name} must be >= {least}, got {n}")
    return n
