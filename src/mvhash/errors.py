"""Exception types shared across the package, and its numeric argument checks: `integer`, `real`."""

import numbers
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


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def integer(value, name: str, least: int, below: int | None = None) -> int:
    """`value` as a Python int (numpy integers included) in [least, below), or
    InvalidArgument naming `name`; a float or a string is never truncated. A
    power-of-two bound from 2^32 up is written as 2^n."""
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise InvalidArgument(f"{name} must be >= {least}, got {n}")
    if below is not None and n >= below:
        top = below if below < 2**32 or below & (below - 1) else f"2^{below.bit_length() - 1}"
        raise InvalidArgument(f"{name} {n} is outside [{least}, {top})")
    return n


def real(value, name: str, interval: str) -> float:
    """`value` as a float in `interval`, written as printed ("[0, 1)"), or InvalidArgument."""
    if not isinstance(value, numbers.Real):
        raise InvalidArgument(f"{name} must be a real number, got {value!r}")
    try:
        x, (lo, hi) = float(value), map(float, interval[1:-1].split(","))
    except OverflowError:  # an int or a fraction beyond the float range
        raise InvalidArgument(f"{name} is outside the float range") from None
    if not (lo < x < hi or x == lo and interval[0] == "[" or x == hi and interval[-1] == "]"):
        raise InvalidArgument(f"{name} must be in {interval}, got {x}")
    return x
