import errno
import os

import numpy as np
import pytest

from mvhash.errors import FormatError, InvalidArgument, ShapeMismatch, in_file, real


@pytest.mark.parametrize("value, interval, want", [
    (0.5, "(0, inf)", 0.5),
    (1e307, "(0, inf)", 1e307),
    (0, "[0, 1)", 0.0),
    (1, "[0, 1]", 1.0),
    (np.float32(0.25), "[0, 1)", 0.25),
    (np.int64(3), "[0, inf)", 3.0),
])
def test_real_returns_a_float_inside_the_interval(value, interval, want):
    got = real(value, "x", interval)
    assert type(got) is float and got == want


@pytest.mark.parametrize("value, interval, message", [
    (0.0, "(0, inf)", "x must be in (0, inf), got 0.0"),
    (1.0, "[0, 1)", "x must be in [0, 1), got 1.0"),
    (-1e-300, "[0, 1]", "x must be in [0, 1], got -1e-300"),
    (float("nan"), "[0, 1]", "x must be in [0, 1], got nan"),
    (float("inf"), "(0, inf)", "x must be in (0, inf), got inf"),
    (float("-inf"), "[0, inf)", "x must be in [0, inf), got -inf"),
    (np.float64("nan"), "(0, inf)", "x must be in (0, inf), got nan"),
    ("0.5", "(0, inf)", "x must be a real number, got '0.5'"),
    (None, "(0, inf)", "x must be a real number, got None"),
    (1j, "(0, inf)", "x must be a real number, got 1j"),
    ([0.5], "(0, inf)", "x must be a real number, got [0.5]"),
    # float() would raise a bare OverflowError
    pytest.param(10**400, "[0, inf)", "x is outside the float range", id="10**400"),
    pytest.param(-10**400, "[0, inf)", "x is outside the float range", id="-10**400"),
])
def test_real_names_the_argument_and_its_interval(value, interval, message):
    with pytest.raises(InvalidArgument) as exc:
        real(value, "x", interval)
    assert str(exc.value) == message



@pytest.mark.parametrize("doing", ["read", "write"])
def test_in_file_names_the_path_and_the_verb_of_an_os_error(doing):
    fault = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "x.tmp")
    with pytest.raises(FormatError) as exc, in_file("d/x.cscd", doing):
        raise fault
    assert str(exc.value) == f"d/x.cscd: cannot {doing}: {os.strerror(errno.ENOENT)}"
    assert exc.value.__cause__ is fault


@pytest.mark.parametrize("fault", [InvalidArgument("index is empty"),
                                   ShapeMismatch("index is empty")], ids=["invalid", "shape"])
def test_in_file_names_the_path_of_a_bad_value_it_holds(fault):
    with pytest.raises(FormatError) as exc, in_file("c.cshc"):
        raise fault
    assert str(exc.value) == "c.cshc: index is empty" and exc.value.__cause__ is fault


@pytest.mark.parametrize("fault", [FormatError("c.cshc: bad magic"), KeyboardInterrupt(),
                                   TypeError("not a path")], ids=["format", "interrupt", "type"])
def test_in_file_passes_every_other_exception_through(fault):
    with pytest.raises(type(fault)) as exc, in_file("c.cshc"):
        raise fault
    assert exc.value is fault and exc.value.__cause__ is None


def test_in_file_leaves_a_block_that_raises_nothing_alone():
    with in_file("c.cshc") as value:
        done = True
    assert value is None and done
