import numpy as np
import pytest

from mvhash.errors import InvalidArgument, real


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
])
def test_real_names_the_argument_and_its_interval(value, interval, message):
    with pytest.raises(InvalidArgument) as exc:
        real(value, "x", interval)
    assert str(exc.value) == message

