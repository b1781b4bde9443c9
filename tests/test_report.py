"""Relative errors, magnitudes and tolerances of the checks."""

import math
import random

import pytest

from isingtree.report import check, magnitude, rel_err, tolerance

# finite parts, modulus past float max: abs() raises OverflowError
PAST_RANGE = complex(1.5e308, 1.5e308)


def test_magnitude_is_abs_bit_for_bit_within_float_range():
    rng = random.Random(5)
    for _ in range(10000):
        z = complex(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 307),
                    rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 307))
        assert magnitude(z).hex() == abs(z).hex()
    for z in (0j, complex(math.inf, 1), complex(1, math.nan), 1.7e308 + 0j):
        assert repr(magnitude(z)) == repr(abs(z))


def test_magnitude_past_float_range_reads_inf():
    with pytest.raises(OverflowError):
        abs(PAST_RANGE)
    assert magnitude(PAST_RANGE) == math.inf


def test_a_check_past_float_range_fails_cleanly():
    assert math.isnan(rel_err(PAST_RANGE, 1.0))
    assert not check("x", PAST_RANGE, 1.0, 1e-9).passed
    absolute = check("x", PAST_RANGE, 0.0, 1e-9, absolute=True)
    assert absolute.err == math.inf and not absolute.passed


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_tolerance_rejects_what_cannot_tell_pass_from_fail(tol):
    with pytest.raises(ValueError, match="finite number >= 0"):
        tolerance(tol)
