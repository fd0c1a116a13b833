from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timescore.display import format_decimal, format_ratio


@pytest.mark.parametrize(
    "num,den,decimals,expected",
    [
        (1, 2, 0, "1"),  # exact half rounds up
        (-1, 2, 0, "0"),  # and toward +infinity when negative
        (-3, 2, 0, "-1"),
        (5, 1000, 2, "0.01"),
        (-5, 1000, 2, "0.00"),
        (-15, 1000, 2, "-0.01"),
        (10, 3, 2, "3.33"),
        (100, 1, 1, "100.0"),
        (-7, 4, 1, "-1.7"),
    ],
)
def test_format_ratio_exact_halves_and_negatives(num, den, decimals, expected):
    for k in (1, 3, 10**40):
        assert format_ratio(num * k, den * k, decimals) == expected
    assert format_decimal(Fraction(num, den), decimals) == expected


@given(
    st.integers(-10**30, 10**30),
    st.integers(1, 10**30),
    st.integers(1, 10**6),
    st.integers(0, 6),
    st.booleans(),
)
def test_unreduced_ratio_renders_like_reduced_fraction(num, den, k, decimals, comma):
    assert format_ratio(num * k, den * k, decimals, comma=comma) == format_decimal(
        Fraction(num, den), decimals, comma=comma
    )
