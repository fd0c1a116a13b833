from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import rendered_by_hand
from timescore.display import format_ratios, ratio_text


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
        assert format_ratios((num * k,), den * k, decimals) == [expected]
    assert rendered_by_hand(Fraction(num, den), decimals) == expected


@given(
    st.integers(-10**30, 10**30),
    st.integers(1, 10**30),
    st.integers(1, 10**6),
    st.integers(0, 6),
    st.booleans(),
)
def test_unreduced_ratio_renders_like_reduced_fraction(num, den, k, decimals, comma):
    reduced = Fraction(num, den)
    assert format_ratios((num * k,), den * k, decimals, comma=comma) == format_ratios(
        (reduced.numerator,), reduced.denominator, decimals, comma=comma
    )


@given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-12, 4)
def test_ratio_text_writes_what_str_fraction_writes(num, den):
    # Unreduced, negative and whole ratios alike: the indicators.json text.
    assert ratio_text(num, den) == str(Fraction(num, den))


@st.composite
def _columns(draw):
    """(nums, den, decimals) with denominators of up to 3,000 bits.

    Half of the columns are made of exact halves and their neighbours. Their
    multipliers reach ±2**64, or only ±10**5: on a denominator wider than
    ``WIDE_BITS``, a column of small values has a small margin, so its halves
    fall back to the exact division by their remainder alone.
    """
    decimals = draw(st.sampled_from([0, 1, 2, 3, 6]))
    twice_scale = 2 * 10**decimals
    if draw(st.booleans()):
        # num / den * 10**decimals is an odd number of halves when num is an odd multiple of unit.
        unit = draw(st.integers(1, 2**3000 // twice_scale))
        den = unit * twice_scale
        multipliers = st.integers(-(2**64), 2**64) | st.integers(-(10**5), 10**5)
        odd = multipliers.map(lambda q: (2 * q + 1) * unit)
        nums = st.one_of(odd, odd.map(lambda n: n + 1), odd.map(lambda n: n - 1))
    else:
        den = draw(st.integers(1, 2**3000))
        nums = st.integers(-(2**3000), 2**3000)
    return draw(st.lists(nums, max_size=20)), den, decimals


@given(_columns(), st.booleans())
def test_format_ratios_equals_rounding_by_hand(column, comma):
    nums, den, decimals = column
    assert format_ratios(nums, den, decimals, comma=comma) == [
        rendered_by_hand(Fraction(num, den), decimals, comma) for num in nums
    ]
