from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dehnfill.slopes import (
    INFINITY,
    LONGITUDE,
    ProjectiveSlope,
    SlopeInterval,
    SlopeParseError,
    canonical_meridian,
    distance,
    format_slope,
    parse_slope,
    slope,
)


def all_slopes(bound):
    """Every reduced slope with |num|, |den| <= bound, including inf."""
    out = [INFINITY]
    for den in range(1, bound + 1):
        for num in range(-bound, bound + 1):
            if gcd(abs(num), den) == 1:
                out.append(ProjectiveSlope(num, den))
    return out


def test_normalization():
    assert slope(4, -2) == slope(-2)
    assert slope(-3, 0) == INFINITY
    assert slope(0, -7) == LONGITUDE
    with pytest.raises(ValueError):
        ProjectiveSlope.of(0, 0)
    with pytest.raises(ValueError):
        ProjectiveSlope(2, 4)


def test_distance_examples():
    assert distance(INFINITY, slope(0)) == 1
    assert distance(slope(4), slope(3)) == 1
    assert distance(slope(48), slope(24)) == 24


def test_distance_symmetric_zero_iff_equal():
    slopes = all_slopes(12)
    for x in slopes[::7]:
        for y in slopes[::5]:
            d = distance(x, y)
            assert d == distance(y, x)
            assert (d == 0) == (x == y)


def test_interval_contains_examples():
    arc = SlopeInterval(slope(2), INFINITY, excluded=slope(4))
    assert arc.contains(slope(0))
    assert not arc.contains(slope(4))
    assert not arc.contains(slope(2))
    assert arc.contains(slope(-100))
    assert arc.contains(slope(1))
    assert not arc.contains(slope(3))


def test_interval_complement_xor():
    intervals = [
        SlopeInterval(slope(2), INFINITY, excluded=slope(4)),
        SlopeInterval(slope(-2), INFINITY, excluded=slope(-4)),
        SlopeInterval(slope(-4), slope(-2), excluded=slope(-8, 3)),
        SlopeInterval(slope(1), slope(-1), excluded=slope(0)),
    ]
    slopes = all_slopes(20)
    for arc in intervals:
        witness = next(s for s in slopes if arc.contains(s))
        complement = SlopeInterval(arc.end_a, arc.end_b, excluded=witness)
        for s in slopes:
            if s in (arc.end_a, arc.end_b):
                assert not arc.contains(s) and not complement.contains(s)
            else:
                assert arc.contains(s) != complement.contains(s)


def test_canonical_meridian_examples():
    assert canonical_meridian(slope(2, 5)) == (2, slope(2, 1))
    assert canonical_meridian(slope(4, 1)) == (0, slope(4, 1))
    # Brute-force minimization of |7 - 6k| over k in [-10, 10] picks k = 1.
    assert min(range(-10, 11), key=lambda k: (abs(7 - 6 * k), k)) == 1
    assert canonical_meridian(slope(6, 7)) == (1, slope(6, 1))


def test_canonical_meridian_errors():
    with pytest.raises(ValueError):
        canonical_meridian(LONGITUDE)


def test_canonical_meridian_exhaustive():
    # |v'| <= u/2 always; the tie |v'| = u/2 happens only at u = 2 and is
    # resolved to +2.
    for u in range(1, 41):
        for v in range(-80, 81):
            if gcd(u, abs(v)) != 1:
                continue
            k, new = canonical_meridian(slope(u, v))
            uu, vv = (new.num, new.den) if new.num > 0 else (-new.num, -new.den)
            assert uu == u
            assert abs(v - k * u) == abs(vv)
            assert 2 * abs(vv) <= u
            if 2 * abs(vv) == u:
                assert u == 2 and vv == 1
            # k really minimizes the distance.
            best = min(abs(v - j * u) for j in range(v // u - 2, v // u + 3))
            assert abs(vv) == best


def test_parse_and_format():
    assert parse_slope("4/1") == (slope(4), False)
    assert parse_slope("-3") == (slope(-3), False)
    assert parse_slope("inf") == (INFINITY, False)
    assert parse_slope("-inf") == (INFINITY, False)
    assert parse_slope("6/4") == (slope(3, 2), True)
    assert parse_slope("2/-4") == (slope(-1, 2), True)
    for text, pos in [("0/0", 0), ("x", 0), ("1/", 2), ("3/4x", 3), ("", 0)]:
        with pytest.raises(SlopeParseError) as err:
            parse_slope(text)
        assert err.value.pos == pos
    assert format_slope(INFINITY) == "inf"
    assert format_slope(slope(-8, 3)) == "-8/3"
    assert format_slope(slope(7)) == "7"


@given(st.integers(-400, 400), st.integers(-400, 400))
def test_parse_format_roundtrip(num, den):
    if num == 0 and den == 0:
        return
    s = ProjectiveSlope.of(num, den)
    parsed, normalized = parse_slope(format_slope(s))
    assert parsed == s and not normalized
