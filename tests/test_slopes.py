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
    assert ProjectiveSlope.of(4, -2) == ProjectiveSlope.of(-2)
    assert ProjectiveSlope.of(-3, 0) == INFINITY
    assert ProjectiveSlope.of(0, -7) == LONGITUDE
    with pytest.raises(ValueError):
        ProjectiveSlope.of(0, 0)
    for pair, message in [((0, 0), "0/0"), ((2, 4), "coprime"), ((1, -2), "not normalized")]:
        with pytest.raises(ValueError, match=message):
            ProjectiveSlope(*pair)
    with pytest.raises(ValueError, match="not normalized"):
        ProjectiveSlope(-1, 0)


def test_distance_examples():
    assert distance(INFINITY, ProjectiveSlope.of(0)) == 1
    assert distance(ProjectiveSlope.of(4), ProjectiveSlope.of(3)) == 1
    assert distance(ProjectiveSlope.of(48), ProjectiveSlope.of(24)) == 24


def test_distance_symmetric_zero_iff_equal():
    slopes = all_slopes(12)
    for x in slopes[::7]:
        for y in slopes[::5]:
            d = distance(x, y)
            assert d == distance(y, x)
            assert (d == 0) == (x == y)


def test_interval_contains_examples():
    arc = SlopeInterval(ProjectiveSlope.of(2), INFINITY, excluded=ProjectiveSlope.of(4))
    assert arc.contains(ProjectiveSlope.of(0))
    assert not arc.contains(ProjectiveSlope.of(4))
    assert not arc.contains(ProjectiveSlope.of(2))
    assert arc.contains(ProjectiveSlope.of(-100))
    assert arc.contains(ProjectiveSlope.of(1))
    assert not arc.contains(ProjectiveSlope.of(3))


def test_interval_rejects_equal_endpoints_and_an_excluded_endpoint():
    a, b = ProjectiveSlope.of(1, 2), ProjectiveSlope.of(3)
    with pytest.raises(ValueError, match="endpoints must be distinct"):
        SlopeInterval(a, a, b)
    for excluded in (a, b):
        with pytest.raises(ValueError, match="excluded witness must avoid the endpoints"):
            SlopeInterval(a, b, excluded)


def test_interval_complement_xor():
    intervals = [
        SlopeInterval(ProjectiveSlope.of(2), INFINITY, excluded=ProjectiveSlope.of(4)),
        SlopeInterval(ProjectiveSlope.of(-2), INFINITY, excluded=ProjectiveSlope.of(-4)),
        SlopeInterval(
            ProjectiveSlope.of(-4), ProjectiveSlope.of(-2), excluded=ProjectiveSlope.of(-8, 3)
        ),
        SlopeInterval(
            ProjectiveSlope.of(1), ProjectiveSlope.of(-1), excluded=ProjectiveSlope.of(0)
        ),
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
    assert canonical_meridian(ProjectiveSlope.of(2, 5)) == (2, ProjectiveSlope.of(2, 1))
    assert canonical_meridian(ProjectiveSlope.of(4, 1)) == (0, ProjectiveSlope.of(4, 1))
    # Brute-force minimization of |7 - 6k| over k in [-10, 10] picks k = 1.
    assert min(range(-10, 11), key=lambda k: (abs(7 - 6 * k), k)) == 1
    assert canonical_meridian(ProjectiveSlope.of(6, 7)) == (1, ProjectiveSlope.of(6, 1))


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
            k, new = canonical_meridian(ProjectiveSlope.of(u, v))
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
    assert parse_slope("4/1") == (ProjectiveSlope.of(4), False)
    assert parse_slope("-3") == (ProjectiveSlope.of(-3), False)
    assert parse_slope("inf") == (INFINITY, False)
    assert parse_slope("-inf") == (INFINITY, False)
    assert parse_slope("6/4") == (ProjectiveSlope.of(3, 2), True)
    assert parse_slope("2/-4") == (ProjectiveSlope.of(-1, 2), True)
    for text, pos in [("0/0", 0), ("x", 0), ("1/", 2), ("3/4x", 3), ("", 0)]:
        with pytest.raises(SlopeParseError) as err:
            parse_slope(text)
        assert err.value.pos == pos
    assert format_slope(INFINITY) == "inf"
    assert format_slope(ProjectiveSlope.of(-8, 3)) == "-8/3"
    assert format_slope(ProjectiveSlope.of(7)) == "7"


@pytest.mark.parametrize(
    "text, pos, reason",
    [
        ("-", 0, "expected integer"),
        ("+-1", 0, "expected integer"),
        ("/2", 0, "expected integer"),
        ("1/-", 2, "expected integer"),
        ("1//2", 2, "expected integer"),
        (" 12 3", 2, "expected '/'"),
        ("1/2/3", 3, "trailing characters"),
        ("1.5", 1, "expected '/'"),
        ("1e3", 1, "expected '/'"),
        ("1_0", 1, "expected '/'"),
        # Digits are ASCII: int() would read the first as 3 and reject the
        # second after str.isdigit took it.
        ("\u0663", 0, "expected integer"),
        ("\u00b2", 0, "expected integer"),
        ("1\u0663", 1, "expected '/'"),
    ],
)
def test_parse_errors_name_position_and_reason(text, pos, reason):
    with pytest.raises(SlopeParseError) as err:
        parse_slope(text)
    assert (err.value.pos, err.value.reason) == (pos, reason)
    assert str(err.value) == "bad slope %r at position %d: %s" % (text, pos, reason)


@given(st.integers(-400, 400), st.integers(-400, 400))
def test_parse_format_roundtrip(num, den):
    if num == 0 and den == 0:
        return
    s = ProjectiveSlope.of(num, den)
    parsed, normalized = parse_slope(format_slope(s))
    assert parsed == s and not normalized
