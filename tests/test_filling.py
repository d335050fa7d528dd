from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dehnfill.filling import (
    analyze_multislope,
    check_fried,
    excluded_window,
    guaranteed_interval,
    report_to_json,
    zung_sign_check,
)
from dehnfill.monodromy import BoundaryOrbit, DegeneracyLocus, locus_distance
from dehnfill.slopes import INFINITY, ProjectiveSlope


def orbit(p, q, c):
    return BoundaryOrbit(tuple("C%d" % i for i in range(c)), DegeneracyLocus(p, q))


def reduced_slopes(bound):
    out = [INFINITY]
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(abs(a), b) == 1:
                out.append(ProjectiveSlope(a, b))
    return out


def test_guaranteed_interval_examples():
    J = guaranteed_interval(DegeneracyLocus(4, 1), 1)
    assert J.endpoints() == {ProjectiveSlope.of(2), INFINITY}
    assert J.excluded == ProjectiveSlope.of(4)
    # (-inf, 2): contains 0 and -100, misses 3 and inf.
    assert J.contains(ProjectiveSlope.of(0)) and J.contains(ProjectiveSlope.of(-100))
    assert not J.contains(ProjectiveSlope.of(3)) and not J.contains(INFINITY)

    J = guaranteed_interval(DegeneracyLocus(4, -1), 1)
    assert J.endpoints() == {ProjectiveSlope.of(-2), INFINITY}
    assert J.contains(ProjectiveSlope.of(0)) and J.contains(ProjectiveSlope.of(100))
    assert not J.contains(ProjectiveSlope.of(-3))

    J = guaranteed_interval(DegeneracyLocus(8, -3), 1)
    assert J.endpoints() == {ProjectiveSlope.of(-4), ProjectiveSlope.of(-2)}
    # Complement of [-4, -2]: contains 0 and inf, misses -3 and -8/3.
    assert J.contains(ProjectiveSlope.of(0)) and J.contains(INFINITY)
    assert not J.contains(ProjectiveSlope.of(-3)) and not J.contains(ProjectiveSlope.of(-8, 3))

    J = guaranteed_interval(DegeneracyLocus(2, 1), 1)
    assert J.endpoints() == {ProjectiveSlope.of(1), INFINITY}
    assert J.contains(ProjectiveSlope.of(0)) and not J.contains(ProjectiveSlope.of(2))

    J = guaranteed_interval(DegeneracyLocus(48, 1), 1)
    assert J.endpoints() == {ProjectiveSlope.of(24), INFINITY}
    assert J.contains(ProjectiveSlope.of(23)) and not J.contains(ProjectiveSlope.of(24))


def test_guaranteed_interval_longer_orbit():
    J = guaranteed_interval(DegeneracyLocus(6, 1), 3)
    assert J.endpoints() == {ProjectiveSlope.of(6, 4), ProjectiveSlope.of(6, -2)}
    assert not J.contains(ProjectiveSlope.of(6))
    assert J.contains(ProjectiveSlope.of(0))


def section_image_oracle(p, q):
    """Pointwise image of a rational mesh of [q-1, q+1] under x -> p/x."""
    mesh = [Fraction(q - 1) + Fraction(k, 16) for k in range(33)]
    out = []
    for x in mesh:
        if x == 0:
            out.append(INFINITY)
        else:
            out.append(ProjectiveSlope.of(p * x.denominator, x.numerator))
    return out


def test_excluded_window_examples():
    for p, q, ends in [
        (48, 1, {ProjectiveSlope.of(24), INFINITY}),
        (4, 1, {ProjectiveSlope.of(2), INFINITY}),
        (2, 1, {ProjectiveSlope.of(1), INFINITY}),
    ]:
        E = excluded_window(DegeneracyLocus(p, q))
        assert {E.end_a, E.end_b} == ends
        assert E.contains(ProjectiveSlope.of(p, q))
        for s in section_image_oracle(p, q):
            assert E.contains(s)


def test_check_fried_examples():
    assert check_fried(DegeneracyLocus(4, 1), ProjectiveSlope.of(0)) == (4, True, False)
    assert check_fried(DegeneracyLocus(2, 1), ProjectiveSlope.of(0)) == (2, True, True)
    assert check_fried(DegeneracyLocus(4, 1), ProjectiveSlope.of(3)) == (1, False, False)


def test_analyze_multislope_guaranteed():
    report = analyze_multislope([orbit(4, 1, 1)], [ProjectiveSlope.of(0)])
    assert report.verdict == "guaranteed"
    (r,) = report.reports
    assert r.guarantees == {
        "CTF",
        "LO",
        "NonLSpace",
        "RCoveredExists",
        "AtMostOneSidedBranching",
    }
    assert r.in_interval and r.fried_ok


def test_analyze_multislope_outside():
    report = analyze_multislope([orbit(4, 1, 1)], [ProjectiveSlope.of(3)])
    assert report.verdict == "none"
    (r,) = report.reports
    assert r.guarantees == frozenset()
    assert any("outside" in note for note in report.notes)


def test_analyze_multislope_preserving():
    report = analyze_multislope([orbit(4, 2, 1)], [ProjectiveSlope.of(5)])
    (r,) = report.reports
    assert "CTF" in r.guarantees
    assert "NonLSpace" not in r.guarantees
    assert report.verdict == "partial"
    # Filling along the degeneracy slope itself has no guarantee.
    report = analyze_multislope([orbit(4, 2, 1)], [ProjectiveSlope.of(2)])
    assert report.verdict == "none"


def test_analyze_multislope_mixed_parity():
    report = analyze_multislope(
        [orbit(4, 1, 1), orbit(4, 2, 1)], [ProjectiveSlope.of(0), ProjectiveSlope.of(5)]
    )
    assert report.verdict == "none"
    assert any("mixed" in note for note in report.notes)


def test_analyze_multislope_errors():
    with pytest.raises(ValueError):
        analyze_multislope([orbit(4, 1, 1)], [ProjectiveSlope.of(0), ProjectiveSlope.of(1)])


def test_zung_sign_check():
    assert zung_sign_check([orbit(4, 2, 1)], [ProjectiveSlope.of(5)])
    assert zung_sign_check(
        [orbit(4, 2, 1), orbit(4, 2, 1)], [ProjectiveSlope.of(5), ProjectiveSlope.of(5)]
    )
    # Slopes straddling the degeneracy slope in the (delta, longitude) basis:
    # 5 has negative sign there, 1 positive (delta = 2/1).
    assert not zung_sign_check(
        [orbit(4, 2, 1), orbit(4, 2, 1)], [ProjectiveSlope.of(5), ProjectiveSlope.of(1)]
    )
    with pytest.raises(ValueError):
        zung_sign_check([orbit(4, 1, 1)], [ProjectiveSlope.of(5)])


def test_report_json_shape():
    doc = report_to_json(analyze_multislope([orbit(2, 1, 1)], [ProjectiveSlope.of(0)]))
    assert doc["schema"] == "filling_report_v1"
    (entry,) = doc["orbits"]
    assert entry["locus"] == {
        "p": 2,
        "q": 1,
        "multiplicity": 1,
        "degeneracy_slope": "2",
    }
    assert entry["interval"] == {"end_a": "1", "end_b": "inf", "excluded": "2"}
    assert entry["special_no_singular"] is True
    assert [g["label"] for g in entry["guarantees"]] == sorted(
        [
            "CTF",
            "LO",
            "NonLSpace",
            "RCoveredExists",
            "AtMostOneSidedBranching",
        ]
    )


def sweep_loci(max_p):
    for p in range(2, max_p + 1, 2):
        for q in range(-(p // 2) + 1, p // 2 + 1):
            if q % 2 != 0:
                yield DegeneracyLocus(p, q)


def test_low_distance_implies_outside_interval_small():
    # Distance-1 slopes never land in the guaranteed interval (small sweep;
    # the full acceptance sweep runs at bound 60).
    slopes = reduced_slopes(25)
    for locus in sweep_loci(8):
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            for s in slopes:
                if locus_distance(locus, s) == 1:
                    assert not J.contains(s)


def test_window_disjoint_from_interval_small():
    slopes = reduced_slopes(25)
    for locus in sweep_loci(8):
        E = excluded_window(locus)
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            for s in slopes:
                assert not (E.contains(s) and J.contains(s))


def test_distance_two_inside_interval_classification_small():
    slopes = reduced_slopes(25)
    hits = []
    for locus in sweep_loci(8):
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            for s in slopes:
                if locus_distance(locus, s) == 2 and J.contains(s):
                    hits.append((locus.p, locus.q, s))
    assert set(hits) == {(2, 1, ProjectiveSlope.of(0))}


@st.composite
def loci(draw):
    """Any canonical locus: ``p`` even and positive, ``q`` in (-p/2, p/2]."""
    p = 2 * draw(st.integers(min_value=1))
    return DegeneracyLocus(p, draw(st.integers()) % p - p // 2 + 1)


@given(
    locus=loci(),
    c=st.integers(min_value=1),
    a=st.integers(),
    b=st.integers(),
)
# The one distance-two slope inside, an endpoint and the excluded slope.
@example(locus=DegeneracyLocus(2, 1), c=1, a=0, b=1)
@example(locus=DegeneracyLocus(6, 3), c=2, a=6, b=5)
@example(locus=DegeneracyLocus(6, 3), c=2, a=2, b=1)
def test_criteria_2_to_4_for_every_parameter(locus, c, a, b):
    # The argument in the dehnfill.filling docstring, with its bound as the
    # oracle: for s = a/b and x = p/s, distance(s, p/q) = |a|*|x - q|, and
    # s lies in the guaranteed interval exactly when x lies outside
    # [q - c, q + c].
    if a == 0 and b == 0:
        b = 1
    s = ProjectiveSlope.of(a, b)
    a, b = s.num, s.den
    p, q = locus.p, locus.q
    d = locus_distance(locus, s)
    inside = guaranteed_interval(locus, c).contains(s)
    assert d == abs(p * b - q * a)
    assert inside == (a == 0 or d > c * abs(a))
    assert excluded_window(locus).contains(s) == (a != 0 and d <= abs(a))
    if inside:
        assert d == p if a == 0 else d >= c * abs(a) + 1
        # Criterion 2: no slope at distance one inside.
        assert d != 1
        # Criterion 3: the window [q - 1, q + 1] lies outside.
        assert not excluded_window(locus).contains(s)
        # Criterion 4: with q odd, distance two inside only at (2; 1), s = 0.
        if q % 2 and d == 2:
            assert (p, q, s) == (2, 1, ProjectiveSlope.of(0))


def test_interval_mirror_symmetry():
    # (q, s) -> (-q, -s) maps the interval to its negation-mirror.
    for locus in sweep_loci(8):
        if locus.q == locus.p // 2:
            continue  # -q falls outside the canonical range
        mirrored = DegeneracyLocus(locus.p, -locus.q)
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            Jm = guaranteed_interval(mirrored, c)
            for s in reduced_slopes(12):
                ms = ProjectiveSlope.of(-s.num, s.den)
                assert J.contains(s) == Jm.contains(ms)


def test_inside_interval_implies_fried_ok():
    slopes = reduced_slopes(20)
    for locus in sweep_loci(8):
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            for s in slopes:
                if J.contains(s):
                    assert check_fried(locus, s)[1]
