from fractions import Fraction
from math import gcd

import pytest

from dehnfill.monodromy import (
    BoundaryOrbit,
    Coorientation,
    DegeneracyLocus,
    MonodromyBoundaryAction,
    _circle_entries,
    action_from_json,
    boundary_orbits,
    canonical_locus,
    classify_coorientation,
    locus_distance,
)
from dehnfill.slopes import ProjectiveSlope, canonical_meridian, distance


def action(circle_sings, permutation, shifts):
    """The action of a ``monodromy_boundary_v1`` document: one shift per
    orbit, on its base circle."""
    return action_from_json(
        {
            "schema": "monodromy_boundary_v1",
            "circles": [{"id": cid, "stable_sings": p} for cid, p in circle_sings.items()],
            "permutation": permutation,
            "shifts": shifts,
        }
    )


def test_orbit_decomposition_identity():
    a = action({"C0": 4}, {"C0": "C0"}, {"C0": 1})
    (orbit,) = boundary_orbits(a)
    assert orbit.c == 1 and orbit.circles == ("C0",) and orbit.locus == DegeneracyLocus(4, 1)


def test_orbit_decomposition_three_cycle():
    a = action(
        {"C0": 6, "C1": 6, "C2": 6},
        {"C0": "C1", "C1": "C2", "C2": "C0"},
        {"C0": 1},
    )
    (orbit,) = boundary_orbits(a)
    assert orbit.c == 3
    assert orbit.circles == ("C0", "C1", "C2")


def test_orbit_decomposition_mixed():
    a = action(
        {"A": 2, "B": 2, "C": 4},
        {"A": "B", "B": "A", "C": "C"},
        {"A": 0, "C": 3},
    )
    orbits = boundary_orbits(a)
    assert [o.c for o in orbits] == [2, 1]
    assert orbits[0].circles == ("A", "B")


def test_action_validation():
    with pytest.raises(ValueError):
        action({"A": 2}, {"A": "B"}, {"A": 0})
    with pytest.raises(ValueError):
        action({"A": 2, "B": 2}, {"A": "B", "B": "A"}, {"B": 0})
    with pytest.raises(ValueError):
        # Circles of one orbit must share the singularity count.
        boundary_orbits(action({"A": 2, "B": 4}, {"A": "B", "B": "A"}, {"A": 1}))
    with pytest.raises(ValueError):
        action({"A": 3}, {"A": "A"}, {"A": 0})


def test_build_keeps_one_shift_per_circle():
    a = MonodromyBoundaryAction(
        {"B": 4, "A": 4, "C": 2},
        {"A": "B", "B": "A", "C": "C"},
        {"A": 1, "B": 2, "C": 1},
    )
    assert list(a.counts) == ["A", "B", "C"]
    # The first-return map on A rotates by the shifts of A and B together.
    assert [o.locus for o in boundary_orbits(a)] == [canonical_locus(4, 3), canonical_locus(2, 1)]
    assert a.image("A", Fraction(1, 4)) == ("B", Fraction(5, 4))
    assert a.image("B", Fraction(7, 2)) == ("A", Fraction(3, 2))


@pytest.mark.parametrize(
    "circles, permutation, shifts, message",
    [
        ([("A", 2), ("A", 2)], {"A": "A"}, {"A": 1}, "duplicate circle ids"),
        ([("A", 4), ("B", 0)], {"A": "A", "B": "B"}, {"A": 1, "B": 1}, "even count"),
        ([("A", 2)], {"A": "B"}, {"A": 1}, "bijection"),
        ([("A", 2), ("B", 2)], {"A": "B", "B": "A"}, {"A": 1}, "one integer shift"),
        ([("A", 2)], {"A": "A"}, {"A": 1.0}, "one integer shift"),
        ([("A", 2), ("B", 4)], {"A": "B", "B": "A"}, {"A": 1, "B": 0}, "differing"),
    ],
)
def test_build_rejects(circles, permutation, shifts, message):
    # Only a document's circle list can repeat an id; its reader rejects that.
    doc = {"circles": [{"id": cid, "stable_sings": count} for cid, count in circles]}
    with pytest.raises(ValueError, match=message):
        MonodromyBoundaryAction(_circle_entries(doc), permutation, shifts)


def test_the_constructor_stores_the_circles_in_sorted_order():
    action = MonodromyBoundaryAction(
        {"B": 2, "A": 2, "C": 4}, {"C": "C", "B": "A", "A": "B"}, {"B": 0, "C": 1, "A": 1}
    )
    for field in (action.counts, action.permutation, action.shifts):
        assert list(field) == ["A", "B", "C"]
    assert [o.circles for o in boundary_orbits(action)] == [("A", "B"), ("C",)]


def test_canonical_locus_examples():
    assert canonical_locus(4, 1) == DegeneracyLocus(4, 1)
    assert canonical_locus(4, 3) == DegeneracyLocus(4, -1)
    assert canonical_locus(2, 1) == DegeneracyLocus(2, 1)
    assert canonical_locus(4, 2) == DegeneracyLocus(4, 2)
    assert canonical_locus(6, 0) == DegeneracyLocus(6, 0)
    with pytest.raises(ValueError):
        canonical_locus(5, 1)
    with pytest.raises(ValueError):
        canonical_locus(0, 1)


def test_canonical_locus_shift_periodic():
    for p in range(2, 21, 2):
        for shift in range(-2 * p, 2 * p + 1):
            assert canonical_locus(p, shift) == canonical_locus(p, shift + p)


def test_canonical_locus_matches_meridian_convention():
    for p in range(2, 21, 2):
        for shift in range(p):
            locus = canonical_locus(p, shift)
            n = gcd(p, shift)
            u, v = p // n, shift // n
            assert locus.multiplicity == n
            if v % u == 0:
                assert locus.q == 0
                continue
            _, new_delta = canonical_meridian(ProjectiveSlope.of(u, v))
            uu, vv = (
                (new_delta.num, new_delta.den)
                if new_delta.num > 0
                else (-new_delta.num, -new_delta.den)
            )
            assert (uu, vv) == (u, locus.q // n)


def test_locus_invariants():
    with pytest.raises(ValueError):
        DegeneracyLocus(3, 1)
    with pytest.raises(ValueError):
        DegeneracyLocus(4, -2)  # the tie representative must be positive
    with pytest.raises(ValueError):
        DegeneracyLocus(4, 3)
    # p = 0 fails the q-range check too, but the message names p first.
    with pytest.raises(ValueError, match=r"^non-co-orientable boundary data: p must be even > 0$"):
        DegeneracyLocus(0, 0)


def test_classify_coorientation():
    assert classify_coorientation(DegeneracyLocus(4, 1)) == Coorientation.REVERSING
    assert classify_coorientation(DegeneracyLocus(4, 2)) == Coorientation.PRESERVING
    assert classify_coorientation(DegeneracyLocus(2, 1)) == Coorientation.REVERSING
    # Parity of q is stable under shift representatives differing by p.
    for p in range(2, 13, 2):
        for shift in range(p):
            assert classify_coorientation(
                canonical_locus(p, shift)
            ) == classify_coorientation(canonical_locus(p, shift + 3 * p))


def test_locus_distance_examples():
    assert locus_distance(DegeneracyLocus(4, 1), ProjectiveSlope.of(3)) == 1
    assert locus_distance(DegeneracyLocus(8, -3), ProjectiveSlope.of(-8, 3)) == 0
    assert locus_distance(DegeneracyLocus(2, 1), ProjectiveSlope.of(0)) == 2


def test_locus_distance_is_multiplicity_times_slope_distance():
    loci = [canonical_locus(p, s) for p in range(2, 13, 2) for s in range(p)]
    slopes = [ProjectiveSlope.of(1, 0)] + [
        ProjectiveSlope.of(a, b)
        for b in range(1, 31)
        for a in range(-30, 31)
        if gcd(abs(a), b) == 1
    ]
    for locus in loci:
        n = locus.multiplicity
        for s in slopes[::3]:
            assert locus_distance(locus, s) == n * distance(locus.delta, s)


def test_boundary_orbits():
    a = action(
        {"A": 4, "B": 4, "C": 2},
        {"A": "B", "B": "A", "C": "C"},
        {"A": 3, "C": 1},
    )
    orbits = boundary_orbits(a)
    assert orbits[0].locus == DegeneracyLocus(4, -1)
    assert orbits[1].locus == DegeneracyLocus(2, 1)
    assert orbits[0].base_id == "A"
    # The orbit length is the number of circles, not a field of its own.
    assert BoundaryOrbit.__slots__ == ("circles", "locus")
    assert [o.c for o in orbits] == [2, 1]


def test_action_from_json():
    doc = {
        "schema": "monodromy_boundary_v1",
        "circles": [{"id": "A", "stable_sings": 4}, {"id": "B", "stable_sings": 4}],
        "permutation": {"A": "B", "B": "A"},
        "shifts": {"A": 1},
    }
    # B is off the base of its orbit, so it gets shift 0.
    assert action_from_json(doc) == MonodromyBoundaryAction(
        {"A": 4, "B": 4}, {"A": "B", "B": "A"}, {"A": 1, "B": 0}
    )
    with pytest.raises(ValueError):
        action_from_json({"schema": "nope"})
