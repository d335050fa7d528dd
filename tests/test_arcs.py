import random
from fractions import Fraction
from itertools import islice

import pytest

from dehnfill.arcs import (
    AdmissibleArcSystem,
    ArcEndpoint,
    BoundaryCoordinates,
    CombinatorialArc,
    RigidBoundaryMap,
    default_polarity,
    enumerate_matchings,
    push_off,
    refined_matching,
    system_from_json,
    system_to_json,
    validate_system,
)


def rotation(circle_ids, shift):
    return RigidBoundaryMap.build(
        {cid: cid for cid in circle_ids}, {cid: shift for cid in circle_ids}
    )


def test_refined_matching_one_circle_p2():
    coords = BoundaryCoordinates.build({"A": 2})
    system = refined_matching(coords, rotation(["A"], 1))
    assert len(system.arcs) == 1
    assert validate_system(system) == []
    (arc,) = system.arcs
    assert arc.pos_transverse_stable and arc.pos_transverse_unstable
    # Plain quarter offsets suffice for an odd shift.
    assert arc.start.position == Fraction(1, 4)
    assert arc.end.position == Fraction(7, 4)


def test_refined_matching_p4_two_matchings():
    coords = BoundaryCoordinates.build({"A": 4})
    matchings = list(enumerate_matchings(coords, default_polarity(coords)))
    assert len(matchings) == 2
    for matching in matchings:
        system = refined_matching(coords, rotation(["A"], 1), matching=matching)
        assert len(system.arcs) == 2
        assert validate_system(system) == []


def test_refined_matching_two_circles_total6():
    coords = BoundaryCoordinates.build({"A": 2, "B": 4})
    system = refined_matching(
        coords,
        RigidBoundaryMap.build({"A": "A", "B": "B"}, {"A": 1, "B": 1}),
    )
    assert len(system.arcs) == 3
    assert validate_system(system) == []


def test_refined_matching_even_shift_needs_nudge():
    coords = BoundaryCoordinates.build({"A": 4})
    system = refined_matching(coords, rotation(["A"], 2))
    assert validate_system(system) == []
    # The plain quarter grid would collide with its image under an even shift.
    assert any(e.position.denominator > 4 for e in system.endpoints)


def test_refined_matching_rejects_fixed_circle():
    coords = BoundaryCoordinates.build({"A": 2})
    with pytest.raises(ValueError, match="no refined system"):
        refined_matching(coords, rotation(["A"], 0))


def test_polarity_errors():
    coords = BoundaryCoordinates.build({"A": 4})
    unbalanced = {("A", 0): "beta", ("A", 1): "beta", ("A", 2): "beta", ("A", 3): "gamma"}
    with pytest.raises(ValueError, match="unbalanced"):
        refined_matching(coords, rotation(["A"], 1), polarity=unbalanced)
    # The matchings are generated lazily, but the polarity is checked at once.
    with pytest.raises(ValueError, match="unbalanced"):
        enumerate_matchings(coords, unbalanced)
    non_alternating = {
        ("A", 0): "beta",
        ("A", 1): "beta",
        ("A", 2): "gamma",
        ("A", 3): "gamma",
    }
    with pytest.raises(ValueError, match="alternate"):
        refined_matching(coords, rotation(["A"], 1), polarity=non_alternating)


def test_validate_catches_segment_multiplicity():
    coords = BoundaryCoordinates.build({"A": 2})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(1, 3))),
    )
    system = AdmissibleArcSystem(coords, rotation(["A"], 1), arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert "segment-multiplicity" in kinds


def test_validate_catches_monodromy_image():
    coords = BoundaryCoordinates.build({"A": 2, "B": 2})
    swap = RigidBoundaryMap.build({"A": "B", "B": "A"}, {"A": 0, "B": 0})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(7, 4))),
        CombinatorialArc(ArcEndpoint("B", Fraction(1, 4)), ArcEndpoint("B", Fraction(7, 4))),
    )
    system = AdmissibleArcSystem(coords, swap, arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert "monodromy-image" in kinds


def test_validate_catches_singularity_and_count():
    coords = BoundaryCoordinates.build({"A": 4})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1)), ArcEndpoint("A", Fraction(5, 4))),
    )
    system = AdmissibleArcSystem(coords, rotation(["A"], 1), arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert {"singularity", "arc-count"} <= kinds


def test_refined_systems_pass_validation_randomized():
    rng = random.Random(1234)
    cases = 0
    for _ in range(600):
        n_circles = rng.randint(1, 3)
        counts = {chr(ord("A") + i): rng.choice([2, 4, 6]) for i in range(n_circles)}
        coords = BoundaryCoordinates.build(counts)
        ids = list(counts)
        rng.shuffle(ids)
        perm = dict(zip(sorted(counts), ids))
        # Orbit circles must share p for a valid rigid model; resample if not.
        if any(counts[a] != counts[b] for a, b in perm.items()):
            continue
        shifts = {cid: rng.randint(0, 7) for cid in counts}
        monodromy = RigidBoundaryMap.build(perm, shifts)
        if any(
            perm[cid] == cid and shifts[cid] % counts[cid] == 0 for cid in counts
        ):
            continue
        polarity = default_polarity(coords, phase=rng.choice([0, 1]))
        for matching in islice(enumerate_matchings(coords, polarity), 8):
            system = refined_matching(
                coords, monodromy, polarity=polarity, matching=matching
            )
            assert validate_system(system) == []
            assert len(system.arcs) == coords.total_sings // 2
            cases += 1
    assert cases >= 1000


def test_push_off_basic():
    coords = BoundaryCoordinates.build({"A": 2})
    system = refined_matching(coords, rotation(["A"], 1))
    result = push_off(system, Fraction(1, 8))
    assert result.epsilon == Fraction(1, 8)
    offset = {e.position for e in result.offset_endpoints}
    assert offset == {Fraction(3, 8), Fraction(15, 8)}


def test_push_off_epsilon_too_large():
    coords = BoundaryCoordinates.build({"A": 2})
    system = refined_matching(coords, rotation(["A"], 1))
    with pytest.raises(ValueError, match="push-off"):
        push_off(system, 3)


def test_push_off_collision_retries():
    # Circles swapped with zero rotation: the offset endpoint of A at
    # 1/4 + 1/16 lands exactly on B's endpoint at 5/16, forcing one halving.
    coords = BoundaryCoordinates.build({"A": 2, "B": 2})
    swap = RigidBoundaryMap.build({"A": "B", "B": "A"}, {"A": 0, "B": 0})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(7, 4))),
        CombinatorialArc(ArcEndpoint("B", Fraction(5, 16)), ArcEndpoint("B", Fraction(13, 8))),
    )
    system = AdmissibleArcSystem(coords, swap, arcs)
    result = push_off(system, Fraction(1, 16))
    assert result.epsilon == Fraction(1, 32)


def test_push_off_preserves_slot_conditions():
    coords = BoundaryCoordinates.build({"A": 4, "B": 4})
    monodromy = RigidBoundaryMap.build({"A": "B", "B": "A"}, {"A": 1, "B": 2})
    system = refined_matching(coords, monodromy)
    result = push_off(system, Fraction(1, 64))
    # Re-run the slot predicates on the offset family.
    offset_arcs = tuple(
        CombinatorialArc(result.offset_endpoints[2 * i], result.offset_endpoints[2 * i + 1])
        for i in range(len(system.arcs))
    )
    offset_system = AdmissibleArcSystem(coords, monodromy, offset_arcs)
    assert validate_system(offset_system) == []


def test_relabelling_equivariance():
    rng = random.Random(7)
    coords = BoundaryCoordinates.build({"A": 4, "B": 4, "C": 2})
    monodromy = RigidBoundaryMap.build(
        {"A": "B", "B": "A", "C": "C"}, {"A": 1, "B": 3, "C": 1}
    )
    system = refined_matching(coords, monodromy)
    base_kinds = sorted(v.kind for v in validate_system(system))
    for _ in range(10):
        names = ["A", "B", "C"]
        relabel = dict(zip(names, rng.sample(names, 3)))
        coords2 = BoundaryCoordinates.build(
            {relabel[cid]: p for cid, p in coords.circles}
        )
        perm2 = {
            relabel[cid]: relabel[img] for cid, img in monodromy.permutation
        }
        shifts2 = {relabel[cid]: s for cid, s in monodromy.shifts}
        monodromy2 = RigidBoundaryMap.build(perm2, shifts2)
        arcs2 = tuple(
            CombinatorialArc(
                ArcEndpoint(relabel[a.start.circle_id], a.start.position),
                ArcEndpoint(relabel[a.end.circle_id], a.end.position),
                a.pos_transverse_stable,
                a.pos_transverse_unstable,
            )
            for a in system.arcs
        )
        system2 = AdmissibleArcSystem(coords2, monodromy2, arcs2)
        assert sorted(v.kind for v in validate_system(system2)) == base_kinds


def test_json_roundtrip():
    coords = BoundaryCoordinates.build({"A": 4})
    system = refined_matching(coords, rotation(["A"], 1))
    doc = system_to_json(system)
    assert doc["schema"] == "arc_system_v1"
    assert system_from_json(doc) == system
