import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dehnfill.arcs import (
    AdmissibleArcSystem,
    ArcEndpoint,
    CombinatorialArc,
    default_polarity,
    enumerate_matchings,
    push_off,
    refined_matching,
    system_from_json,
    system_to_json,
    validate_system,
)
from dehnfill.monodromy import MonodromyBoundaryAction, action_from_json, action_to_json


def boundary(counts, permutation, shifts):
    return MonodromyBoundaryAction.build(counts.items(), permutation, shifts)


def rotation(counts, shift):
    return boundary(counts, {cid: cid for cid in counts}, {cid: shift for cid in counts})


def test_refined_matching_one_circle_p2():
    system = refined_matching(rotation({"A": 2}, 1))
    assert len(system.arcs) == 1
    assert validate_system(system) == []
    (arc,) = system.arcs
    assert arc.pos_transverse_stable and arc.pos_transverse_unstable
    # Plain quarter offsets suffice for an odd shift.
    assert arc.start.position == Fraction(1, 4)
    assert arc.end.position == Fraction(7, 4)


def test_refined_matching_p4_two_matchings():
    action = rotation({"A": 4}, 1)
    matchings = list(enumerate_matchings(action, default_polarity(action)))
    assert len(matchings) == 2
    for matching in matchings:
        system = refined_matching(action, matching=matching)
        assert len(system.arcs) == 2
        assert validate_system(system) == []


def test_refined_matching_two_circles_total6():
    system = refined_matching(
        boundary({"A": 2, "B": 4}, {"A": "A", "B": "B"}, {"A": 1, "B": 1})
    )
    assert len(system.arcs) == 3
    assert validate_system(system) == []


def test_refined_matching_even_shift_needs_nudge():
    system = refined_matching(rotation({"A": 4}, 2))
    assert validate_system(system) == []
    # The plain quarter grid would collide with its image under an even shift.
    assert any(e.position.denominator > 4 for e in system.endpoints)


def test_refined_matching_rejects_fixed_circle():
    with pytest.raises(ValueError, match="no refined system"):
        refined_matching(rotation({"A": 2}, 0))


def test_polarity_errors():
    action = rotation({"A": 4}, 1)
    unbalanced = {("A", 0): "beta", ("A", 1): "beta", ("A", 2): "beta", ("A", 3): "gamma"}
    with pytest.raises(ValueError, match="unbalanced"):
        refined_matching(action, polarity=unbalanced)
    # The matchings are generated lazily, but the polarity is checked at once.
    with pytest.raises(ValueError, match="unbalanced"):
        enumerate_matchings(action, unbalanced)
    non_alternating = {
        ("A", 0): "beta",
        ("A", 1): "beta",
        ("A", 2): "gamma",
        ("A", 3): "gamma",
    }
    with pytest.raises(ValueError, match="alternate"):
        refined_matching(action, polarity=non_alternating)


def test_validate_catches_segment_multiplicity():
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(1, 3))),
    )
    system = AdmissibleArcSystem(rotation({"A": 2}, 1), arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert "segment-multiplicity" in kinds


def test_validate_catches_monodromy_image():
    swap = boundary({"A": 2, "B": 2}, {"A": "B", "B": "A"}, {"A": 0, "B": 0})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(7, 4))),
        CombinatorialArc(ArcEndpoint("B", Fraction(1, 4)), ArcEndpoint("B", Fraction(7, 4))),
    )
    system = AdmissibleArcSystem(swap, arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert "monodromy-image" in kinds


def test_validate_catches_singularity_and_count():
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1)), ArcEndpoint("A", Fraction(5, 4))),
    )
    system = AdmissibleArcSystem(rotation({"A": 4}, 1), arcs)
    kinds = {v.kind for v in validate_system(system)}
    assert {"singularity", "arc-count"} <= kinds


def test_refined_systems_pass_validation_randomized():
    rng = random.Random(1234)
    cases = 0
    for _ in range(600):
        n_circles = rng.randint(1, 3)
        counts = {chr(ord("A") + i): rng.choice([2, 4, 6]) for i in range(n_circles)}
        ids = list(counts)
        rng.shuffle(ids)
        perm = dict(zip(sorted(counts), ids))
        # Orbit circles must share p for a valid rigid model; resample if not.
        if any(counts[a] != counts[b] for a, b in perm.items()):
            continue
        shifts = {cid: rng.randint(0, 7) for cid in counts}
        action = boundary(counts, perm, shifts)
        if any(
            perm[cid] == cid and shifts[cid] % counts[cid] == 0 for cid in counts
        ):
            continue
        polarity = default_polarity(action, phase=rng.choice([0, 1]))
        for matching in islice(enumerate_matchings(action, polarity), 8):
            system = refined_matching(action, polarity=polarity, matching=matching)
            assert validate_system(system) == []
            assert len(system.arcs) == sum(counts.values()) // 2
            cases += 1
    assert cases >= 1000


def test_push_off_basic():
    system = refined_matching(rotation({"A": 2}, 1))
    result = push_off(system, Fraction(1, 8))
    assert result.epsilon == Fraction(1, 8)
    offset = {e.position for e in result.offset_endpoints}
    assert offset == {Fraction(3, 8), Fraction(15, 8)}


def test_push_off_epsilon_too_large():
    system = refined_matching(rotation({"A": 2}, 1))
    with pytest.raises(ValueError, match="push-off"):
        push_off(system, 3)


def test_push_off_collision_retries():
    # Circles swapped with zero rotation: the offset endpoint of A at
    # 1/4 + 1/16 lands exactly on B's endpoint at 5/16, forcing one halving.
    swap = boundary({"A": 2, "B": 2}, {"A": "B", "B": "A"}, {"A": 0, "B": 0})
    arcs = (
        CombinatorialArc(ArcEndpoint("A", Fraction(1, 4)), ArcEndpoint("A", Fraction(7, 4))),
        CombinatorialArc(ArcEndpoint("B", Fraction(5, 16)), ArcEndpoint("B", Fraction(13, 8))),
    )
    system = AdmissibleArcSystem(swap, arcs)
    result = push_off(system, Fraction(1, 16))
    assert result.epsilon == Fraction(1, 32)


def test_push_off_preserves_slot_conditions():
    action = boundary({"A": 4, "B": 4}, {"A": "B", "B": "A"}, {"A": 1, "B": 2})
    system = refined_matching(action)
    result = push_off(system, Fraction(1, 64))
    # Re-run the slot predicates on the offset family.
    offset_arcs = tuple(
        CombinatorialArc(result.offset_endpoints[2 * i], result.offset_endpoints[2 * i + 1])
        for i in range(len(system.arcs))
    )
    offset_system = AdmissibleArcSystem(action, offset_arcs)
    assert validate_system(offset_system) == []


def test_relabelling_equivariance():
    rng = random.Random(7)
    action = boundary(
        {"A": 4, "B": 4, "C": 2}, {"A": "B", "B": "A", "C": "C"}, {"A": 1, "B": 3, "C": 1}
    )
    system = refined_matching(action)
    base_kinds = sorted(v.kind for v in validate_system(system))
    for _ in range(10):
        names = ["A", "B", "C"]
        relabel = dict(zip(names, rng.sample(names, 3)))
        action2 = boundary(
            {relabel[cid]: p for cid, p in action.counts.items()},
            {relabel[cid]: relabel[img] for cid, img in action.permutation.items()},
            {relabel[cid]: s for cid, s in action.shifts.items()},
        )
        arcs2 = tuple(
            CombinatorialArc(
                ArcEndpoint(relabel[a.start.circle_id], a.start.position),
                ArcEndpoint(relabel[a.end.circle_id], a.end.position),
                a.pos_transverse_stable,
                a.pos_transverse_unstable,
            )
            for a in system.arcs
        )
        system2 = AdmissibleArcSystem(action2, arcs2)
        assert sorted(v.kind for v in validate_system(system2)) == base_kinds


def test_json_roundtrip():
    system = refined_matching(rotation({"A": 4}, 1))
    doc = system_to_json(system)
    assert doc["schema"] == "arc_system_v1"
    assert system_from_json(doc) == system


@st.composite
def actions(draw, base_shifts_only=False):
    """Boundary actions on 1-4 circles.  With ``base_shifts_only`` every
    circle but the least of its orbit has shift 0, as in
    ``monodromy_boundary_v1``."""
    ids = draw(st.permutations(["C%d" % i for i in range(draw(st.integers(1, 4)))]))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1)))) if len(ids) > 1 else []
    counts, permutation, shifts = {}, {}, {}
    for lo, hi in zip([0] + cuts, cuts + [len(ids)]):
        cycle = ids[lo:hi]
        p = draw(st.sampled_from([2, 4, 6]))
        for k, cid in enumerate(cycle):
            counts[cid] = p
            permutation[cid] = cycle[(k + 1) % len(cycle)]
            base = cid == min(cycle)
            shifts[cid] = draw(st.integers(-9, 9)) if base or not base_shifts_only else 0
    return boundary(counts, permutation, shifts)


@given(actions(base_shifts_only=True))
def test_action_json_roundtrip(action):
    assert action_from_json(action_to_json(action)) == action


@given(actions(), st.sampled_from([0, 1]))
def test_refined_systems_validate_and_roundtrip(action, phase):
    assume(
        all(
            action.permutation[cid] != cid or action.shifts[cid] % p
            for cid, p in action.counts.items()
        )
    )
    system = refined_matching(action, polarity=default_polarity(action, phase))
    assert validate_system(system) == []
    assert system_from_json(system_to_json(system)) == system
