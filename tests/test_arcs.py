import random
import re
from fractions import Fraction
from itertools import islice, permutations, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dehnfill.arcs import (
    AdmissibleArcSystem,
    ArcEndpoint,
    CombinatorialArc,
    default_polarity,
    enumerate_matchings,
    refined_matching,
    system_from_json,
    system_to_json,
    validate_system,
)
from dehnfill.monodromy import MonodromyBoundaryAction, action_from_json


def rotation(counts, shift):
    identity = {cid: cid for cid in counts}
    return MonodromyBoundaryAction(counts, identity, {cid: shift for cid in counts})


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


def test_a_matching_pairs_each_beta_slot_once():
    action = rotation({"A": 4}, 1)
    (beta, gamma), (_, other) = next(iter(enumerate_matchings(action, default_polarity(action))))
    with pytest.raises(ValueError, match="matching must pair each beta slot with one gamma slot"):
        refined_matching(action, matching=((beta, gamma), (beta, other)))


def test_refined_matching_two_circles_total6():
    system = refined_matching(
        MonodromyBoundaryAction({"A": 2, "B": 4}, {"A": "A", "B": "B"}, {"A": 1, "B": 1})
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


def small_actions():
    """Every action on one or two circles with 2, 4 or 6 singularities each:
    every permutation that keeps the counts on an orbit, and every shift."""
    for ids in ("A", "AB"):
        for sizes in product((2, 4, 6), repeat=len(ids)):
            counts = dict(zip(ids, sizes))
            for images in permutations(ids):
                permutation = dict(zip(ids, images))
                if any(counts[cid] != counts[permutation[cid]] for cid in ids):
                    continue
                for shifts in product(*(range(p) for p in sizes)):
                    yield MonodromyBoundaryAction(counts, permutation, dict(zip(ids, shifts)))


def test_refined_endpoints_take_one_of_two_offsets():
    """The first six matchings of each small action and phase give admissible
    systems whose endpoints sit at ``m + 1/4`` (beta) or ``m + 3/4`` (gamma)
    plus ``order * eps``, one ``eps`` in ``{0, 1/(8 * slots)}`` per system,
    where ``order`` ranks a slot among the beta slots and then the gamma ones."""
    quarter = {"beta": Fraction(1, 4), "gamma": Fraction(3, 4)}
    found = {"plain": 0, "nudged": 0}
    for action in small_actions():
        if any(
            action.permutation[cid] == cid and action.shifts[cid] % p == 0
            for cid, p in action.counts.items()
        ):
            continue
        slots = sum(action.counts.values())
        for phase in (0, 1):
            polarity = default_polarity(action, phase)
            ranked = sorted(polarity, key=lambda slot: (polarity[slot], slot))
            order = {slot: k for k, slot in enumerate(ranked)}
            grids = [
                {(cid, m + quarter[polarity[cid, m]] + order[cid, m] * eps) for cid, m in order}
                for eps in (Fraction(0), Fraction(1, 8 * slots))
            ]
            for matching in islice(enumerate_matchings(action, polarity), 6):
                system = refined_matching(action, polarity, matching)
                assert validate_system(system) == []
                assert [
                    ((a.start.circle_id, a.start.segment), (a.end.circle_id, a.end.segment))
                    for a in system.arcs
                ] == list(matching)
                positions = {(e.circle_id, e.position) for e in system.endpoints}
                assert positions in grids
                found["plain" if positions == grids[0] else "nudged"] += 1
    # Both offsets occur.
    assert min(found.values()) > 100


def test_refined_matching_raises_on_a_polarity_off_the_action():
    # Slots on a circle the action lacks, balanced and alternating, are
    # rejected before any build.
    action = rotation({"A": 2}, 1)
    polarity = {**default_polarity(action), ("Z", 0): "beta", ("Z", 1): "gamma"}
    for call in (refined_matching, enumerate_matchings):
        with pytest.raises(ValueError, match=r"slot \('Z', 0\) is not a slot of the action"):
            call(action, polarity)


@pytest.mark.parametrize("kinds", [("x", "y"), ("beta", "Gamma"), (None, "gamma")])
def test_polarity_kinds_are_beta_or_gamma(kinds):
    action = rotation({"A": 2}, 1)
    polarity = {("A", 0): kinds[0], ("A", 1): kinds[1]}
    bad = next(slot for slot, kind in polarity.items() if kind not in ("beta", "gamma"))
    message = re.escape("kind %r of slot %r" % (polarity[bad], bad))
    for call in (refined_matching, enumerate_matchings):
        with pytest.raises(ValueError, match=message):
            call(action, polarity)


def test_polarity_gives_every_slot_a_kind():
    action = rotation({"A": 2, "B": 2}, 1)
    polarity = default_polarity(action)
    del polarity["B", 1]
    for call in (refined_matching, enumerate_matchings):
        with pytest.raises(ValueError, match=r"no kind for slot \('B', 1\)"):
            call(action, polarity)


def test_the_constructor_rejects_fractional_shifts():
    # A shift of 7/16 would move the endpoints' fractional parts, and both
    # offsets of refined_matching would meet their image.
    with pytest.raises(ValueError, match="one integer shift per circle"):
        MonodromyBoundaryAction(
            {"A": 2, "B": 2}, {"A": "A", "B": "B"}, {"A": Fraction(7, 16), "B": Fraction(1, 2)}
        )


def test_endpoint_positions_are_exact():
    for position in (0.1, "1/4", None):
        with pytest.raises(ValueError, match="exact rationals"):
            ArcEndpoint("A", position)
    assert ArcEndpoint("A", 1).position == Fraction(1)


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
    swap = MonodromyBoundaryAction({"A": 2, "B": 2}, {"A": "B", "B": "A"}, {"A": 0, "B": 0})
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
        action = MonodromyBoundaryAction(counts, perm, shifts)
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


def test_relabelling_equivariance():
    rng = random.Random(7)
    action = MonodromyBoundaryAction(
        {"A": 4, "B": 4, "C": 2}, {"A": "B", "B": "A", "C": "C"}, {"A": 1, "B": 3, "C": 1}
    )
    system = refined_matching(action)
    base_kinds = sorted(v.kind for v in validate_system(system))
    for _ in range(10):
        names = ["A", "B", "C"]
        relabel = dict(zip(names, rng.sample(names, 3)))
        action2 = MonodromyBoundaryAction(
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
def actions(draw):
    """Boundary actions on 1-4 circles."""
    ids = draw(st.permutations(["C%d" % i for i in range(draw(st.integers(1, 4)))]))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1)))) if len(ids) > 1 else []
    counts, permutation, shifts = {}, {}, {}
    for lo, hi in zip([0] + cuts, cuts + [len(ids)]):
        cycle = ids[lo:hi]
        p = draw(st.sampled_from([2, 4, 6]))
        for k, cid in enumerate(cycle):
            counts[cid] = p
            permutation[cid] = cycle[(k + 1) % len(cycle)]
            shifts[cid] = draw(st.integers(-9, 9))
    return MonodromyBoundaryAction(counts, permutation, shifts)


def test_action_json_roundtrip():
    # Two orbits; the schema keys each orbit's shift by its base circle, so
    # B, off the base of its orbit, gets shift 0.
    doc = {
        "schema": "monodromy_boundary_v1",
        "circles": [
            {"id": "A", "stable_sings": 4},
            {"id": "B", "stable_sings": 4},
            {"id": "C", "stable_sings": 2},
        ],
        "permutation": {"A": "B", "B": "A", "C": "C"},
        "shifts": {"A": 3, "C": -1},
    }
    action = action_from_json(doc)
    assert action == MonodromyBoundaryAction(
        {"A": 4, "B": 4, "C": 2}, {"A": "B", "B": "A", "C": "C"}, {"A": 3, "B": 0, "C": -1}
    )
    system = refined_matching(action)
    assert system_from_json(system_to_json(system)).action == action


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
