from fractions import Fraction

import pytest

from dehnfill.ladders import (
    CarriedPath,
    LadderTrack,
    Rung,
    check_two_line_property,
    enumerate_carried_paths,
    orient_ladder,
    random_ladder,
    separation_check,
    standard_orientations,
    verify_ladders,
)


def trace_rung(lower_level, x, orientations):
    return Rung(
        lower_level,
        Fraction(x),
        Fraction(x),
        cusp_low=orientations[lower_level],
        cusp_high=orientations[lower_level + 1],
    )


def leaf_trace_ladder(n_levels, rung_specs):
    orientations = standard_orientations(n_levels)
    return LadderTrack(
        n_levels,
        orientations,
        tuple(trace_rung(level, x, orientations) for level, x in rung_specs),
    )


def test_orient_rules():
    # A rung leaving an odd level points up, one leaving an even level down.
    ladder = leaf_trace_ladder(3, [(1, 2)])
    oriented = orient_ladder(ladder)
    assert oriented.rung_upward == (True,)

    ladder = leaf_trace_ladder(2, [(0, 2)])
    oriented = orient_ladder(ladder)
    assert oriented.rung_upward == (False,)

    bare = leaf_trace_ladder(4, [])
    oriented = orient_ladder(bare)
    assert oriented.track.orientations == (1, -1, 1, -1)


def test_orient_rule_is_the_unique_coherent_one():
    # A rung's landing direction is its cusp there; it matches the track
    # orientation of the landing line only on even levels, so exactly one of
    # the two rung directions is coherent, the one given by the parity rule.
    ladder = leaf_trace_ladder(4, [(0, 2), (1, 4), (2, 6)])
    oriented = orient_ladder(ladder)
    for rung, up in zip(ladder.rungs, oriented.rung_upward):
        landing_level = rung.lower_level + 1 if up else rung.lower_level
        assert landing_level % 2 == 0
        flipped_landing = rung.lower_level if up else rung.lower_level + 1
        assert flipped_landing % 2 == 1


def test_orient_rejects_non_tau():
    control = random_ladder(3, alternating=False)
    assert not control.is_leaf_trace_type()
    with pytest.raises(ValueError, match="leaf-trace"):
        orient_ladder(control)


def test_enumerate_no_rungs():
    paths = enumerate_carried_paths(leaf_trace_ladder(3, []))
    assert len(paths) == 3
    assert sorted(p.levels_met for p in paths) == [(0,), (1,), (2,)]


def test_enumerate_single_rung():
    paths = enumerate_carried_paths(leaf_trace_ladder(3, [(1, 2)]))
    through = [p for p in paths if p.rungs_used]
    assert len(through) == 1
    assert through[0].levels_met == (1, 2)


def test_enumerate_deterministic():
    first = enumerate_carried_paths(random_ladder(42, max_levels=6, max_rungs_per_gap=4))
    second = enumerate_carried_paths(random_ladder(42, max_levels=6, max_rungs_per_gap=4))
    assert first == second
    assert len(first) > 0


def test_step_bound_guard():
    with pytest.raises(ValueError):
        enumerate_carried_paths(leaf_trace_ladder(2, []), step_bound=10**5)


@pytest.mark.parametrize("step_bound", [0, -3, 10**4 + 1])
def test_step_bound_range_everywhere(step_bound):
    ladder = leaf_trace_ladder(2, [])
    for check in (enumerate_carried_paths, check_two_line_property):
        with pytest.raises(ValueError, match="step_bound must lie in 1..10"):
            check(ladder, step_bound=step_bound)
    with pytest.raises(ValueError, match="step_bound must lie in 1..10"):
        verify_ladders(0, step_bound=step_bound)


def test_step_bound_range_ends_are_allowed():
    ladder = random_ladder(17)
    assert all(p.truncated for p in enumerate_carried_paths(ladder, step_bound=1))
    assert check_two_line_property(ladder, step_bound=10**4) == (True, [])


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"max_levels": 1}, "max_levels must be >= 2"),
        ({"max_levels": 0}, "max_levels must be >= 2"),
        ({"max_rungs_per_gap": -1}, "max_rungs_per_gap must be >= 0"),
    ],
)
def test_out_of_domain_sizes_rejected(sizes, message):
    with pytest.raises(ValueError, match=message):
        random_ladder(0, **sizes)
    with pytest.raises(ValueError, match=message):
        verify_ladders(0, **sizes)


def test_smallest_sizes_allowed():
    ladder = random_ladder(5, max_levels=2, max_rungs_per_gap=0)
    assert ladder.n_levels == 2 and ladder.rungs == ()
    assert verify_ladders(3, max_levels=2, max_rungs_per_gap=0)["total_paths"] == 6


def test_random_positions_are_sixteenths_as_ints():
    # Base slots are multiples of 4 (quarters), each end nudged by at most 1.
    ladder = random_ladder(11)
    assert ladder.rungs
    for r in ladder.rungs:
        assert type(r.low_pos) is int and type(r.high_pos) is int
        assert r.low_pos % 4 == 0 and abs(r.high_pos - r.low_pos) <= 1


@pytest.mark.parametrize("alternating", [True, False])
def test_only_the_order_of_positions_matters(alternating):
    # Scaling and shifting positions, even to negative Fractions, keeps every
    # path, truncation flag and separation verdict.
    for seed in range(20):
        ladder = random_ladder(seed, max_levels=5, max_rungs_per_gap=3, alternating=alternating)
        moved = LadderTrack(
            ladder.n_levels,
            ladder.orientations,
            tuple(
                Rung(
                    r.lower_level,
                    Fraction(r.low_pos, 48) - 100,
                    Fraction(r.high_pos, 48) - 100,
                    r.cusp_low,
                    r.cusp_high,
                )
                for r in ladder.rungs
            ),
        )
        paths = enumerate_carried_paths(ladder, step_bound=50)
        assert enumerate_carried_paths(moved, step_bound=50) == paths
        verdicts = [separation_check(ladder, p) for p in paths]
        assert [separation_check(moved, p) for p in paths] == verdicts, seed


def test_two_line_trivial_cases():
    ok, witnesses = check_two_line_property(leaf_trace_ladder(4, []))
    assert ok and witnesses == []
    ok, _ = check_two_line_property(leaf_trace_ladder(3, [(1, 2)]))
    assert ok


def test_two_line_random_corpus():
    for seed in range(1000):
        ladder = random_ladder(seed)
        ok, witnesses = check_two_line_property(ladder)
        assert ok, (seed, witnesses)


def test_negative_control_has_violations():
    # Non-alternating ladders admit paths through three or more lines; the
    # suite reports the frequency without asserting a lower bound per case.
    summary = verify_ladders(300, seed=0, alternating=False)
    assert summary["violations"] > 0
    rate = summary["violations"] / max(1, summary["total_paths"])
    assert 0 < rate <= 1


def test_verify_summary_shape():
    summary = verify_ladders(50, seed=5, max_levels=6, max_rungs_per_gap=4)
    assert summary["cases"] == 50
    assert summary["violations"] == 0
    assert summary["first_violation_seed"] is None
    assert summary["backend"] in ("cython", "python")


def test_separation_full_line():
    ladder = leaf_trace_ladder(5, [])
    for path in enumerate_carried_paths(ladder):
        assert separation_check(ladder, path)


def test_separation_rung_crossing_random():
    ladder = random_ladder(7, max_levels=6, max_rungs_per_gap=4)
    paths = enumerate_carried_paths(ladder)
    crossing = [p for p in paths if p.rungs_used]
    assert crossing
    for path in paths:
        assert separation_check(ladder, path)


def test_separation_two_levels_vacuous():
    ladder = leaf_trace_ladder(2, [(0, 2)])
    for path in enumerate_carried_paths(ladder):
        assert separation_check(ladder, path)


def test_separation_requires_line():
    ladder = leaf_trace_ladder(2, [])
    path = CarriedPath(steps=(), truncated=False)
    with pytest.raises(ValueError):
        separation_check(ladder, path)


def test_ladder_validation():
    with pytest.raises(ValueError, match="collide"):
        LadderTrack(
            2,
            standard_orientations(2),
            (
                Rung(0, Fraction(1), Fraction(1), 1, -1),
                Rung(0, Fraction(1), Fraction(2), 1, -1),
            ),
        )
    with pytest.raises(ValueError, match="missing levels"):
        LadderTrack(2, standard_orientations(2), (Rung(1, Fraction(1), Fraction(1), 1, 1),))
