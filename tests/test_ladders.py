import hashlib
from fractions import Fraction

import ladder_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_path_dp import any_ladders, counts

from dehnfill.ladders import (
    SIZE_CAP,
    CarriedPath,
    LadderTrack,
    Rung,
    check_two_line_property,
    enumerate_carried_paths,
    kernel_backend,
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
        ({"max_levels": SIZE_CAP + 1}, "must be <= 1000, not 1001 and 6"),
        ({"max_rungs_per_gap": SIZE_CAP + 1}, "must be <= 1000, not 8 and 1001"),
    ],
)
def test_out_of_domain_sizes_rejected(sizes, message):
    with pytest.raises(ValueError, match=message):
        random_ladder(0, **sizes)
    with pytest.raises(ValueError, match=message):
        verify_ladders(0, **sizes)


@pytest.mark.parametrize("sizes", [(SIZE_CAP, 0), (2, SIZE_CAP), (SIZE_CAP, SIZE_CAP)])
def test_sizes_at_the_cap_allowed(sizes):
    # A step bound of 3 keeps the scan small; the draw is full size.
    assert verify_ladders(1, 1, *sizes, step_bound=3)["total_paths"] > 0


def test_smallest_sizes_allowed():
    ladder = random_ladder(5, max_levels=2, max_rungs_per_gap=0)
    assert ladder.n_levels == 2 and ladder.rungs == ()
    assert verify_ladders(3, max_levels=2, max_rungs_per_gap=0)["total_paths"] == 6


# repr of random_ladder(seed, *sizes, alternating) for seeds 0..299, pinned
# before the draw moved to plain lists.  Nudges never reorder feet, so the
# path digests of test_ladder_golden.py cannot see them; this digest can.
RANDOM_LADDERS_DIGEST = "334dfdb8a4f8708f44f15528d14d8069b7917b75d4a1a170dac63fa99fe00f3c"


def random_ladders_digest():
    digest = hashlib.sha256()
    for alternating in (True, False):
        for sizes in ((8, 6), (5, 3), (2, 0)):
            for seed in range(300):
                digest.update(repr(random_ladder(seed, *sizes, alternating)).encode() + b"\n")
    return digest.hexdigest()


def test_random_ladders_match_golden():
    assert random_ladders_digest() == RANDOM_LADDERS_DIGEST


def test_random_positions_are_sixteenths_as_ints():
    # Base slots are multiples of 4 (quarters), each end nudged by at most 1.
    ladder = random_ladder(11)
    assert ladder.rungs
    for r in ladder.rungs:
        assert type(r.low_pos) is int and type(r.high_pos) is int
        assert r.low_pos % 4 == 0 and abs(r.high_pos - r.low_pos) <= 1


def negative_fractions(ladder):
    """The ladder with each position ``x`` moved to ``x / 48 - 100``: the
    same order, every position a negative ``Fraction`` on the ladders here."""
    return LadderTrack(
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


@pytest.mark.parametrize("alternating", [True, False])
def test_only_the_order_of_positions_matters(alternating):
    # Scaling and shifting positions, even to negative Fractions, keeps every
    # path, truncation flag and separation verdict.
    for seed in range(20):
        ladder = random_ladder(seed, max_levels=5, max_rungs_per_gap=3, alternating=alternating)
        moved = negative_fractions(ladder)
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
    assert summary["backend"] in ("c", "python")


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


seeded_ladders = st.tuples(
    st.integers(0, 10**6), st.sampled_from([(5, 3), (8, 6), (12, 6)]), st.booleans()
).map(lambda args: random_ladder(args[0], *args[1], alternating=args[2]))


@settings(deadline=None)
@given(any_ladders() | any_ladders().map(negative_fractions) | seeded_ladders)
def test_separation_matches_the_per_level_oracle(ladder):
    for path in enumerate_carried_paths(ladder):
        assert separation_check(ladder, path) == ladder_oracle.separation_check(ladder, path)


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


def test_one_orientation_sign_per_level():
    for n_levels, orientations in ((3, (1, -1)), (0, ())):
        with pytest.raises(ValueError, match="need one orientation sign per level"):
            LadderTrack(n_levels, orientations, ())


def test_levels_are_integers():
    for level in (0.5, True, Fraction(0)):
        with pytest.raises(TypeError, match="lower_level must be an integer"):
            Rung(level, 4, 4, 1, -1)
    for n_levels in (True, 1.0):
        with pytest.raises(TypeError, match="n_levels must be an integer"):
            LadderTrack(n_levels, (1,), ())


@pytest.mark.parametrize("sign", [True, False, -1.0, 1.0, Fraction(1)])
def test_signs_are_exact_integers(sign):
    with pytest.raises(TypeError, match="cusp_low must be an integer"):
        Rung(0, 1, 1, sign, -1)
    with pytest.raises(TypeError, match="cusp_high must be an integer"):
        Rung(0, 1, 1, 1, sign)
    with pytest.raises(TypeError, match="orientation must be an integer"):
        LadderTrack(2, (1, sign), ())
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match="cusp signs"):
            Rung(0, 1, 1, bad, -1)
        with pytest.raises(ValueError, match="orientations"):
            LadderTrack(2, (bad, -1), ())


def test_rung_rejects_float_positions():
    with pytest.raises(ValueError, match="exact rationals"):
        Rung(0, 0.5, 0.5, 1, -1)
    with pytest.raises(ValueError, match="exact rationals"):
        Rung(0, Fraction(5, 4), 1.5, 1, -1)


def rebuilt_summary(cases, seed, max_levels, max_rungs_per_gap, step_bound, alternating):
    """``verify_ladders`` rebuilt the old way: a ``Rung``/``LadderTrack`` per
    case, and the pure-Python kernel's counts of its rung lists."""
    scans = [
        counts(random_ladder(seed + i, max_levels, max_rungs_per_gap, alternating), step_bound)
        for i in range(cases)
    ]
    return {
        "cases": cases,
        "seed": seed,
        "max_levels": max_levels,
        "max_rungs_per_gap": max_rungs_per_gap,
        "alternating": alternating,
        "backend": kernel_backend(),
        "total_paths": sum(scan[0] for scan in scans),
        "max_paths_per_ladder": max((scan[0] for scan in scans), default=0),
        "max_path_length": max((scan[3] for scan in scans), default=0),
        "truncated_paths": sum(scan[2] for scan in scans),
        "violations": sum(scan[1] for scan in scans),
        "first_violation_seed": next(
            (seed + i for i, scan in enumerate(scans) if scan[1]), None
        ),
    }


@pytest.mark.parametrize("alternating", [True, False])
@pytest.mark.parametrize("sizes", [(8, 6), (2, 6), (8, 0), (2, 0), (5, 3)])
@pytest.mark.parametrize("seed, step_bound", [(1234, 10**4), (-40, 3)])
def test_verify_matches_per_rung_ladders(alternating, sizes, seed, step_bound):
    args = (25, seed, *sizes, step_bound, alternating)
    assert verify_ladders(*args) == rebuilt_summary(*args)


def test_verify_ladders_rejects_negative_cases():
    with pytest.raises(ValueError, match="cases must be a count >= 0, not -3"):
        verify_ladders(-3)


@pytest.mark.parametrize("seed", [0.5, 1.0, "3", None, True])
def test_non_integer_seed_rejected(seed):
    # Random would seed from the hash of a float or str, and from the clock
    # for None; the summary would echo a bool as true.
    with pytest.raises(TypeError, match="seed must be an integer"):
        verify_ladders(2, seed=seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        random_ladder(seed)


@pytest.mark.parametrize("cases", [2.5, "3", True, False])
def test_non_integer_cases_rejected(kernel, cases):
    # Both kernels raise the same error.  Unchecked, a float count failed
    # with a different message on each, a str one on its comparison with 0,
    # and a bool one was echoed as true or false in the summary.
    with pytest.raises(TypeError, match="cases must be an integer"):
        verify_ladders(cases)


@pytest.mark.parametrize("alternating", ["no", 0, 1, None])
def test_non_bool_alternating_rejected(kernel, alternating):
    # Unchecked, "no" drew geometric ladders by its truth and was echoed as
    # given, and 0 was echoed as 0 rather than false.
    with pytest.raises(TypeError, match="alternating must be a bool"):
        verify_ladders(3, alternating=alternating)
    with pytest.raises(TypeError, match="alternating must be a bool"):
        random_ladder(0, alternating=alternating)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: verify_ladders(3, step_bound=2.5), "step_bound", id="verify-bound"),
        pytest.param(lambda: verify_ladders(3, max_levels=8.0), "max_levels", id="verify-levels"),
        pytest.param(
            lambda: verify_ladders(3, max_rungs_per_gap=Fraction(6)),
            "max_rungs_per_gap",
            id="verify-rungs",
        ),
        pytest.param(lambda: random_ladder(0, max_levels=8.0), "max_levels", id="random-levels"),
        pytest.param(
            lambda: enumerate_carried_paths(random_ladder(0), step_bound=2.5),
            "step_bound",
            id="enumerate-bound",
        ),
        pytest.param(
            lambda: check_two_line_property(random_ladder(0), step_bound=10.0**4),
            "step_bound",
            id="check-bound",
        ),
    ],
)
def test_non_integer_sizes_and_bounds_rejected(kernel, call, name):
    # Both kernels raise the same error: the pure-Python loops would run on
    # a float bound, and the compiled kernel takes only ints.
    with pytest.raises(TypeError, match="%s must be an integer" % name):
        call()
