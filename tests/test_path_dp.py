"""The path DP of both ladder kernels against the full search.

``_ladder_py._search`` enumerates every maximal carried path, so a tally of
its paths is the oracle: ``_ladder_py._counts``, which counts by dynamic
programming wherever the DP applies and falls back to that tally elsewhere,
must give the same counts and longest path, and ``first_violation`` and
``check_two_line_property`` the search's first violating path.  The compiled
kernel has only the seeded ``scan_ladder``, and only counts: it hands to the
pure-Python kernel every ladder that the DP cannot count or whose counts
leave 64 bits, and every call whose seeds leave a long long.  The tests here
reach that hand-over in runs split across threads and on one CPU, and at the
size cap.  No bulk scan, on either kernel, searches for a witness.
"""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import capture

from dehnfill import _ladder, _ladder_py
from dehnfill.ladders import (
    SIZE_CAP,
    CarriedPath,
    LadderTrack,
    Rung,
    _rung_lists,
    check_two_line_property,
    enumerate_carried_paths,
    random_ladder,
    verify_ladders,
)


SIGNS = st.sampled_from([1, -1])


def ladder_lists(track):
    """The track as ``ladders._draw`` returns a ladder."""
    return (track.n_levels, track.orientations, *_rung_lists(track.rungs))


def counts(track, step_bound):
    """``(n_paths, n_violations, n_truncated, max_len)`` of the track."""
    return _ladder_py._counts(_ladder_py._build_tables(*ladder_lists(track)), step_bound)


def searched(track, step_bound):
    """The counts of the track by a tally of the search, and the
    ``(steps, truncated)`` of its first violating path or None."""
    tables = _ladder_py._build_tables(*ladder_lists(track))
    paths = list(_ladder_py._search(tables, step_bound))
    bad = [w for w in paths if _ladder_py._path_violates(w[0], tables.decode, tables.forward_dir)]
    tally = (len(paths), len(bad), sum(t for _, t in paths), max(len(p) for p, _ in paths))
    return tally, (tuple(map(tables.decode, bad[0][0])), bad[0][1]) if bad else None


@st.composite
def any_ladders(draw):
    """Ladders with any cusp signs and orientations, rungs crossing or not:
    equal cusps turn a path's direction, and such rungs can close cycles."""
    n_levels = draw(st.integers(1, 5))
    n_rungs = draw(st.integers(0, 9)) if n_levels > 1 else 0
    lows = draw(st.permutations(range(n_rungs)))
    highs = draw(st.permutations(range(n_rungs)))
    rungs = tuple(
        Rung(draw(st.integers(0, n_levels - 2)), 2 * low, 2 * high + 1, draw(SIGNS), draw(SIGNS))
        for low, high in zip(lows, highs)
    )
    return LadderTrack(n_levels, tuple(draw(SIGNS) for _ in range(n_levels)), rungs)


seeded_ladders = st.tuples(
    st.integers(0, 10**6), st.sampled_from([(5, 3), (8, 6), (3, 12), (12, 4)]), st.booleans()
).map(lambda args: random_ladder(args[0], *args[1], alternating=args[2]))


STEP_BOUNDS = st.sampled_from([*range(1, 9), 10**4])


@settings(deadline=None, max_examples=300)
@given(seeded_ladders | any_ladders(), STEP_BOUNDS)
def test_the_dp_gives_what_the_search_gives(track, step_bound):
    tally, witness = searched(track, step_bound)
    assert counts(track, step_bound) == tally
    assert _ladder_py.first_violation(ladder_lists(track), step_bound) == witness


# Two rungs with equal cusps: right along level 0, up the right rung, left
# along level 1, down the left rung and right again, for ever.
CYCLIC = LadderTrack(2, (1, -1), (Rung(0, 1, 1, 1, 1), Rung(0, 3, 3, -1, -1)))


@settings(deadline=None, max_examples=300)
@given(seeded_ladders | any_ladders() | st.just(CYCLIC))
def test_the_state_graph_is_closed_under_reversal(track):
    """For each state ``s`` and successor ``t``, ``s ^ 1`` follows ``t ^ 1``:
    the reverse of a path is a path, which makes the DP's halving exact.  No
    source follows any state, so the DP reaches each source first from it."""
    tables = _ladder_py._build_tables(*ladder_lists(track))
    for s in range(tables.n_states):
        for t in tables.successors(s):
            assert s ^ 1 in tables.successors(t ^ 1), (s, t)
            assert t not in tables.sources, (s, t)


@settings(deadline=None, max_examples=300)
@given(seeded_ladders | any_ladders() | st.just(CYCLIC), STEP_BOUNDS)
# The first violating path of this ladder is cut at step bound 3.
@example(random_ladder(0, alternating=False), 3)
def test_the_witness_is_the_first_violating_path(track, step_bound):
    forward_dir = _ladder_py._build_tables(*ladder_lists(track)).forward_dir
    paths = enumerate_carried_paths(track, step_bound)
    bad = [p for p in paths if _ladder_py._path_violates(p.steps, lambda step: step, forward_dir)]
    ok, witnesses = check_two_line_property(track, step_bound)
    assert ok == (not bad)
    assert witnesses == bad[:1]


def test_a_cycle_falls_back_to_the_search():
    tables = _ladder_py._build_tables(*ladder_lists(CYCLIC))
    assert _ladder_py._suffix_counts(tables, 10**4) is None
    tally, witness = searched(CYCLIC, 10**4)
    assert counts(CYCLIC, 10**4) == tally
    # Only the search truncates, at the first repeated state.
    assert tally[2] > 0 and tally[1] > 0 and witness is not None
    assert check_two_line_property(CYCLIC)[1][0] == CarriedPath(*witness)


def test_the_first_witness_is_the_searchs():
    found = 0
    for sizes, count in [((8, 6), 300), ((12, 9), 30), ((2, 30), 100)]:
        for seed in range(count):
            track = random_ladder(seed, *sizes, alternating=False)
            tally, witness = searched(track, 10**4)
            ok, witnesses = check_two_line_property(track)
            assert ok == (tally[1] == 0) == (witness is None), (sizes, seed)
            if not ok:
                assert witnesses[0] == CarriedPath(*witness)
                found += 1
    assert found > 100


def test_the_witness_search_stops_at_the_first_violation():
    # At the size cap with a step bound below the longest path, where the
    # DP does not apply: the search must stop at the first violating path,
    # since listing every path takes about 14 s.
    track = random_ladder(1, SIZE_CAP, SIZE_CAP, alternating=False)
    start = time.perf_counter()
    ok, witnesses = check_two_line_property(track, 30)
    elapsed = time.perf_counter() - start
    assert not ok and len(witnesses[0].steps) <= 30
    # About 0.1 s on a 2-vCPU Xeon VM with CPython 3.11.
    assert elapsed < 5, elapsed


# Control ladders at (100, 100) from seed 0: seeds 6, 19, 24, 29, 33, 34, 36
# and 38 have 2**63 paths or more, so their directed counts leave uint64, and
# many others have more than a thread's tally may hold.  The tallies of two
# threads once summed past 2**63 here, and the call lost 2**64 paths.  Seed 6
# violates, so from it the lowest violating seed comes from the pure-Python DP.
BIG = (100, 100, False, 10**4)


def test_counts_past_64_bits_go_to_the_python_dp(compiled_kernel):
    got = compiled_kernel.scan_ladder(6, 1, *BIG)
    expected = counts(random_ladder(6, *BIG[:3]), 10**4)
    assert got == (6, *expected, expected[0])
    assert got[1] >= 2**63 and got[2] > 0
    for start in (0, 6):
        got = compiled_kernel.scan_ladder(start, 42, *BIG)
        assert got == _ladder_py.scan_ladder(start, 42, *BIG), start
        assert got[1] >= 2**64 and got[0] == start


def test_no_bulk_scan_searches_for_a_witness(kernel, monkeypatch):
    # Control ladders that violate, and a ladder whose counts pass 64 bits,
    # which the compiled kernel hands to fold_in: each summary gives the
    # first violating seed, and no path is searched for.
    calls = [
        {"cases": 200, "alternating": False},
        {"cases": 1, "seed": 6, "max_levels": 100, "max_rungs_per_gap": 100, "alternating": False},
    ]
    expected = [verify_ladders(**call) for call in calls]
    assert [summary["first_violation_seed"] for summary in expected] == [0, 6]

    def no_witness(*args):
        raise AssertionError("a bulk scan searched for a witness")

    monkeypatch.setattr(_ladder_py, "_first_witness", no_witness)
    assert [verify_ladders(**call) for call in calls] == expected
    with pytest.raises(AssertionError, match="searched for a witness"):
        check_two_line_property(random_ladder(0, alternating=False))


# Calls at the compiled kernel's hand-over, besides the control run from seed
# 0 below, in which every block of eight seeds holds a violating ladder, so
# every thread keeps a lowest violating index for the merge: the same run at
# step bounds where the DP gives up on some ladders (it counts no path that
# the search truncates) or on all of them; runs that end at 2**63 - 1 or
# start at -2**63, which the C counts; and runs that leave the long long
# range at either end, which go to the pure-Python kernel whole.
HAND_OVER_CALLS = [(0, 200, 8, 6, False, step_bound) for step_bound in (1, 2, 3, 5, 8)]
HAND_OVER_CALLS += [
    (start, 200, 8, 6, False, 10**4)
    for start in (2**63 - 200, 2**63 - 100, -(2**63), -(2**63) - 100)
]


def test_threaded_and_one_cpu_scans_agree(compiled_kernel):
    # The same calls in a process pinned to one CPU, where every call stays
    # on the calling thread.
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity")
    calls = [(0, 200, 8, 6, False, 10**4), (5, 200, 3, 150, False, 10**4), (0, 42, *BIG)]
    calls += HAND_OVER_CALLS
    code = (
        "import importlib.util, os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "spec = importlib.util.spec_from_file_location('dehnfill._ladder_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "print([kernel.scan_ladder(*args) for args in %r])\n" % (calls,)
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code, compiled_kernel.__file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    expected = [compiled_kernel.scan_ladder(*args) for args in calls]
    assert proc.returncode == 0 and proc.stdout == "%r\n" % (expected,), proc.stderr
    assert expected[:2] + expected[3:] == [
        _ladder_py.scan_ladder(*args) for args in calls[:2] + calls[3:]
    ]
    singles = [_ladder_py.scan_ladder(seed, 1, 8, 6, False, 10**4) for seed in range(200)]
    assert all(any(single[2] for single in singles[k : k + 8]) for k in range(0, 200, 8))


# `ladder verify --control` at the size cap, seed 1: its maximal paths and the
# violating ones, which no enumeration could count.
CAP_ARGV = ("ladder", "verify", "--control", "--levels", "1000", "--rungs", "1000")
CAP_ARGV += ("--cases", "1", "--seed", "1")
CAP_PATHS = int(
    "373745144637852790992178412314147012021213139686067226288507754"
    "518113429730000152854458044388481223553201793"
)
CAP_VIOLATIONS = int(
    "373745144637852790992178412314147012021213139686067226288507754"
    "518113429730000152854458044388481223553162171"
)


def test_the_control_ladder_at_the_cap_is_counted(compiled_kernel, monkeypatch):
    monkeypatch.setattr(_ladder, "scan_ladder", compiled_kernel.scan_ladder)
    start = time.perf_counter()
    code, out, err = capture(CAP_ARGV)
    elapsed = time.perf_counter() - start
    summary = json.loads(out)
    assert code == 0 and err == ""
    assert summary["total_paths"] == summary["max_paths_per_ladder"] == CAP_PATHS
    assert summary["violations"] == CAP_VIOLATIONS and summary["first_violation_seed"] == 1
    # About 1.3 s on a 2-vCPU Xeon VM with CPython 3.11.
    assert elapsed < 30, elapsed
    got = _ladder_py.scan_ladder(1, 1, SIZE_CAP, SIZE_CAP, False, 10**4)
    fields = ["total_paths", "violations", "truncated_paths", "max_path_length"]
    assert list(got[1:5]) == [summary[field] for field in fields]
    assert (got[0], got[5]) == (1, CAP_PATHS)
