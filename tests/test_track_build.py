"""The integer boundary-track builder against the ``Fraction`` builder it
replaced, the track validator against the one it replaced (both kept in
``tests/track_oracle.py``), and the cap on the builder's size."""

import json
import re
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dehnfill.monodromy import DegeneracyLocus
from dehnfill.tracks import (
    BRANCH_CAP,
    CONFIG_PRESETS,
    HEAD,
    TAIL,
    Branch,
    EndpointConfig,
    Switch,
    TorusTrainTrack,
    _fraction_text,
    build_boundary_track,
    random_track,
    track_to_json,
    validate_track,
)
from test_cone_kernel import reversing_loci
from track_oracle import fraction_boundary_track, set_validate_track


def outcome(build, *args):
    """The track ``build`` returns, as ``torus_track_v1`` text so that the
    int type of every class is compared too, or the text of the
    ``ValueError`` it raises."""
    try:
        return json.dumps(track_to_json(build(*args)))
    except ValueError as exc:
        return "ValueError: %s" % exc


GRID = (
    [(p, q, 1) for p, q in reversing_loci(12)]
    + [(p, q, 3) for p, q in reversing_loci(8)]
    + [(p, q, 5) for p, q in reversing_loci(6)]
)


def test_matches_fraction_builder_on_the_grid():
    assert len(GRID) == 21 + 10 + 6
    for p, q, c in GRID:
        for name, config in CONFIG_PRESETS.items():
            args = DegeneracyLocus(p, q), c, config
            want = outcome(fraction_boundary_track, *args)
            assert not want.startswith("ValueError")
            assert outcome(build_boundary_track, *args) == want, (p, q, c, name)


def test_matches_fraction_builder_on_even_orbit_lengths():
    # The CLI refuses even c on odd q, but the library still builds the track
    # (tests/test_tracks.py pins the arc of (4; 1) with c = 2).
    for p, q in reversing_loci(6):
        for c in (2, 4):
            for config in CONFIG_PRESETS.values():
                args = DegeneracyLocus(p, q), c, config
                assert outcome(build_boundary_track, *args) == outcome(
                    fraction_boundary_track, *args
                ), (p, q, c)


FOOT = re.compile(r"circle\[(\d+)\](lower|upper)\[(.+)\]$")


def assert_feet_are_distinct(track, p, c):
    """Each of the ``p`` segments of each of the ``c`` circles holds one
    lower and one upper foot, and no two feet of a circle share a position:
    the claim that lets the builder go without a check for colliding feet."""
    feet = {}
    for switch in track.switches:
        j, kind, x = FOOT.match(switch.label).groups()
        feet.setdefault(int(j), []).append((kind, Fraction(x)))
    assert sorted(feet) == list(range(c))
    for circle in feet.values():
        positions = [x for _, x in circle]
        assert len(set(positions)) == len(positions) == 2 * p
        for kind in ("lower", "upper"):
            assert sorted(int(x) for k, x in circle if k == kind) == list(range(p))


def test_feet_are_distinct_on_the_grid():
    for p, q, c in GRID:
        for config in CONFIG_PRESETS.values():
            assert_feet_are_distinct(build_boundary_track(DegeneracyLocus(p, q), c, config), p, c)


@st.composite
def loci(draw):
    p = 2 * draw(st.integers(1, 6))
    return DegeneracyLocus(p, draw(st.integers(-p // 2 + 1, p // 2)))


@st.composite
def configs(draw):
    def feet(top):
        return st.fractions(min_value=0, max_value=top, max_denominator=10**6)

    lower_out, lower_in = draw(feet(1)), draw(feet(1))
    # A nudge that keeps both upper feet inside (0, 1) when the lower are.
    upper_nudge = draw(feet(max(0, min(1 - lower_out, lower_in))))
    try:
        return EndpointConfig(draw(st.integers()), lower_out, lower_in, upper_nudge)
    except ValueError:  # not four distinct feet inside (0, 1)
        assume(False)


@settings(deadline=None)
@given(loci(), st.integers(-1, 5), configs())
def test_matches_fraction_builder_on_generated_configs(locus, c, config):
    # Even q and c < 1 raise on both sides, with the same text.
    assert outcome(build_boundary_track, locus, c, config) == outcome(
        fraction_boundary_track, locus, c, config
    )


@settings(deadline=None)
@given(loci(), st.integers(1, 5), configs())
def test_feet_are_distinct_on_generated_configs(locus, c, config):
    assume(locus.q % 2)
    assert_feet_are_distinct(build_boundary_track(locus, c, config), locus.p, c)


@given(st.integers(min_value=0), st.integers(min_value=1))
def test_label_text_is_the_fraction_text(x, d):
    assert _fraction_text(x, d) == str(Fraction(x, d))


@st.composite
def switch_lists(draw):
    """Branches and switches, mostly well formed, checked without building a
    ``TorusTrainTrack`` (which would validate them)."""
    n = draw(st.integers(0, 6))
    end = st.tuples(
        st.one_of(st.integers(0, max(n - 1, 0)), st.integers(-1, n)),
        st.one_of(st.sampled_from((TAIL, HEAD)), st.integers(-1, 2)),
    )
    switches = [
        Switch(single=draw(end), double=(draw(end), draw(end)), label="s%d" % k)
        for k in range(draw(st.integers(0, 4)))
    ]
    return SimpleNamespace(branches=[None] * n, switches=switches)


def validation(validate, track):
    try:
        validate(track)
    except ValueError as exc:
        return "ValueError: %s" % exc
    return None


@given(switch_lists())
def test_validator_matches_set_validator(track):
    assert validation(validate_track, track) == validation(set_validate_track, track)


@pytest.mark.parametrize("bid", [1.5, 2.0, "2"])
def test_validator_rejects_a_branch_index_that_is_not_an_int(bid):
    # The set validator accepted 2.0, blamed branch 2 for 1.5 and raised
    # TypeError on "2".
    track = SimpleNamespace(
        branches=[None] * 3,
        switches=[
            Switch(single=(0, TAIL), double=((1, HEAD), (bid, HEAD)), label="s0"),
            Switch(single=(0, HEAD), double=((1, TAIL), (2, TAIL)), label="s1"),
        ],
    )
    assert validation(validate_track, track) == "ValueError: switch 's0' references a bad end"


def two_switch_track(single, double):
    """Branch 0 runs from switch s0 to s1, and branches 1 and 2 back, when
    ``single`` is ``(0, TAIL)`` and ``double`` is ``((1, HEAD), (2, HEAD))``."""
    return TorusTrainTrack(
        (Branch(0, 1), Branch(1, 0), Branch(-1, 0)),
        (
            Switch(single, double, label="s0"),
            Switch((0, HEAD), ((1, TAIL), (2, TAIL)), label="s1"),
        ),
    )


@pytest.mark.parametrize(
    "single, double",
    [
        ((0, False), ((1, HEAD), (2, HEAD))),
        ((False, TAIL), ((1, HEAD), (2, HEAD))),
        ((0, TAIL), ((True, HEAD), (2, HEAD))),
        ((0, TAIL), ((1, True), (2, HEAD))),
        ((0, TAIL), ((1, HEAD), (2, 1.0))),
    ],
)
def test_switch_ends_are_exact_ints(single, double):
    # A bool or a float equal to 0 or 1 was taken, and track_to_json wrote a
    # bool as false or true, which track_from_json rejects.
    two_switch_track((0, TAIL), ((1, HEAD), (2, HEAD)))
    with pytest.raises(ValueError, match=re.escape("switch 's0' references a bad end")):
        two_switch_track(single, double)


def test_validator_matches_set_validator_on_valid_tracks():
    tracks = [random_track(seed) for seed in range(300)]
    tracks += [build_boundary_track(DegeneracyLocus(p, q), c) for p, q, c in GRID]
    for track in tracks:
        assert validation(validate_track, track) is None
        assert validation(set_validate_track, track) is None


def test_inexact_feet_are_rejected():
    with pytest.raises(ValueError, match="exact"):
        EndpointConfig(lower_out=0.25)


def test_branch_cap():
    assert BRANCH_CAP == 30_000
    start = time.perf_counter()
    track = build_boundary_track(DegeneracyLocus(2, 1), BRANCH_CAP // 6)
    assert len(track.branches) == BRANCH_CAP
    assert time.perf_counter() - start < 10.0
    for locus, c, n in [
        (DegeneracyLocus(2, 1), BRANCH_CAP // 6 + 1, 30_006),
        (DegeneracyLocus(10_002, 1), 1, 30_006),
    ]:
        with pytest.raises(ValueError, match="must be at most 30000, not %d$" % n):
            build_boundary_track(locus, c)
