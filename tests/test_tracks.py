import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_oracle import cycle_rays

from dehnfill.monodromy import DegeneracyLocus
from dehnfill.slopes import INFINITY, ProjectiveSlope
from dehnfill.tracks import (
    CONFIG_PRESETS,
    HEAD,
    TAIL,
    Branch,
    CarriedSlopes,
    EndpointConfig,
    RayClasses,
    Switch,
    TorusTrainTrack,
    build_boundary_track,
    carried_slopes,
    integral_carried_classes,
    random_track,
    track_from_json,
    track_to_json,
    weight_cone,
)


def loop_track(cls=(0, 1)):
    return TorusTrainTrack((Branch(*cls, label="loop"),), ())


def rung_on_circle(cls_s1=(0, 1), cls_s2=(0, 0), cls_r=(1, 0)):
    """A circle split in two by a rung whose both cusps face the same way:
    both switch equations read w(s1) = w(s2) + w(r)."""
    branches = (
        Branch(*cls_s1, label="s1"),
        Branch(*cls_s2, label="s2"),
        Branch(*cls_r, label="r"),
    )
    switches = (
        Switch(single=(0, TAIL), double=((1, HEAD), (2, HEAD)), label="sw1"),
        Switch(single=(0, HEAD), double=((1, TAIL), (2, TAIL)), label="sw2"),
    )
    return TorusTrainTrack(branches, switches)


def test_weight_cone_single_loop():
    assert cycle_rays(loop_track()) == [(1,)]
    assert weight_cone(loop_track()) == RayClasses({(0, 1): 1}, 1)


def test_weight_cone_rung_on_circle_by_hand():
    # Hand solution of w1 = w2 + w3: extreme rays (1,1,0) and (1,0,1).
    assert cycle_rays(rung_on_circle()) == [(1, 0, 1), (1, 1, 0)]
    assert weight_cone(rung_on_circle()) == RayClasses({(1, 1): 0b101, (0, 1): 0b110}, 2)


def test_validate_errors():
    with pytest.raises(ValueError, match="disconnected"):
        TorusTrainTrack((Branch(0, 1), Branch(0, 1)), ())
    with pytest.raises(ValueError, match="orientations"):
        TorusTrainTrack(
            (Branch(0, 1), Branch(0, 0), Branch(1, 0)),
            (
                Switch(single=(0, TAIL), double=((1, HEAD), (2, TAIL))),
                Switch(single=(0, HEAD), double=((1, TAIL), (2, HEAD))),
            ),
        )
    with pytest.raises(ValueError, match="one attached end"):
        TorusTrainTrack(
            (Branch(0, 1), Branch(0, 0), Branch(1, 0), Branch(1, 1)),
            (
                Switch(single=(0, TAIL), double=((1, HEAD), (2, HEAD))),
                Switch(single=(0, HEAD), double=((1, TAIL), (3, TAIL))),
            ),
        )


def test_carried_slopes_single_loop():
    cs = carried_slopes(loop_track())
    assert cs.kind == "single" and cs.slope == ProjectiveSlope.of(0)


def test_carried_slopes_two_ray_arc():
    # Extreme classes (1,0) and (1,2): the arc between inf and 1/2.
    track = rung_on_circle(cls_s1=(1, 0), cls_s2=(0, 2), cls_r=(0, 0))
    cs = carried_slopes(track)
    assert cs.kind == "arc"
    assert cs.arc.endpoints() == {INFINITY, ProjectiveSlope.of(1, 2)}
    assert cs.arc.closed_a and cs.arc.closed_b
    assert cs.contains_class((1, 1)) and cs.contains_class((2, 1))
    assert not cs.contains_class((0, 1)) and not cs.contains_class((-1, 1))


def test_no_carried_set_holds_the_zero_class():
    empty = CarriedSlopes("empty")
    assert not empty.contains_class((1, 0)) and not empty.contains_class((0, 0))
    assert CarriedSlopes("all").contains_class((1, 0))
    assert not CarriedSlopes("all").contains_class((0, 0))


def test_carried_slopes_degenerate_single():
    # Both extreme rays map to the longitude class.
    track = rung_on_circle(cls_s1=(0, 1), cls_s2=(0, 0), cls_r=(0, 0))
    cs = carried_slopes(track)
    assert cs.kind == "single" and cs.slope == ProjectiveSlope.of(0)


def test_integral_classes_single_loop():
    out = integral_carried_classes(loop_track(), 3)
    assert [cls for cls, _ in out] == [(0, 1), (0, 2), (0, 3)]


def test_integral_classes_empty_track():
    empty = TorusTrainTrack((), ())
    assert integral_carried_classes(empty, 3) == []


def test_integral_classes_bound_guard():
    with pytest.raises(ValueError):
        integral_carried_classes(loop_track(), 13)


def test_integral_classes_inside_carried_arc():
    track = rung_on_circle(cls_s1=(1, 0), cls_s2=(0, 2), cls_r=(0, 0))
    cs = carried_slopes(track)
    out = integral_carried_classes(track, 8)
    assert out
    for cls, weights in out:
        assert cs.contains_class(cls)
        # The recorded weight vector really satisfies the switch conditions.
        assert weights[0] == weights[1] + weights[2]


def test_build_structural_sizes():
    track = build_boundary_track(DegeneracyLocus(2, 1), 1)
    circle_segments = [b for b in track.branches if b.label.startswith("circle")]
    rungs = [b for b in track.branches if b.label.startswith("rung")]
    assert len(rungs) == 2
    assert len(circle_segments) == 4
    assert len(track.switches) == 4


def test_build_rejects_preserving_parity():
    with pytest.raises(ValueError, match="reversing"):
        build_boundary_track(DegeneracyLocus(4, 2), 1)


def test_build_design_targets():
    # The carried arc must end exactly at p/(q+c) and p/(q-c).
    for p, q, c in [(2, 1, 1), (4, 1, 1), (4, -1, 1), (6, 1, 3)]:
        track = build_boundary_track(DegeneracyLocus(p, q), c)
        cs = carried_slopes(track)
        assert cs.kind == "arc"
        want = {ProjectiveSlope.of(p, q + c), ProjectiveSlope.of(p, q - c)}
        assert cs.arc.endpoints() == want, (p, q, c)
        assert cs.arc.closed_a and cs.arc.closed_b
        # The degeneracy slope is never carried.
        assert not cs.contains_class((p, q))


def test_build_even_orbit_length_documented_sizes():
    # Odd q forces odd c geometrically; for even c the builder still produces
    # a coherent track, whose carried arc ends one slot short of the odd-c
    # pattern.  Computed values are pinned here as the documented finding.
    track = build_boundary_track(DegeneracyLocus(4, 1), 2)
    cs = carried_slopes(track)
    assert cs.kind == "arc"
    assert cs.arc.endpoints() == {ProjectiveSlope.of(1), ProjectiveSlope.of(-2)}


def test_build_mirror_symmetry():
    for p, q, c in [(4, 1, 1), (6, 1, 1), (8, 3, 1), (6, 1, 3)]:
        cs = carried_slopes(build_boundary_track(DegeneracyLocus(p, q), c))
        mirrored = carried_slopes(build_boundary_track(DegeneracyLocus(p, -q), c))
        want = {
            ProjectiveSlope.of(-s.num, s.den)
            for s in (cs.arc.end_a, cs.arc.end_b)
        }
        assert mirrored.arc.endpoints() == want


def test_build_switch_structure():
    # At every foot the rung end sits on the cusped (double) side and the
    # smooth side is a circle segment.
    for p, q, c in [(2, 1, 1), (4, -1, 1), (6, 1, 3)]:
        track = build_boundary_track(DegeneracyLocus(p, q), c)
        for sw in track.switches:
            single_label = track.branches[sw.single[0]].label
            double_labels = {track.branches[bid].label.split("[")[0] for bid, _ in sw.double}
            assert single_label.startswith("circle")
            assert "rung" in double_labels


def test_kernel_dimension_matches_rank():
    # dim of the weight cone's span == #branches - rank(switch matrix).
    from fractions import Fraction as F

    def rank(rows):
        rows = [[F(x) for x in row] for row in rows]
        r = 0
        for col in range(len(rows[0]) if rows else 0):
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [x / rows[r][col] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    from dehnfill.tracks import _switch_equations

    for p, q, c in [(2, 1, 1), (4, 1, 1), (4, 1, 2)]:
        track = build_boundary_track(DegeneracyLocus(p, q), c)
        rays = cycle_rays(track)
        span = rank([list(r) for r in rays])
        expected = len(track.branches) - rank(_switch_equations(track))
        assert span == expected


def test_random_tracks_validate_and_oracle():
    for seed in range(60):
        track = random_track(seed)
        assert len(track.branches) <= 12
        cs = carried_slopes(track)
        for cls, _ in integral_carried_classes(track, 6):
            if cls == (0, 0):
                continue
            assert cs.contains_class(cls), (seed, cls, cs)


def test_config_presets_and_validation():
    with pytest.raises(ValueError):
        EndpointConfig(lower_out=Fraction(1, 4), lower_in=Fraction(1, 4))
    cfg = EndpointConfig(phase=1)
    track = build_boundary_track(DegeneracyLocus(4, 1), 1, cfg)
    cs = carried_slopes(track)
    # Phase flip relabels the feet; the carried arc is unchanged.
    assert cs.arc.endpoints() == {ProjectiveSlope.of(2), INFINITY}


def test_json_roundtrip_bit_exact():
    track = build_boundary_track(DegeneracyLocus(4, 1), 1)
    doc = track_to_json(track)
    text = json.dumps(doc, indent=2)
    again = track_to_json(track_from_json(json.loads(text)))
    assert json.dumps(again, indent=2) == text


@st.composite
def relabelled_tracks(draw):
    """A random or built track's switch structure, with new branch classes
    and labels: neither enters the track's validity."""
    if draw(st.booleans()):
        shape = random_track(draw(st.integers(0, 10**6)))
    else:
        p = draw(st.sampled_from([2, 4, 6]))
        q = draw(st.sampled_from([q for q in range(-p // 2 + 1, p // 2 + 1) if q % 2]))
        c = draw(st.sampled_from([1, 3]))
        preset = draw(st.sampled_from(sorted(CONFIG_PRESETS)))
        shape = build_boundary_track(DegeneracyLocus(p, q), c, CONFIG_PRESETS[preset])
    classes = st.integers(-(2**70), 2**70)
    branches = tuple(
        Branch(draw(classes), draw(classes), draw(st.text(max_size=4))) for _ in shape.branches
    )
    switches = tuple(
        Switch(sw.single, sw.double, draw(st.text(max_size=4))) for sw in shape.switches
    )
    return TorusTrainTrack(branches, switches)


@settings(max_examples=60, deadline=None)
@given(relabelled_tracks())
def test_generated_tracks_roundtrip_bit_exact(track):
    text = json.dumps(track_to_json(track), indent=2)
    again = track_from_json(json.loads(text))
    assert again == track
    assert json.dumps(track_to_json(again), indent=2) == text


@st.composite
def switch_structures(draw):
    """A random or built track's branches and switches, where each ``0`` or
    ``1`` among the switch ends may be ``False`` or ``True``, which equal
    them."""
    if draw(st.booleans()):
        shape = random_track(draw(st.integers()))
    else:
        p = draw(st.sampled_from([2, 4]))
        c = draw(st.sampled_from([1, 2]))
        preset = draw(st.sampled_from(sorted(CONFIG_PRESETS)))
        shape = build_boundary_track(DegeneracyLocus(p, 1), c, CONFIG_PRESETS[preset])
    flip = st.booleans() if draw(st.booleans()) else st.just(False)

    def end(e):
        return tuple(bool(x) if x in (0, 1) and draw(flip) else x for x in e)

    switches = tuple(
        Switch(end(sw.single), (end(sw.double[0]), end(sw.double[1])), sw.label)
        for sw in shape.switches
    )
    return shape.branches, switches


@settings(max_examples=200, deadline=None)
@given(switch_structures())
def test_every_track_that_validates_round_trips(structure):
    try:
        track = TorusTrainTrack(*structure)
    except ValueError as exc:
        assert "references a bad end" in str(exc)
        return
    text = json.dumps(track_to_json(track), indent=2)
    again = track_from_json(json.loads(text))
    assert again == track
    assert json.dumps(track_to_json(again), indent=2) == text


@pytest.mark.parametrize(
    "cls",
    [(0.5, 0), (0, 1.0), (Fraction(1), 0), ("1", 0), (0, "2"), (True, 0), (0, False), (None, 1)],
)
def test_branch_class_is_two_exact_ints(cls):
    # A float class reached track_to_json, and carried_slopes raised
    # AttributeError on it; a bool was written as true.
    with pytest.raises(ValueError, match=re.escape(repr(cls))):
        Branch(*cls)


def test_weight_cone_rays_are_feasible_and_extreme():
    # Independent certificate: every returned ray satisfies the switch
    # equations with nonnegative entries, and its active constraints
    # (equalities plus its zero coordinates) have rank n - 1, which is the
    # extremality criterion for a pointed cone.
    from fractions import Fraction as F

    from dehnfill.tracks import _switch_equations

    def rank(rows, n):
        rows = [[F(x) for x in row] for row in rows]
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [x / rows[r][col] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    tracks = [
        build_boundary_track(DegeneracyLocus(2, 1), 1),
        build_boundary_track(DegeneracyLocus(4, 1), 1),
        rung_on_circle(),
    ] + [random_track(seed) for seed in range(25)]
    for track in tracks:
        n = len(track.branches)
        eqs = _switch_equations(track)
        rays = cycle_rays(track)
        assert len(set(rays)) == len(rays)
        for ray in rays:
            assert all(x >= 0 for x in ray) and any(x > 0 for x in ray)
            assert all(sum(c * x for c, x in zip(row, ray)) == 0 for row in eqs)
            active = [list(row) for row in eqs]
            for i, x in enumerate(ray):
                if x == 0:
                    active.append([1 if j == i else 0 for j in range(n)])
            assert rank(active, n) == n - 1

