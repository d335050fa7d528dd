"""The cycle-enumeration weight cone against references that do not share
its method: the double-description oracle, a digest of ``track slopes``
output captured while the library still used the double description, and
the boundary-track design target over the whole odd-q grid.  The
series-reduced search is also checked against the same search run on the
unreduced switch graph."""

import contextlib
import hashlib
import io
import json
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cone_oracle import cycle_masks, cycle_rays, double_description, unreduced_cycle_masks
from dehnfill.cli import main
from dehnfill.monodromy import DegeneracyLocus
from dehnfill.slopes import ProjectiveSlope
from dehnfill.tracks import (
    CONFIG_PRESETS,
    HEAD,
    TAIL,
    Branch,
    Switch,
    TorusTrainTrack,
    build_boundary_track,
    carried_slopes,
    random_track,
    track_to_json,
    weight_cone,
)


def reversing_loci(max_p):
    """Canonical loci ``(p; q)`` with even ``p <= max_p`` and odd ``q``."""
    return [
        (p, q)
        for p in range(2, max_p + 1, 2)
        for q in range(-p // 2 + 1, p // 2 + 1)
        if q % 2
    ]


def built(p, q, c):
    return [
        build_boundary_track(DegeneracyLocus(p, q), c, CONFIG_PRESETS[name])
        for name in sorted(CONFIG_PRESETS)
    ]


def test_cycle_rays_match_double_description_on_random_tracks():
    for seed in range(1000):
        track = random_track(seed)
        rays = cycle_rays(track)
        assert rays == double_description(track), seed
        assert len(weight_cone(track)) == len(rays)


def test_cycle_rays_match_double_description_on_built_tracks():
    # Every built track with at most 36 branches, even orbit lengths included:
    # they are valid tracks even where they miss the design target.
    cases = [
        (p, q, c)
        for p, q in reversing_loci(12)
        for c in range(1, 36 // (3 * p) + 1)
    ]
    assert len(cases) == 33
    for p, q, c in cases:
        for track in built(p, q, c):
            rays = cycle_rays(track)
            assert rays == double_description(track), (p, q, c)
            assert len(weight_cone(track)) == len(rays)


def test_reduced_search_matches_unreduced_on_random_tracks():
    for seed in range(3000):
        track = random_track(seed)
        assert cycle_masks(track) == unreduced_cycle_masks(track), seed


def track_of(*edges):
    """The track whose branch ``b`` runs from switch ``edges[b][0]`` to switch
    ``edges[b][1]``; each switch has one branch on one side and two on the
    other, and every class is zero."""
    ends = {}
    for b, (u, w) in enumerate(edges):
        ends.setdefault(u, []).append((b, TAIL))
        ends.setdefault(w, []).append((b, HEAD))
    switches = []
    for v in sorted(ends):
        tails = [e for e in ends[v] if e[1] == TAIL]
        heads = [e for e in ends[v] if e[1] == HEAD]
        single, double = (tails[0], heads) if len(tails) == 1 else (heads[0], tails)
        switches.append(Switch(single=single, double=tuple(double)))
    return TorusTrainTrack(tuple(Branch(0, 0) for _ in edges), tuple(switches))


# Hand-made tracks for each way a splice can end, with their cycles as sets
# of branches.
SPLICE_CASES = {
    # 0 -> 1 -> 0 and 2 -> 3 -> 2 each become a self-loop of one switch.
    "two_cycles_become_self_loops": (
        track_of((0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)),
        [{0, 1}, {3, 4}, {0, 2, 3, 5}],
    ),
    # Branches 1, 2 and branches 4, 5 are parallel: four cycles, one per pair.
    "parallel_branches": (
        track_of((0, 1), (1, 2), (1, 2), (2, 3), (3, 0), (3, 0)),
        [{0, 1, 3, 4}, {0, 1, 3, 5}, {0, 2, 3, 4}, {0, 2, 3, 5}],
    ),
    "unattached_loop": (TorusTrainTrack((Branch(0, 1),), ()), [{0}]),
    # Every cycle runs through branch 0, so the splices leave one switch
    # carrying all three cycles as self-loops.
    "one_switch_with_self_loops": (
        track_of((0, 1), (1, 0), (1, 2), (2, 3), (2, 3), (3, 0)),
        [{0, 1}, {0, 2, 3, 5}, {0, 2, 4, 5}],
    ),
    "no_cycle": (TorusTrainTrack((), ()), []),
}


@pytest.mark.parametrize("name", sorted(SPLICE_CASES))
def test_reduced_search_on_splice_edge_cases(name):
    track, cycles = SPLICE_CASES[name]
    n = len(track.branches)
    want = sorted(sum(1 << (n - 1 - b) for b in cycle) for cycle in cycles)
    assert cycle_masks(track) == want == unreduced_cycle_masks(track)
    assert cycle_rays(track) == double_description(track)


@st.composite
def trivalent_tracks(draw):
    """Tracks of ``k <= 8`` switches whose smooth side is a tail and ``k``
    whose smooth side is a head, joined by ``3k`` branches at random."""
    k = draw(st.integers(1, 8))
    tails = [(b, TAIL) for b in draw(st.permutations(range(3 * k)))]
    heads = [(b, HEAD) for b in draw(st.permutations(range(3 * k)))]
    switches = [
        Switch(single=tails[i], double=(heads[2 * i], heads[2 * i + 1])) for i in range(k)
    ] + [
        Switch(single=heads[2 * k + i], double=(tails[k + 2 * i], tails[k + 2 * i + 1]))
        for i in range(k)
    ]
    try:
        return TorusTrainTrack(tuple(Branch(0, 0) for _ in range(3 * k)), tuple(switches))
    except ValueError:  # disconnected
        assume(False)


@given(
    st.one_of(
        st.builds(random_track, st.integers(min_value=0)),
        trivalent_tracks(),
    )
)
def test_reduced_search_matches_unreduced_on_generated_tracks(track):
    assert cycle_masks(track) == unreduced_cycle_masks(track)


# Tracks whose ``track slopes`` output is pinned by GOLDEN_SLOPES_SHA256, a
# digest taken with the double-description implementation.
GOLDEN_RANDOM_SEEDS = range(400)
GOLDEN_BUILT = [(2, 1, 1), (4, -1, 1), (6, 3, 1), (8, 3, 1), (2, 1, 3), (6, 1, 3)]
GOLDEN_SLOPES_SHA256 = "b969c7f9c67c851344775bc7760dc1380283139aa51ce4048093fab89f9f9caa"


def track_slopes_digest(workdir):
    """sha256 over the stdout of ``track slopes`` for every golden track."""
    tracks = [random_track(seed) for seed in GOLDEN_RANDOM_SEEDS]
    for p, q, c in GOLDEN_BUILT:
        tracks.extend(built(p, q, c))
    digest = hashlib.sha256()
    path = workdir / "track.json"
    for track in tracks:
        path.write_text(json.dumps(track_to_json(track)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["track", "slopes", "--input", str(path)]) == 0
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


def test_track_slopes_output_matches_golden_digest(tmp_path):
    assert track_slopes_digest(tmp_path) == GOLDEN_SLOPES_SHA256


# The design-target sweep and its budget.  (8; q) with c = 3 took 13-24 s a
# case with the double description; the whole sweep takes about two seconds
# with the series-reduced cycle search on a 2-core machine.
SWEEP = [
    (p, q, c)
    for c, max_p in ((1, 16), (3, 10), (5, 6), (7, 4), (9, 4), (11, 2))
    for p, q in reversing_loci(max_p)
]
SWEEP_BUDGET_S = 10.0


def test_reduced_search_matches_unreduced_over_the_sweep():
    for p, q, c in SWEEP:
        for track in built(p, q, c):
            assert cycle_masks(track) == unreduced_cycle_masks(track), (p, q, c)


def test_design_target_sweep_within_budget():
    start = time.perf_counter()
    failures = []
    for p, q, c in SWEEP:
        want = {ProjectiveSlope.of(p, q + c), ProjectiveSlope.of(p, q - c)}
        for track in built(p, q, c):
            cs = carried_slopes(track)
            if (
                cs.kind != "arc"
                or cs.arc.endpoints() != want
                or not (cs.arc.closed_a and cs.arc.closed_b)
                or cs.contains_class((p, q))
            ):
                failures.append((p, q, c, cs))
    elapsed = time.perf_counter() - start
    assert len(SWEEP) == 64
    assert not failures, failures[:3]
    assert elapsed < SWEEP_BUDGET_S, elapsed
