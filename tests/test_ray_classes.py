"""``carried_slopes`` sums each ray's class as the cycle search closes it and
keeps one least mask per class.  It is held here to ``mask_carried_slopes``,
the computation from the sorted list of every ray's mask, on random, built
and hand-weighted tracks, and its memory is held to a bound that a list of
the masks would break."""

import tracemalloc

from cone_oracle import cycle_masks, mask_carried_slopes
from hypothesis import given
from hypothesis import strategies as st
from test_cone_kernel import SWEEP, built

from dehnfill.monodromy import DegeneracyLocus
from dehnfill.tracks import (
    Branch,
    TorusTrainTrack,
    build_boundary_track,
    carried_slopes,
    random_track,
    weight_cone,
)


def agrees(track):
    """Equal to the oracle in every field, ``extreme_rays`` (the number of
    masks the oracle lists) among them."""
    cs = carried_slopes(track)
    assert cs == mask_carried_slopes(track)
    return cs


def test_matches_mask_oracle_on_random_tracks():
    # Among them the seeds whose ``track slopes`` output test_cli_golden.py
    # pins; its (4; 1) track with c = 5 is in the sweep.
    kinds = set()
    for seed in range(3000):
        kinds.add(agrees(random_track(seed)).kind)
    assert kinds == {"empty", "single", "arc", "all"}


def test_matches_mask_oracle_over_the_sweep():
    assert len(SWEEP) == 64
    for p, q, c in SWEEP:
        for track in built(p, q, c):
            assert agrees(track).kind == "arc", (p, q, c)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.tuples(st.integers(), st.integers()), min_size=6, max_size=6),
)
def test_matches_mask_oracle_with_any_branch_classes(seed, classes):
    # Unbounded and negative coordinates, so the packed class field of each
    # label must widen with them.
    track = random_track(seed)
    branches = tuple(Branch(a, b) for (a, b), _ in zip(classes, track.branches))
    agrees(TorusTrainTrack(branches, track.switches))


def least_masks(track):
    """Each class with the least mask among its rays, in the order of those
    masks, from the list of every mask."""
    n = len(track.branches)
    least = {}
    for m in cycle_masks(track):  # ascending
        on = [br for b, br in enumerate(track.branches) if m >> (n - 1 - b) & 1]
        least.setdefault((sum(br.a for br in on), sum(br.b for br in on)), m)
    return least


def test_ray_classes_keep_the_least_mask_of_each_class():
    tracks = [random_track(seed) for seed in range(200)] + built(6, 1, 3) + built(4, 1, 5)
    for track in tracks:
        cone = weight_cone(track)
        assert len(cone) == len(cycle_masks(track))
        assert list(cone.least.items()) == list(least_masks(track).items())


def test_memory_does_not_grow_with_the_rays():
    # (10; 1) with c = 3 has 13,958 rays and 12 classes.  A list of their
    # masks peaks at about 720 KB; one least mask per class at about 70 KB.
    track = build_boundary_track(DegeneracyLocus(10, 1), 3)
    tracemalloc.start()
    try:
        cs = carried_slopes(track)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs.kind == "arc" and cs.extreme_rays == 13958
    assert peak < 256 * 1024, peak
