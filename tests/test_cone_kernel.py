"""The cycle-enumeration weight cone against references that do not share
its method: the double-description oracle, a digest of ``track slopes``
output captured while the library still used the double description, and
the boundary-track design target over the whole odd-q grid."""

import contextlib
import hashlib
import io
import json
import time

from cone_oracle import double_description
from dehnfill.cli import main
from dehnfill.monodromy import DegeneracyLocus
from dehnfill.slopes import ProjectiveSlope
from dehnfill.tracks import (
    CONFIG_PRESETS,
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


def as_vectors(masks, n):
    return [tuple((m >> (n - 1 - b)) & 1 for b in range(n)) for m in masks]


def test_cycle_rays_match_double_description_on_random_tracks():
    for seed in range(1000):
        track = random_track(seed)
        rays = weight_cone(track)
        assert rays == double_description(track), seed
        assert as_vectors(weight_cone(track, masks=True), track.n_branches) == rays


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
            rays = weight_cone(track)
            assert rays == double_description(track), (p, q, c)
            assert as_vectors(weight_cone(track, masks=True), track.n_branches) == rays


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
# case with the double description; the whole sweep takes about a second
# with the cycle enumeration on a 2-core machine.
SWEEP = [
    (p, q, c)
    for c, max_p in ((1, 12), (3, 8), (5, 6), (7, 4))
    for p, q in reversing_loci(max_p)
]
SWEEP_BUDGET_S = 10.0


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
    assert len(SWEEP) == 40
    assert not failures, failures[:3]
    assert elapsed < SWEEP_BUDGET_S, elapsed
