"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion report."""

import json
import time
from math import gcd

import pytest

from dehnfill.census import census_verify
from dehnfill.cli import main as cli_main
from dehnfill.filling import excluded_window, guaranteed_interval
from dehnfill.ladders import kernel_backend, verify_ladders
from dehnfill.monodromy import DegeneracyLocus, locus_distance
from dehnfill.slopes import (
    INFINITY,
    ProjectiveSlope,
    canonical_meridian,
)
from dehnfill.tracks import (
    build_boundary_track,
    carried_slopes,
    integral_carried_classes,
    random_track,
)


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("criterion %-28s %s in %6.2fs%s" % (criterion, status, elapsed, suffix))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


def reduced_slopes(bound):
    out = [INFINITY]
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(abs(a), b) == 1:
                out.append(ProjectiveSlope(a, b))
    return out


def sweep_loci():
    for p in range(2, 13, 2):
        for q in range(-(p // 2) + 1, p // 2 + 1):
            if q % 2 != 0:
                yield DegeneracyLocus(p, q)


EXPECTED_CENSUS = {
    "m122": ("2", "inf", "ExactMatch"),
    "m280": ("-2", "inf", "ExactMatch"),
    "v0751": ("-3", "inf", "ExactMatch"),
    "v0173": ("5", "inf", "ExactMatch"),
    "o9_00008": ("6", "inf", "ExactMatch"),
    "m146": ("5", "inf", "ExactMatch"),
    "v2585": ("7", "inf", "ExactMatch"),
    "m303": ("9", "inf", "ExactMatch"),
    "s520": ("11", "inf", "ExactMatch"),
    "v1206": ("13", "inf", "ExactMatch"),
    "t02779": ("15", "inf", "ExactMatch"),
    "o9_06362": ("17", "inf", "ExactMatch"),
    "o9_26541": ("-4", "-2", "ExactMatch"),
    "o9_19364": ("24", "inf", "ClosureNote"),
    "m003": ("1", "inf", "ClosureNote"),
}


def test_criterion_1_census_reproduction():
    start = time.perf_counter()
    records = census_verify()
    elapsed = time.perf_counter() - start
    ok = len(records) == 15
    for record in records:
        end_a, end_b, status = EXPECTED_CENSUS[record.name]
        got = {str(record.computed.end_a), str(record.computed.end_b)}
        if got != {end_a, end_b} or record.status != status:
            ok = False
    ok = ok and elapsed < 1.0
    _report("1 census-reproduction", ok, elapsed, "15 rows")


@pytest.fixture(scope="module")
def distance_sweep():
    slopes = reduced_slopes(60)
    dist1_in_J = []
    window_meets_J = []
    dist2_in_J = []
    start = time.perf_counter()
    for locus in sweep_loci():
        p, q = locus.p, locus.q
        window = excluded_window(locus)
        for c in (1, 2, 3):
            J = guaranteed_interval(locus, c)
            for s in slopes:
                inside = J.contains(s)
                if not inside:
                    continue
                d = abs(p * s.den - q * s.num)
                if d == 1:
                    dist1_in_J.append((p, q, c, s))
                if d == 2:
                    dist2_in_J.append((p, q, s))
                if window.contains(s):
                    window_meets_J.append((p, q, c, s))
    elapsed = time.perf_counter() - start
    return dist1_in_J, window_meets_J, dist2_in_J, elapsed


def test_criterion_2_low_distance_outside_interval(distance_sweep):
    dist1_in_J, _, _, elapsed = distance_sweep
    ok = not dist1_in_J and elapsed < 10.0
    _report(
        "2 distance-one-sweep",
        ok,
        elapsed,
        "%d counterexamples" % len(dist1_in_J),
    )


def test_criterion_3_window_disjoint_from_interval(distance_sweep):
    _, window_meets_J, _, elapsed = distance_sweep
    _report(
        "3 window-disjointness",
        not window_meets_J,
        elapsed,
        "%d overlaps" % len(window_meets_J),
    )


def test_criterion_4_distance_two_classification(distance_sweep):
    _, _, dist2_in_J, elapsed = distance_sweep
    hits = {(p, q, s) for p, q, s in dist2_in_J}
    ok = hits == {(2, 1, ProjectiveSlope.of(0))}
    _report("4 distance-two-hits", ok, elapsed, "hits=%s" % sorted(hits))


def test_criterion_5_canonical_meridian_exhaustive():
    start = time.perf_counter()
    ok = True
    for u in range(1, 41):
        for v in range(-80, 81):
            if gcd(u, abs(v)) != 1:
                continue
            _, new = canonical_meridian(ProjectiveSlope.of(u, v))
            uu, vv = (new.num, new.den) if new.num > 0 else (-new.num, -new.den)
            if uu != u or 2 * abs(vv) > u:
                ok = False
            if 2 * abs(vv) == u and (u != 2 or vv != 1):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("5 canonical-meridian", ok, elapsed)


def test_criterion_6_ladder_two_line_property():
    start = time.perf_counter()
    summary = verify_ladders(
        cases=10**4, seed=0, max_levels=8, max_rungs_per_gap=6
    )
    elapsed = time.perf_counter() - start
    ok = summary["violations"] == 0 and elapsed < 60.0
    _report(
        "6 ladder-two-line",
        ok,
        elapsed,
        "%d paths, backend %s" % (summary["total_paths"], kernel_backend()),
    )


def test_criterion_7_weight_cone_vs_enumeration():
    start = time.perf_counter()
    built = [
        build_boundary_track(DegeneracyLocus(2, 1), 1),
        build_boundary_track(DegeneracyLocus(4, 1), 1),
        build_boundary_track(DegeneracyLocus(4, -1), 1),
    ]
    randoms = [random_track(seed) for seed in range(100)]
    violations = []
    for track in built + randoms:
        assert len(track.branches) <= 12
        cs = carried_slopes(track)
        for cls, weights in integral_carried_classes(track, 8):
            if cls == (0, 0):
                continue
            if not cs.contains_class(cls):
                violations.append((track.branches, cls))
    elapsed = time.perf_counter() - start
    _report(
        "7 cone-vs-enumeration",
        not violations,
        elapsed,
        "%d tracks" % (len(built) + len(randoms)),
    )


def test_criterion_8_boundary_track_design_target():
    # Exploratory by design: the default preset must realize the interval
    # endpoints for these loci, or the failure must surface loudly here.
    start = time.perf_counter()
    cases = [(2, 1, 1), (4, 1, 1), (4, -1, 1), (6, 1, 3)]
    failures = []
    for p, q, c in cases:
        track = build_boundary_track(DegeneracyLocus(p, q), c)
        cs = carried_slopes(track)
        want = {ProjectiveSlope.of(p, q + c), ProjectiveSlope.of(p, q - c)}
        if cs.kind != "arc" or cs.arc.endpoints() != want:
            failures.append(((p, q, c), cs))
    elapsed = time.perf_counter() - start
    _report(
        "8 boundary-track-targets",
        not failures,
        elapsed,
        "default config, %d cases" % len(cases),
    )


def test_criterion_9_cli_determinism(capsys):
    commands = [
        ["interval", "--locus", "4,1", "--orbit-length", "1"],
        ["analyze", "--locus", "2,1", "--orbit-length", "1", "--slope", "0"],
        ["census", "list"],
        ["census", "verify"],
        ["track", "build", "--locus", "6,1", "--orbit-length", "3"],
        ["ladder", "verify", "--cases", "50", "--seed", "9"],
        ["coords", "canonical", "--delta", "6/7"],
    ]
    start = time.perf_counter()
    ok = True
    for argv in commands:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            ok = False
        if not json.loads(out1):
            ok = False
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report("9 cli-determinism", ok, elapsed, "%d commands" % len(commands))
