"""Golden digests of CLI stdout on fixed inputs.

Each entry pins the exit code and the sha256 of stdout of one command: the
criterion-9 commands (except ``ladder verify``, whose output names the kernel
backend; seeded ladders are pinned in ``test_ladder_golden.py``), ``arcs
refine`` and ``arcs validate`` on fixed boundary data, and ``track build`` and
``track slopes`` for each endpoint preset, ``track slopes`` on ``(4;1)`` c=5
and on seeded random tracks of every kind, a 9,000-branch track, and a
partial ``analyze`` report as JSON and as text.  A refactor that changes any
byte of valid output breaks a digest here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from dehnfill.cli import main
from dehnfill.tracks import random_track, track_to_json

CRITERION_9 = {
    "interval": ["interval", "--locus", "4,1", "--orbit-length", "1"],
    "analyze": ["analyze", "--locus", "2,1", "--orbit-length", "1", "--slope", "0"],
    "census-list": ["census", "list"],
    "census-verify": ["census", "verify"],
    "track-build": ["track", "build", "--locus", "6,1", "--orbit-length", "3"],
    "coords": ["coords", "canonical", "--delta", "6/7"],
}

MONODROMY = {
    "one-circle": {
        "circles": [{"id": "A", "stable_sings": 4}],
        "permutation": {"A": "A"},
        "shifts": {"A": 3},
    },
    "two-cycle": {
        "circles": [{"id": "A", "stable_sings": 4}, {"id": "B", "stable_sings": 4}],
        "permutation": {"A": "B", "B": "A"},
        "shifts": {"A": 1},
    },
    "two-orbits": {
        "circles": [
            {"id": "A", "stable_sings": 2},
            {"id": "B", "stable_sings": 2},
            {"id": "C", "stable_sings": 6},
        ],
        "permutation": {"A": "B", "B": "A", "C": "C"},
        "shifts": {"A": 1, "C": 2},
    },
}

INADMISSIBLE = {
    "schema": "arc_system_v1",
    "circles": [{"id": "A", "stable_sings": 2}],
    "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 0}},
    "arcs": [
        {
            "start": {"circle": "A", "position": "1/4"},
            "end": {"circle": "A", "position": "1/3"},
            "pos_transverse_stable": True,
            "pos_transverse_unstable": False,
        }
    ],
}

PRESETS = ("default", "phase-flipped", "wide")
TRACKS = (("4,1", "1"), ("6,1", "3"))

# Feet at 1/3, 5/7, 13/30 and 43/70: the labels need a common denominator
# of 210, and phase 1 flips which segments are outgoing.
ODD_CONFIG = {"lower_out": "1/3", "lower_in": "5/7", "upper_nudge": "1/10", "phase": 1}
MORE_TRACKS = {
    "track-build-negative-q": ["track", "build", "--locus", "6,-1", "--orbit-length", "3"],
    "track-build-c5": ["track", "build", "--locus", "4,1", "--orbit-length", "5"],
    # 9,000 branches: a deep and wide document.
    "track-build-1000": ["track", "build", "--locus", "1000,1", "--orbit-length", "3"],
}

# track_to_json(random_track(seed)) for each kind of carried set: single (1),
# all (9), empty with the zero class listed once per ray (14), and two arcs
# whose extreme ray holds two parallel classes, (3, 3) and (4, 4) at seed 3,
# (-8, 2) and (-4, 1) at seed 43, so the excluded witness depends on which of
# them is taken.
RANDOM_SEEDS = (1, 3, 9, 14, 43)

# Slope 4 lies outside the interval of (6;1) and slope 1 inside it, so the
# report has an empty and a full "guarantees" list and a non-empty "notes".
PARTIAL = ["analyze", "--locus", "6,1", "--orbit-length", "1", "--slope", "4", "--slope", "1"]
REPORTS = {
    "analyze-partial": PARTIAL,
    "analyze-partial-text": PARTIAL + ["--output", "text"],
}

GOLDEN = {
    "interval": (0, "bfb0ff03a5ff4f585813c82701f88d1d597c8b09ae92dbb1d1775f8b45832717"),
    "analyze": (0, "992e11990c14c4db3df3a05444438d15beac70f388e0aba77161ad818b97b6f8"),
    "census-list": (0, "b49e95cd251136eeecd629635c5c1ae0030c7be4eee4618b74e1753868b7fd49"),
    "census-verify": (0, "d3388752908500293180f3e5d07a1e32dba22b6e44b9b3d77dc3910ebea1fdd2"),
    "track-build": (0, "60fef9ebba57542ed07db9286bdf4baaca8862fba45642897209958b40dda0e4"),
    "coords": (0, "ea4f685f211d17fe3f2ee1d6be2d80d5ce4e2afbf26f692989794a5d00379574"),
    "arcs-refine-one-circle": (0, "135fdacd3ad9735486bb7c496068727ce851db238b0fca8053860b7f96e45ede"),
    "arcs-refine-two-cycle": (0, "8905bedf0d08dc785d776ebf02c07bead3d521bd3f2c9f2d524eb4455c097200"),
    "arcs-refine-two-orbits": (0, "0764c746984fe96c4141f06223de449e626001814b6776ad16cf41fba18e139d"),
    "arcs-validate-one-circle": (0, "c044461f3e3012f6a17699fe4cef87a8e43d3e91ee879b246f0d26ea2310b43c"),
    "arcs-validate-two-cycle": (0, "c044461f3e3012f6a17699fe4cef87a8e43d3e91ee879b246f0d26ea2310b43c"),
    "arcs-validate-two-orbits": (0, "c044461f3e3012f6a17699fe4cef87a8e43d3e91ee879b246f0d26ea2310b43c"),
    "arcs-validate-inadmissible": (1, "e8e936e639e911baff4d316156d09cba35cf6bdd86c9b3a7160fdccd6592550b"),
    "track-build-default-4,1": (0, "9e549633b9f57b6b343cb16f3dddbbfda170af304ada410d69cc4932b03027ca"),
    "track-build-default-6,1": (0, "60fef9ebba57542ed07db9286bdf4baaca8862fba45642897209958b40dda0e4"),
    "track-build-phase-flipped-4,1": (0, "b51b6755ce5be4e58ff64c7b9d67632d99f98e02f74f10c173c23341b5dde2bf"),
    "track-build-phase-flipped-6,1": (0, "fef87b8424b795ac23157a7bf9080f4be99fb7ed6eb9f9c51ee9caa738f6c34a"),
    "track-build-wide-4,1": (0, "eba874a0f53d5ac0065a8ca8362791def70160bfbbb5a8254a008dc78b115485"),
    "track-build-wide-6,1": (0, "02e4e75a2731e0f6fbbc004b8bc471dde8a5c56d64536076830d0b326eb6a987"),
    "track-build-negative-q": (0, "105855a8098ad6bbd7e2c3f66e90f5976b244623a006cda6ad913b97e4eff70e"),
    "track-build-c5": (0, "8374e559f510aa4943f11b62dc02e9314901c2b84a5c6dbf17eb997bd115f8fe"),
    "track-build-1000": (0, "5a7102b6a7063ecf1ce93602a89933077e1d66aad9cecd3ec7dfe50b109d879c"),
    "analyze-partial": (0, "82d4c785fac1a5c9b0c764903edaec7e2385b7ac4797b66f7d62f6b130220617"),
    "analyze-partial-text": (0, "c221fc84f7b02ba4980c3b551afca60287cd1020ec47c21bfc2aac627cb0d7d3"),
    "track-build-odd-config": (0, "da588cc29adfa33a42e89d4dbce84650f5c278188f18ccaf11eb2db5173e20e5"),
    "track-slopes-default-4,1": (0, "349ad61c6e44e01e71858cd157b3f1b0c4dfcef788417589eacec5d43309cecf"),
    "track-slopes-default-6,1": (0, "10ff6fd816b9cf2da0218cd6f672ac8eaad12b2a3aa2a9567d8e339bab6ead70"),
    "track-slopes-phase-flipped-4,1": (0, "349ad61c6e44e01e71858cd157b3f1b0c4dfcef788417589eacec5d43309cecf"),
    "track-slopes-phase-flipped-6,1": (0, "10ff6fd816b9cf2da0218cd6f672ac8eaad12b2a3aa2a9567d8e339bab6ead70"),
    "track-slopes-wide-4,1": (0, "349ad61c6e44e01e71858cd157b3f1b0c4dfcef788417589eacec5d43309cecf"),
    "track-slopes-wide-6,1": (0, "10ff6fd816b9cf2da0218cd6f672ac8eaad12b2a3aa2a9567d8e339bab6ead70"),
    "track-slopes-c5": (0, "54a35bec260fd2b68448f94c1ce447130110c57bef7334ebf7e148eb09bcf5f7"),
    "track-slopes-random-1": (0, "c3ca11c6975a4d8f21b53433fe621e626edd2ebb5f535f098253ec69b9327933"),
    "track-slopes-random-3": (0, "0d593e822f1207a18f7773a3938bb7abf6e13a31338a27ed98235c46cc5c8058"),
    "track-slopes-random-9": (0, "e043bc544ae654c58be94431884bfa17fcd69366e1ec351afeca3e988fc183e4"),
    "track-slopes-random-14": (0, "fd2df88413051ef68083fa6150fdca6054133261ae7da9a768866979ddba1d73"),
    "track-slopes-random-43": (0, "52708340626d6d6b849a16c904378b01d27e3e0369de9307469e173083d63f27"),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Exit code and stdout of every pinned command, by name."""
    tmp = tmp_path_factory.mktemp("golden")
    runs = {name: _run(argv) for name, argv in {**CRITERION_9, **REPORTS}.items()}
    for name, doc in MONODROMY.items():
        mono = _write(tmp / ("mono-%s.json" % name), {"schema": "monodromy_boundary_v1", **doc})
        _, out = runs["arcs-refine-" + name] = _run(["arcs", "refine", "--input", mono])
        arcs = tmp / ("arcs-%s.json" % name)
        arcs.write_text(out)
        runs["arcs-validate-" + name] = _run(["arcs", "validate", "--input", str(arcs)])
    bad = _write(tmp / "inadmissible.json", INADMISSIBLE)
    runs["arcs-validate-inadmissible"] = _run(["arcs", "validate", "--input", bad])
    for preset in PRESETS:
        for locus, c in TRACKS:
            key = "%s-%s" % (preset, locus)
            argv = ["track", "build", "--locus", locus, "--orbit-length", c, "--config", preset]
            _, out = runs["track-build-" + key] = _run(argv)
            track = tmp / ("track-%s.json" % key)
            track.write_text(out)
            runs["track-slopes-" + key] = _run(["track", "slopes", "--input", str(track)])
    for name, argv in MORE_TRACKS.items():
        runs[name] = _run(argv)
    track = tmp / "track-c5.json"
    track.write_text(runs["track-build-c5"][1])
    runs["track-slopes-c5"] = _run(["track", "slopes", "--input", str(track)])
    for seed in RANDOM_SEEDS:
        track = _write(tmp / ("random-%d.json" % seed), track_to_json(random_track(seed)))
        runs["track-slopes-random-%d" % seed] = _run(["track", "slopes", "--input", track])
    config = _write(tmp / "odd-config.json", ODD_CONFIG)
    runs["track-build-odd-config"] = _run(
        ["track", "build", "--locus", "6,1", "--orbit-length", "3", "--config", config]
    )
    return {
        name: (code, hashlib.sha256(out.encode()).hexdigest())
        for name, (code, out) in runs.items()
    }


def test_every_command_is_pinned(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_is_pinned(outputs, name):
    assert outputs[name] == GOLDEN[name]
