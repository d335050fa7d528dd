"""Golden digests of the ladder pipeline, pinned before rung positions became
integers and before each ladder was encoded only once.

Both kernels must reproduce them: the pure-Python one and the compiled one
built from the committed C.  A change to ladder generation, encoding, path
decoding, the scan or the separation check that alters any output breaks a
digest here.
"""

import hashlib
import json

import pytest

from dehnfill import _ladder, _ladder_py
from dehnfill.ladders import (
    check_two_line_property,
    enumerate_carried_paths,
    random_ladder,
    separation_check,
    verify_ladders,
)

# verify_ladders(1, seed=s) for s in 0..999, geometric then control ladders,
# without the backend field.
SUMMARIES_DIGEST = "5dc0faf71cbb3b989093418623689a97586e6a98078295af94c3452b95f3f9db"
# Paths, truncation flags, separation verdicts and two-line verdicts of the
# small ladders in SMALL_LADDERS.
PATHS_DIGEST = "12fbc086ab4403916e80f0fc020463bb0250207cb5127d8af92da520e2d90aa4"

SMALL_LADDERS = [
    (seed, alternating, step_bound)
    for seed in range(60)
    for alternating in (True, False)
    for step_bound in (10**4, 5)
]


@pytest.fixture(params=["python", "compiled"])
def kernel(request, monkeypatch):
    """Route every ladder scan through one backend for the test."""
    if request.param == "python":
        module = _ladder_py
    else:
        module = request.getfixturevalue("compiled_kernel")
    monkeypatch.setattr(_ladder, "scan_ladder", module.scan_ladder)


def summaries_digest():
    digest = hashlib.sha256()
    for alternating in (True, False):
        for seed in range(1000):
            summary = verify_ladders(1, seed=seed, alternating=alternating)
            del summary["backend"]
            digest.update(json.dumps(summary, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def paths_digest():
    digest = hashlib.sha256()
    for seed, alternating, step_bound in SMALL_LADDERS:
        track = random_ladder(seed, max_levels=5, max_rungs_per_gap=3, alternating=alternating)
        paths = [
            [path.steps, path.truncated, separation_check(track, path)]
            for path in enumerate_carried_paths(track, step_bound)
        ]
        ok, witnesses = check_two_line_property(track, step_bound)
        record = [seed, alternating, step_bound, paths, ok, [w.steps for w in witnesses]]
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def test_verify_summaries_match_golden(kernel):
    assert summaries_digest() == SUMMARIES_DIGEST


def test_paths_and_verdicts_match_golden(kernel):
    assert paths_digest() == PATHS_DIGEST
