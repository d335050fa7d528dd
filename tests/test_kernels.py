"""The compiled ladder kernel and the pure-Python one must agree
step-for-step: same paths, same counts, same witnesses, and for a seeded
ladder the same draw.  The compiled kernel seeds its own MT19937 from the int
seed, the pure-Python one seeds ``random.Random``, so the seeded tests also
hold the C seeding to CPython's.

The compiled kernel is the one built from the committed C by the
``compiled_kernel`` fixture; the tests skip only when no C compiler is found.
"""

import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import time

import pytest
from kernel_build import built_kernels, run_setup
from test_ladder_draw import SEEDS, SIZES

from dehnfill import _ladder_py
from dehnfill.ladders import SIZE_CAP, _draw, _encode, _encode_lists, kernel_backend, random_ladder

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehnfill"


def test_backend_reports(compiled_kernel):
    assert _ladder_py.BACKEND == "python"
    assert compiled_kernel.BACKEND == "c"
    assert kernel_backend() in ("c", "python")


@pytest.mark.parametrize("alternating", [True, False])
def test_backends_agree_exactly(compiled_kernel, alternating):
    for seed in range(200):
        track = random_ladder(seed, alternating=alternating)
        enc = _encode(track)
        assert _ladder_py.scan_track(*enc, 10**4, True) == compiled_kernel.scan_track(
            *enc, 10**4, True
        ), seed


def test_backends_agree_on_summaries(compiled_kernel):
    for seed in range(200, 300):
        track = random_ladder(seed, max_levels=6, max_rungs_per_gap=5)
        enc = _encode(track)
        py = _ladder_py.scan_track(*enc, 10**4, False)
        c = compiled_kernel.scan_track(*enc, 10**4, False)
        assert py[1:] == c[1:]


def test_step_bound_truncation_agrees(compiled_kernel):
    # A tiny bound forces truncation in both kernels identically.
    track = random_ladder(17, max_levels=8, max_rungs_per_gap=6)
    enc = _encode(track)
    py = _ladder_py.scan_track(*enc, 4, True)
    c = compiled_kernel.scan_track(*enc, 4, True)
    assert py == c
    assert py[3] > 0  # some truncated paths exist at bound 4


def test_scan_track_rejects_inconsistent_encodings(compiled_kernel):
    enc = list(_encode(random_ladder(3)))
    for index, value in [(0, [1] + enc[0][1:]), (1, [10**6] * len(enc[1])), (3, [-1] * len(enc[3]))]:
        bad = enc[:index] + [value] + enc[index + 1 :]
        with pytest.raises(ValueError):
            compiled_kernel.scan_track(*bad, 10**4, False)
    with pytest.raises(ValueError, match="inconsistent lengths"):
        compiled_kernel.scan_track(*enc[:3], enc[3][:-1], *enc[4:], 10**4, False)


class WordCounter(random.Random):
    """A generator that counts the words it hands out."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("alternating", [True, False])
@pytest.mark.parametrize("sizes", SIZES)
def test_seeded_scans_agree(compiled_kernel, sizes, alternating):
    """Every seed of the draw tests, both step bounds.  The compiled
    ``scan_ladder`` must give the compiled scan of the Python draw from
    ``Random(seed)`` and its encoding, and the pure-Python ``scan_ladder``
    (draw, encode, scan) wherever that is cheap: at step bound 3, and on the
    (8, 6) ladders of criterion 6 at 10**4.  The tests above hold the two
    scans to each other on full paths."""
    for seed in SEEDS:
        enc = _encode_lists(*_draw(random.Random(seed), *sizes, alternating))
        for step_bound in (3, 10**4):
            got = compiled_kernel.scan_ladder(seed, 1, *sizes, alternating, step_bound)[:6]
            assert got == compiled_kernel.scan_track(*enc, step_bound, False), seed
            if step_bound == 3 or sizes == (8, 6):
                assert got == _ladder_py.scan_track(*enc, step_bound, False), seed


# The edges of the compiled kernel's int conversion: one and two key words,
# the long long range and past it.
EDGE_SEEDS = [0, 1, -1, 2**32 - 1, -(2**32 - 1), 2**32, -(2**32), 2**63 - 1, -(2**63 - 1)]
EDGE_SEEDS += [-(2**63), 2**63, 2**64 - 1, -(2**64 - 1), 2**64 + 7, -(10**30) - 3]


@pytest.mark.parametrize("alternating", [True, False])
def test_seeding_agrees_at_the_edges(compiled_kernel, alternating):
    for seed in EDGE_SEEDS:
        for sizes, step_bound in [((8, 6), 10**4), ((12, 9), 3), ((2, 21), 3)]:
            args = (*sizes, alternating, step_bound)
            assert compiled_kernel.scan_ladder(seed, 1, *args) == _ladder_py.scan_ladder(
                seed, 1, *args
            ), (seed, sizes)
    # bool is an int, and Random(True) is Random(1).
    assert compiled_kernel.scan_ladder(True, 1, 8, 6, alternating, 3) == _ladder_py.scan_ladder(
        1, 1, 8, 6, alternating, 3
    )


# Runs of seeds that cross, inside one block of eight lanes, 0 or a change of
# key length (one word below 2**32, two below 2**64) or of the C int
# conversion (2**63).
BATCH_STARTS = [-4, 2**32 - 4, -(2**32) - 3, 2**63 - 4, -(2**63) - 3, 2**64 - 4, -(2**64) - 3]
# No run at all, tails of 1 to 7 lanes, a full block, and one and two blocks
# with a tail of one.
BATCH_CASES = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17]


def combined(seed, singles):
    """The result of one call over the run of seeds from ``seed`` whose
    single-call results are ``singles``, in order."""
    out = [None, 0, 0, 0, 0, None, 0, None]
    for case, (_, paths, violations, truncated, longest, witness, _, _) in enumerate(singles):
        out[1] += paths
        out[2] += violations
        out[3] += truncated
        out[4] = max(out[4], longest)
        out[6] = max(out[6], paths)
        if violations and out[7] is None:
            out[5], out[7] = witness, seed + case
    return tuple(out)


@pytest.mark.parametrize("alternating", [True, False])
def test_a_call_is_the_sum_of_single_calls(compiled_kernel, alternating):
    args = (8, 6, alternating, 10**4)
    for start in BATCH_STARTS:
        runs = []
        for kernel in (compiled_kernel, _ladder_py):
            singles = [kernel.scan_ladder(seed, 1, *args) for seed in range(start, start + 17)]
            for seed, single in zip(range(start, start + 17), singles):
                assert single == combined(seed, [single]), seed
            runs.append([kernel.scan_ladder(start, cases, *args) for cases in BATCH_CASES])
            for cases, got in zip(BATCH_CASES, runs[-1]):
                assert got == combined(start, singles[:cases]), (kernel.BACKEND, start, cases)
        assert runs[0] == runs[1], start


def test_first_violation_is_the_first_violating_ladders(compiled_kernel):
    # The control ladder of seed 4 breaks no two-line property; seed 5's does.
    for kernel in (compiled_kernel, _ladder_py):
        assert kernel.scan_ladder(4, 1, 8, 6, False, 10**4)[2] == 0
        single = kernel.scan_ladder(5, 1, 8, 6, False, 10**4)
        got = kernel.scan_ladder(4, 3, 8, 6, False, 10**4)
        assert single[2] > 0 and got[7] == 5 and got[5] == single[5]


def test_case_count(compiled_kernel):
    for kernel in (compiled_kernel, _ladder_py):
        assert kernel.scan_ladder(7, 0, 8, 6, True, 3) == (None, 0, 0, 0, 0, None, 0, None)
        with pytest.raises(ValueError, match="cases must be a count >= 0"):
            kernel.scan_ladder(7, -1, 8, 6, True, 3)


class Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize(
    "args",
    [
        # One control ladder at the size cap: no end in sight within minutes.
        (1, 1, SIZE_CAP, SIZE_CAP, False, 10**4),
        # A billion small ladders.
        (0, 10**9, 8, 6, True, 10**4),
    ],
)
def test_a_signal_stops_the_compiled_scan(compiled_kernel, args):
    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            compiled_kernel.scan_ladder(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "seed, sizes, words", [(5, (30, 20), 869), (1, (3, 400), 1384), (77, (60, 40), 3932)]
)
def test_seeded_scans_agree_past_a_twist(compiled_kernel, seed, sizes, words):
    # These draws run through the generator's 624-word state two, three and
    # seven times.
    counter = WordCounter(seed)
    _draw(counter, *sizes, True)
    assert counter.words == words
    for alternating, step_bound in [(True, 10**4), (True, 3), (False, 3)]:
        args = (*sizes, alternating, step_bound)
        assert compiled_kernel.scan_ladder(seed, 1, *args) == _ladder_py.scan_ladder(seed, 1, *args)


@pytest.mark.parametrize("seed", [1.5, 1.0, None, "1", b"1"])
def test_seed_must_be_an_int(compiled_kernel, seed):
    # Random would seed a float, str or bytes from its hash or its bytes.
    for kernel in (compiled_kernel, _ladder_py):
        with pytest.raises(TypeError, match="seed must be an int"):
            kernel.scan_ladder(seed, 1, 8, 6, True, 3)


def test_seeded_scan_at_the_size_cap(compiled_kernel):
    for sizes in [(SIZE_CAP, 0), (2, SIZE_CAP), (SIZE_CAP, SIZE_CAP)]:
        for alternating in (True, False):
            args = (5, 1, *sizes, alternating, 3)
            assert compiled_kernel.scan_ladder(*args) == _ladder_py.scan_ladder(*args)
    for sizes in [(SIZE_CAP + 1, 0), (2, SIZE_CAP + 1), (1, 0), (2, -1)]:
        with pytest.raises(ValueError, match="max_levels must lie in 2..1000"):
            compiled_kernel.scan_ladder(5, 1, *sizes, True, 3)


def test_python_scan_is_linear_in_path_length(compiled_kernel):
    # 584 maximal paths of up to 584 states, 342,802 search nodes.  When the
    # scan searched the whole path for each new state, this took 2.7-3.8 s on
    # a 2-vCPU Xeon VM with CPython 3.11; with an on-path mark per state it
    # takes about 1 s there.
    args = (1, 1, 2, 1000, True, 10**4)
    start = time.perf_counter()
    got = _ladder_py.scan_ladder(*args)
    elapsed = time.perf_counter() - start
    assert got == compiled_kernel.scan_ladder(*args)
    assert got[1] == got[4] == 584
    assert elapsed < 2.5, elapsed


def test_c_kernel_has_no_floating_point():
    text = (SRC / "_ladder_c.c").read_text(encoding="utf-8")
    code = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    assert not re.search(r"\b(float|double)\b", code)


def test_build_without_compiler_still_succeeds(tmp_path):
    env = dict(os.environ, CC=str(tmp_path / "no-such-cc"))
    proc = run_setup(str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert 'building extension "dehnfill._ladder_c" failed' in proc.stderr
    assert built_kernels(str(tmp_path)) == []


def test_missing_extension_falls_back_to_python():
    code = (
        "import sys; sys.modules['dehnfill._ladder_c'] = None; "
        "from dehnfill import kernel_backend; print(kernel_backend())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == "python\n", proc.stderr


def test_compiled_backend_leaves_python_kernel_unloaded(compiled_kernel):
    # Paths are decoded by dehnfill._ladder_states, so a library running on
    # the compiled kernel never imports the pure-Python one.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('dehnfill._ladder_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "sys.modules['dehnfill._ladder_c'] = kernel\n"
        "import dehnfill.ladders\n"
        "dehnfill.ladders.verify_ladders(5)\n"
        "dehnfill.ladders.check_two_line_property(dehnfill.ladders.random_ladder(1))\n"
        "print(dehnfill.ladders.kernel_backend(), 'dehnfill._ladder_py' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, compiled_kernel.__file__],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "c False\n", proc.stdout + proc.stderr
