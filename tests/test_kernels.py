"""The compiled ladder kernel and the pure-Python one must agree: same
counts, same lowest violating seed, and for a seeded ladder the same draw.
The compiled kernel has only the seeded ``scan_ladder``, and neither kernel's
bulk scan keeps a witness path: ``check_two_line_property`` of the ladder of
the lowest violating seed gives one, and the tests hold that seed to it.  The
compiled kernel seeds its own MT19937 from the int seed, the pure-Python one
seeds ``random.Random``, so the seeded tests also hold the C seeding to
CPython's.

The compiled kernel is the one built from the committed C by the
``compiled_kernel`` fixture; the tests skip only when no C compiler is found.
"""

import gc
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
from dehnfill.ladders import (
    SIZE_CAP,
    _draw,
    check_two_line_property,
    kernel_backend,
    random_ladder,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehnfill"
# The CPUs that a scan_ladder call may spread over.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_backend_reports(compiled_kernel):
    assert _ladder_py.BACKEND == "python"
    assert compiled_kernel.BACKEND == "c"
    assert kernel_backend() in ("c", "python")


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
    ``scan_ladder`` must give the pure-Python scan of the Python draw from
    ``Random(seed)``: the same counts and longest path, and
    the seed as its first violating seed exactly when that scan finds a
    witness, where step bound 3 truncates paths and 10**4 does not."""
    for seed in SEEDS:
        ladder = _draw(random.Random(seed), *sizes, alternating)
        for step_bound in (3, 10**4):
            got = compiled_kernel.scan_ladder(seed, 1, *sizes, alternating, step_bound)
            counts = _ladder_py._counts(_ladder_py._build_tables(*ladder), step_bound)
            first = seed if counts[1] else None
            assert got == (first, *counts, counts[0]), seed


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
    out = [None, 0, 0, 0, 0, 0]
    for case, (_, paths, violations, truncated, longest, _) in enumerate(singles):
        out[1] += paths
        out[2] += violations
        out[3] += truncated
        out[4] = max(out[4], longest)
        out[5] = max(out[5], paths)
        if violations and out[0] is None:
            out[0] = seed + case
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


# Runs that leave a block of eight lanes at every offset and, from 32
# ladders on, split across threads (one per 16 ladders, up to the CPU count),
# from starts inside the long long range and across its ends, where the
# compiled kernel hands the whole call to the pure-Python one.
THREAD_STARTS = [-100, 2**32 - 90, -(2**63), 2**63 - 120, -(2**64) - 150]
THREAD_CASES = [16, 23, 31, 32, 33, 47, 48, 63, 64, 100, 129, 200]


@pytest.mark.parametrize("alternating", [True, False])
def test_threaded_runs_are_the_sum_of_single_calls(compiled_kernel, alternating):
    args = (8, 6, alternating, 10**4)
    for start in THREAD_STARTS:
        seeds = range(start, start + max(THREAD_CASES))
        singles = [_ladder_py.scan_ladder(seed, 1, *args) for seed in seeds]
        assert [compiled_kernel.scan_ladder(seed, 1, *args) for seed in seeds] == singles, start
        for cases in THREAD_CASES:
            got = compiled_kernel.scan_ladder(start, cases, *args)
            assert got == combined(start, singles[:cases]), (start, cases)
        assert got == _ladder_py.scan_ladder(start, cases, *args), start


def test_first_violation_is_the_first_violating_ladders(compiled_kernel):
    # The control ladder of seed 4 breaks no two-line property; seed 5's does.
    for kernel in (compiled_kernel, _ladder_py):
        first, _, violations, *_ = kernel.scan_ladder(4, 1, 8, 6, False, 10**4)
        assert first is None and violations == 0
        assert kernel.scan_ladder(5, 1, 8, 6, False, 10**4)[0] == 5
        assert kernel.scan_ladder(4, 3, 8, 6, False, 10**4)[0] == 5


# Control ladders at (3, 150), 32 to a call, so two threads where two CPUs
# are free, and each thread keeps the lowest index of the violating ladders
# it counts.  From seed 5 the ladder of index 0 violates, and the other
# thread meets violations from index 8 on.  From seed 1149 the first block's
# ladders have two levels, which never violate, and the first violation is
# at index 8, in a block the other thread may take while the calling thread
# is still in the first one.
@pytest.mark.parametrize("start, first", [(5, 5), (1149, 1157)])
def test_the_lowest_violating_ladder_wins_across_threads(compiled_kernel, start, first):
    args = (3, 150, False, 10**4)
    singles = [compiled_kernel.scan_ladder(seed, 1, *args) for seed in range(start, start + 32)]
    expected = combined(start, singles)
    assert expected[0] == first
    assert sum(single[2] > 0 for single in singles[8:]) > 8
    for _ in range(10):
        assert compiled_kernel.scan_ladder(start, 32, *args) == expected


# The control runs of the tests above: (8, 6) from seed 0, where the first
# ladder violates, and the two (3, 150) runs split across threads.
SEED_ROUTE_RUNS = [(0, 200, 8, 6), (5, 32, 3, 150), (1149, 32, 3, 150)]


@pytest.mark.parametrize("start, cases, max_levels, max_rungs", SEED_ROUTE_RUNS)
def test_the_first_violating_seed_leads_to_a_witness(
    compiled_kernel, start, cases, max_levels, max_rungs
):
    """The bulk scan reports a seed, not a path: the path comes from
    ``check_two_line_property`` of that seed's ladder, which must fail, while
    the ladder of every lower seed of the run passes."""
    sizes = (max_levels, max_rungs)
    for kernel in (compiled_kernel, _ladder_py):
        first = kernel.scan_ladder(start, cases, *sizes, False, 10**4)[0]
        ok, witnesses = check_two_line_property(random_ladder(first, *sizes, False))
        assert not ok and len(witnesses) == 1, (kernel.BACKEND, first)
        for seed in range(start, first):
            assert check_two_line_property(random_ladder(seed, *sizes, False)) == (True, []), seed


def test_case_count(compiled_kernel):
    for kernel in (compiled_kernel, _ladder_py):
        assert kernel.scan_ladder(7, 0, 8, 6, True, 3) == (None, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="cases must be a count >= 0"):
            kernel.scan_ladder(7, -1, 8, 6, True, 3)


class Interrupted(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize(
    "args",
    [
        # One control ladder at the size cap: about 2 s, most of it in the
        # pure-Python DP that its 108-digit counts go to.
        (1, 1, SIZE_CAP, SIZE_CAP, False, 10**4),
        # A billion small ladders.
        (0, 10**9, 8, 6, True, 10**4),
        # A control ladder at the size cap on every thread of the call.
        (1, 16 * min(CPUS, 64), SIZE_CAP, SIZE_CAP, False, 10**4),
    ],
)
def test_a_signal_stops_the_compiled_scan(compiled_kernel, args):
    def interrupt(signum, frame):
        raise Interrupted

    # A handler that runs inside a gc callback raises there, and CPython
    # reports that exception as unraisable and goes on, so the scan would not
    # stop.  Hypothesis adds such a callback at its first @given test and
    # never removes it, so the callbacks are set aside during the scan.
    callbacks = gc.callbacks[:]
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        gc.callbacks.clear()
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(Interrupted):
            compiled_kernel.scan_ladder(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        gc.callbacks[:] = callbacks
    assert time.perf_counter() - start < 5
    # The pool threads of the interrupted call may still be in a ladder; the
    # next call takes the idle ones, down to the calling thread alone.
    args = (0, 200, 8, 6, True, 10**4)
    assert compiled_kernel.scan_ladder(*args) == _ladder_py.scan_ladder(*args)


def run_kernel_script(compiled_kernel, body):
    """Run ``body`` in a new interpreter, with ``kernel`` the compiled kernel
    and ``ARGS`` the arguments of a control run split across threads; returns
    its stdout and the ``_ladder_py`` result of ``ARGS``."""
    args = (0, 200, 8, 6, False, 10**4)
    code = (
        "import importlib.util, os, sys\n"
        "spec = importlib.util.spec_from_file_location('dehnfill._ladder_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "ARGS = %r\n" % (args,)
    ) + body
    proc = subprocess.run(
        [sys.executable, "-c", code, compiled_kernel.__file__],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, _ladder_py.scan_ladder(*args)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_scans_on_threads_of_its_own(compiled_kernel):
    # The child has none of its parent's pool threads, so it starts its own:
    # as many as the parent, where the process's threads can be counted.
    body = (
        "import warnings\n"
        "def threads():\n"
        "    return len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(kernel.scan_ladder(*ARGS), threads(), flush=True)\n"
        # Python 3.12 and later warn of a fork in a process with threads.
        "warnings.simplefilter('ignore', DeprecationWarning)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    print(kernel.scan_ladder(*ARGS), threads(), flush=True)\n"
        "    os._exit(0)\n"
        "print(os.waitpid(pid, 0)[1])\n"
    )
    out, expected = run_kernel_script(compiled_kernel, body)
    parent, child, status = out.splitlines()
    assert status == "0" and parent == child
    assert parent.startswith("%r " % (expected,)), parent


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_scans_follow_the_affinity_mask(compiled_kernel):
    # Pinned to one CPU, a call runs on the calling thread alone, with the
    # pool started; widened again, it takes the pool's threads.
    body = (
        "mask = os.sched_getaffinity(0)\n"
        "print(kernel.scan_ladder(*ARGS))\n"
        "os.sched_setaffinity(0, {min(mask)})\n"
        "print(kernel.scan_ladder(*ARGS))\n"
        "os.sched_setaffinity(0, mask)\n"
        "print(kernel.scan_ladder(*ARGS))\n"
    )
    out, expected = run_kernel_script(compiled_kernel, body)
    assert out == "%r\n" % (expected,) * 3


@pytest.mark.skipif(CPUS < 2, reason="one CPU: every call stays on the calling thread")
def test_a_parked_pool_thread_takes_part_in_the_next_call(compiled_kernel):
    # A pool thread sleeps once it has waited 1 ms for a job, so after 50 ms
    # the next call must wake it: the threads other than the calling one then
    # take CPU time in the call.  A thread that the host does not run in time
    # leaves the call to the calling thread, so the best of five calls counts.
    body = (
        "import time\n"
        "kernel.scan_ladder(*ARGS)\n"
        "shares = []\n"
        "for _ in range(5):\n"
        "    time.sleep(0.05)\n"
        "    others, mine = time.process_time() - time.thread_time(), time.thread_time()\n"
        "    kernel.scan_ladder(0, 20000, 8, 6, False, 10**4)\n"
        "    mine = time.thread_time() - mine\n"
        "    shares.append((time.process_time() - time.thread_time() - others) / mine)\n"
        "print(max(shares))\n"
    )
    out, _ = run_kernel_script(compiled_kernel, body)
    assert float(out) > 0.2, out


def test_threaded_scan_under_tracemalloc(compiled_kernel):
    # tracemalloc's hook on PyMem_RawMalloc takes the GIL, which the calling
    # thread holds for the whole call, so worker threads take their memory
    # from malloc.  With PyMem_RawMalloc this call hung.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('dehnfill._ladder_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "print(kernel.scan_ladder(0, 1000, 8, 6, True, 10**4))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "tracemalloc", "-c", code, compiled_kernel.__file__],
        capture_output=True,
        text=True,
        timeout=60,
    )
    expected = compiled_kernel.scan_ladder(0, 1000, 8, 6, True, 10**4)
    assert proc.returncode == 0 and proc.stdout == "%r\n" % (expected,), proc.stdout + proc.stderr


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
    # Only a single given ladder needs the pure-Python kernel, so neither
    # verify_ladders nor the ladder command loads it on the compiled kernel.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('dehnfill._ladder_c', sys.argv[1])\n"
        "kernel = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(kernel)\n"
        "sys.modules['dehnfill._ladder_c'] = kernel\n"
        "import dehnfill.ladders\n"
        "dehnfill.ladders.verify_ladders(5)\n"
        "import contextlib, io, dehnfill.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dehnfill.cli.main(['ladder', 'verify', '--cases', '40']) == 0\n"
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
