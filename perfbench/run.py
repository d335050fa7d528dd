"""Benchmark of the dehnfill library: one workload per run, in this process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ladders|tracks|queries \
        --seed N --seconds S --trace 0|1

The run builds the package in place, sets it up (import plus input
generation), then runs the workload's items back to back, one client and no
threads, for at least S seconds and at least one full pass over its items.
Eight more set-ups, timed between items, give the median set-up time.
Outputs are checked after the timed loop.  The last line of stdout is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one more pass over the items, traced.  See NOTES.md
for what each workload is for.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(OUT_DIR, "work")  # input files of queries; removed after each run
SETUP_PROBES = 8  # set-ups timed during the loop, besides the one before it
MODULES = ("cli", "ladders", "tracks", "monodromy", "filling", "slopes", "census", "_ladder")

WORKLOADS = ("ladders", "tracks", "queries")


def build():
    """Build the package in place; a no-op unless it has extensions to compile."""
    if not os.path.exists(os.path.join(ROOT, "setup.py")):
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "-q"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.stderr.write("build_ext failed; measuring whatever imports\n")


def load_library():
    """Import the package from this checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "dehnfill" or m.startswith("dehnfill.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("dehnfill")
    origin = os.path.dirname(os.path.abspath(package.__file__))
    if origin != os.path.join(SRC, "dehnfill"):
        raise ImportError("dehnfill imported from %s, not from this checkout" % origin)
    return argparse.Namespace(**{m: importlib.import_module("dehnfill." + m) for m in MODULES})


def make_workload(name, lib, seed, scale=1):
    if name == "ladders":
        return workloads.Ladders(lib, seed, scale)
    if name == "tracks":
        return workloads.Tracks(lib, seed, scale)
    return workloads.Queries(lib, seed, WORK_DIR, scale)


def set_up(name, seed, scale=1):
    """Import the package afresh and generate the inputs; also time it."""
    start = time.perf_counter()
    lib = load_library()
    workload = make_workload(name, lib, seed, scale)
    return lib, workload, time.perf_counter() - start


def set_up_again(name, seed, scale):
    """Time one more set-up, then put the modules in use back in place."""
    live = {k: m for k, m in sys.modules.items() if k == "dehnfill" or k.startswith("dehnfill.")}
    try:
        return set_up(name, seed, scale)[2]
    finally:
        for k in [k for k in sys.modules if k == "dehnfill" or k.startswith("dehnfill.")]:
            del sys.modules[k]
        sys.modules.update(live)
        gc.collect()  # free the discarded modules now, so peak memory repeats


class Record:
    """What one measured pass saw: per-item latencies and outputs."""

    def __init__(self, n_items):
        self.latencies = [[] for _ in range(n_items)]
        self.firsts = {}
        self.bad = {}
        self.done = 0
        self.wall = 0.0
        self.setup_times = []


def measure(workload, seconds, tracer=None, limit=None, reference=None, probe=None):
    """Run items back to back, cycling over the population, until ``limit``
    items, or else until ``seconds`` have passed and every item ran once.

    A later output of an item must equal its first one (or, given a
    ``reference`` record, the first output seen there).  ``probe`` times a
    set-up; it runs ``SETUP_PROBES`` times spread over the loop, so set-up
    time sees the same host speed as the items, and its time is left out of
    the loop's wall time."""
    items = workload.items
    rec = Record(len(items))
    clock = time.perf_counter
    start = clock()
    probe_due = [start + (k + 0.5) * seconds / SETUP_PROBES for k in range(SETUP_PROBES)] if probe else []
    probing = 0.0
    while True:
        if probe_due and clock() >= probe_due[0]:
            probe_due.pop(0)
            t0 = clock()
            rec.setup_times.append(probe())
            probing += clock() - t0
        index = rec.done % len(items)
        item = items[index]
        if tracer is not None:
            tracer.begin_request(rec.done, workload.label(item))
        t0 = clock()
        try:
            out = workload.run(item)
        except Exception as exc:  # a crash is a failed item, not a failed run
            out = ("raised", repr(exc))
        t1 = clock()
        workload.after(item, out)
        rec.latencies[index].append(t1 - t0)
        rec.done += 1
        first = (reference or rec).firsts.get(index)
        if first is None:
            rec.firsts[index] = out
        elif out != first and index not in rec.bad:
            rec.bad[index] = "output differs between repetitions"
        if limit is not None:
            if rec.done >= limit:
                break
        elif rec.done >= len(items) and t1 - start >= seconds:
            break
    rec.wall = clock() - start - probing
    return rec


def check(workload, rec):
    """Check each item's first output; return (failed attempts, messages)."""
    bad = dict(rec.bad)
    for index, out in rec.firsts.items():
        if index in bad:
            continue
        if isinstance(out, tuple) and out and out[0] == "raised":
            bad[index] = out[1]
            continue
        try:
            msg = workload.check(index, workload.items[index], out)
        except Exception as exc:  # malformed output fails the check
            msg = "check raised %r" % (exc,)
        if msg:
            bad[index] = msg
    for index, msg in workload.cross_check(rec.firsts).items():
        bad.setdefault(index, msg)
    failed = sum(len(rec.latencies[i]) for i in bad)
    return failed, ["item %d: %s" % (i, bad[i]) for i in sorted(bad)]


def latency_stats(rec):
    """Median and tail of per-item latencies, each item counted once at the
    mean of its repetitions, which come from different passes and so average
    over the host's speed during the run.  The tail is the highest percentile
    with at least ten items above it."""
    per_item = sorted(statistics.fmean(ls) for ls in rec.latencies if ls)
    n = len(per_item)
    rank = max(0, n - 11)  # ten items lie above index n - 11
    return {
        "p50_ms": statistics.median(per_item) * 1e3,
        "tail_ms": per_item[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "tail_items_above": n - rank - 1,
        "items": n,
    }


def machine(lib, seed):
    """The set-up a result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "kernel_backend": lib.ladders.kernel_backend(),
        "commit": commit,
        "seed": seed,
    }


def run(name, seed, seconds, traced, scale=1, workload_hook=None):
    """One benchmark run; returns (result, info) as printed by ``main``."""
    try:
        return _run(name, seed, seconds, traced, scale, workload_hook)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def _run(name, seed, seconds, traced, scale, workload_hook):
    lib, workload, first_setup = set_up(name, seed, scale)
    if workload_hook is not None:
        workload_hook(workload)
    rec = measure(workload, seconds, probe=lambda: set_up_again(name, seed, scale))
    setup_times = [first_setup] + rec.setup_times
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = check(workload, rec)
    attempted = rec.done
    stats = latency_stats(rec)
    info = {
        "workload": name,
        "item": workload.unit,
        "population": len(workload.items),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "measured_s": rec.wall,
        "tail_percentile": stats["tail_percentile"],
        "tail_items_above": stats["tail_items_above"],
        "latency_items": stats["items"],
        "setup_runs_s": setup_times,
        "setup": machine(lib, seed),
        "problems": problems[:20],
    }
    if not traced:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_per_s": (rec.done / rec.wall, "1/s"),
            "p50_ms": (stats["p50_ms"], "ms"),
            "tail_ms": (stats["tail_ms"], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_rec = measure(workload, seconds, tracer=tracer, limit=len(workload.items), reference=rec)
        finally:
            tracer.uninstall()
        more_failed, more_problems = check(workload, traced_rec)
        failed += more_failed
        problems += more_problems
        attempted += traced_rec.done
        # One traced pass against the untraced loop's mean time per pass.
        metrics = tracer.summary(traced_rec.wall, rec.wall * len(workload.items) / rec.done)
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (name, seed))
        tracer.write(span_path)
        wall = traced_rec.wall
        info.update(
            attempted=attempted,
            failed=failed,
            error_rate=failed / attempted,
            problems=problems[:20],
            absent=tracer.absent,
            spans_file=os.path.relpath(span_path, ROOT),
            self_share_of_traced_wall={
                key[: -len(".self_s")]: value / wall
                for key, (value, unit) in metrics.items()
                if key.endswith(".self_s") and value and key.count(".") == 2
            },
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build()
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print("error: cannot import the package from this checkout: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
