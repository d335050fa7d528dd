"""Spans recorded from outside the library.

A traced run replaces each function in ``TARGETS`` with a wrapper, at every
module attribute its callers resolve it through, and restores the originals
afterwards.  No file of the library changes.  A target whose module or
attribute is missing (internals move between versions) is reported as
absent instead of failing the run.
"""

import functools
import importlib
import itertools
import json
import time

# (span name, call sites as (module, attribute), count taken from the result).
# The first site names the defining module; the others are modules that
# imported the name and call it through their own globals.
TARGETS = (
    ("kernel.scan_ladder", (("dehnfill._ladder", "scan_ladder"),), "paths"),
    ("ladders.random_ladder", (("dehnfill.ladders", "random_ladder"),), None),
    (
        "ladders.verify_ladders",
        (("dehnfill.ladders", "verify_ladders"), ("dehnfill.cli", "verify_ladders")),
        None,
    ),
    (
        "tracks.weight_cone",
        (("dehnfill.tracks", "weight_cone"), ("dehnfill.cli", "weight_cone")),
        "rays",
    ),
    (
        "tracks.carried_slopes",
        (("dehnfill.tracks", "carried_slopes"), ("dehnfill.cli", "carried_slopes")),
        None,
    ),
    (
        "tracks.build_boundary_track",
        (
            ("dehnfill.tracks", "build_boundary_track"),
            ("dehnfill.cli", "build_boundary_track"),
        ),
        None,
    ),
    ("cli.main", (("dehnfill.cli", "main"),), None),
    (
        "filling.analyze_multislope",
        (
            ("dehnfill.filling", "analyze_multislope"),
            ("dehnfill.cli", "analyze_multislope"),
        ),
        None,
    ),
    (
        "filling.guaranteed_interval",
        (
            ("dehnfill.filling", "guaranteed_interval"),
            ("dehnfill.cli", "guaranteed_interval"),
            ("dehnfill.census", "guaranteed_interval"),
        ),
        None,
    ),
    (
        "slopes.canonical_meridian",
        (
            ("dehnfill.slopes", "canonical_meridian"),
            ("dehnfill.cli", "canonical_meridian"),
        ),
        None,
    ),
    (
        "slopes.parse_slope",
        (
            ("dehnfill.slopes", "parse_slope"),
            ("dehnfill.cli", "parse_slope"),
            ("dehnfill.census", "parse_slope"),
        ),
        None,
    ),
    (
        "slopes.format_slope",
        (
            ("dehnfill.slopes", "format_slope"),
            ("dehnfill.cli", "format_slope"),
            ("dehnfill.filling", "format_slope"),
            ("dehnfill.census", "format_slope"),
        ),
        None,
    ),
    (
        "monodromy.classify_coorientation",
        (
            ("dehnfill.monodromy", "classify_coorientation"),
            ("dehnfill.filling", "classify_coorientation"),
            ("dehnfill.tracks", "classify_coorientation"),
        ),
        None,
    ),
    (
        "monodromy.locus_distance",
        (
            ("dehnfill.monodromy", "locus_distance"),
            ("dehnfill.filling", "locus_distance"),
        ),
        None,
    ),
    (
        "arcs.refined_matching",
        (("dehnfill.arcs", "refined_matching"), ("dehnfill.cli", "refined_matching")),
        None,
    ),
    (
        "arcs.validate_system",
        (("dehnfill.arcs", "validate_system"), ("dehnfill.cli", "validate_system")),
        None,
    ),
    (
        "census.census_verify",
        (("dehnfill.census", "census_verify"), ("dehnfill.cli", "census_verify")),
        None,
    ),
)

# Labels of cli.main requests, used to split its self time by subcommand.
CLI_COMMANDS = (
    "analyze",
    "interval",
    "coords_canonical",
    "census_show",
    "census_verify",
    "arcs_refine",
    "arcs_validate",
    "track_build",
    "track_slopes",
)


def _count(kind, result):
    """Work counted from a result: paths found by a ladder scan, extreme rays
    of a weight cone.  A result of another shape counts nothing."""
    try:
        n = result[1] if kind == "paths" else len(result)
    except (TypeError, IndexError, KeyError):
        return 0
    return n if isinstance(n, int) else 0


class Tracer:
    """Spans kept in memory: (id, name, start_ns, end_ns, parent, request, self_ns).

    Calls are single-threaded, so a stack gives each span its parent, and a
    span's self time is its duration minus the durations of its children.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.request = None
        self.labels = {}
        self.absent = []
        self._stack = []
        self._saved = []
        self._ids = itertools.count()

    def begin_request(self, request, label):
        self.request = request
        self.labels[request] = label

    def _wrap(self, name, fn, count_kind):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0]  # span id, nanoseconds spent in children
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append(
                    (frame[0], name, start, end, parent, self.request, dur - frame[1])
                )
            if count_kind is not None:
                counts[count_kind] = counts.get(count_kind, 0) + _count(count_kind, result)
            return result

        return traced

    def install(self):
        """Wrap every target found; record the ones found nowhere as absent."""
        for name, sites, count_kind in TARGETS:
            wrappers = {}
            found = False
            for mod_name, attr in sites:
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                found = True
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, count_kind)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
            if not found:
                self.absent.append(name)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def summary(self, wall_s, untraced_wall_s):
        """Per-layer metrics: calls and self seconds per target, the derived
        ratios, and the tracing overhead of this run."""
        calls = {name: 0 for name, _, _ in TARGETS}
        self_ns = {name: 0 for name, _, _ in TARGETS}
        cli_calls = {cmd: 0 for cmd in CLI_COMMANDS}
        cli_ns = {cmd: 0 for cmd in CLI_COMMANDS}
        cone_requests = set()
        for _, name, _, _, _, request, own in self.spans:
            calls[name] += 1
            self_ns[name] += own
            if name == "cli.main":
                label = self.labels.get(request)
                if label in cli_calls:
                    cli_calls[label] += 1
                    cli_ns[label] += own
            elif name == "tracks.weight_cone":
                cone_requests.add(request)
        out = {}
        for name, _, _ in TARGETS:
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".self_s"] = (self_ns[name] / 1e9, "s")
        for cmd in CLI_COMMANDS:
            out["cli.main.%s.calls" % cmd] = (cli_calls[cmd], "count")
            out["cli.main.%s.self_s" % cmd] = (cli_ns[cmd] / 1e9, "s")
        kernel_s = self_ns["kernel.scan_ladder"] / 1e9
        paths = self.counts.get("paths", 0)
        out["kernel.paths"] = (paths, "count")
        out["kernel.paths_per_s"] = (paths / kernel_s if kernel_s else 0.0, "1/s")
        out["tracks.extreme_rays"] = (self.counts.get("rays", 0), "count")
        cones = calls["tracks.weight_cone"]
        out["tracks.weight_cone.calls_per_request"] = (
            cones / len(cone_requests) if cone_requests else 0.0,
            "ratio",
        )
        out["tracks.weight_cone.useful_ratio"] = (
            len(cone_requests) / cones if cones else 0.0,
            "ratio",
        )
        out["trace.absent"] = (len(self.absent), "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace_overhead"] = (wall_s / untraced_wall_s, "ratio")
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
