"""The benchmark's workloads.

Each workload builds a fixed population of items from its seed, runs one item
at a time through the library's public entry points, and checks the outputs
afterwards against expectations worked out independently of the code under
test.  ``lib`` is a namespace of the library's modules; every call goes
through a module attribute, so a traced run sees it.
"""

import contextlib
import io
import json
import os
import random
from math import gcd

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def slope_text(num, den):
    """The library's text form of the slope ``num/den``, computed here."""
    g = gcd(abs(num), abs(den))
    num, den = num // g, den // g
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    if den == 0:
        return "inf"
    return str(num) if den == 1 else "%d/%d" % (num, den)


def reversing_loci(max_p):
    """Canonical loci ``(p; q)`` with even ``p <= max_p`` and odd ``q``."""
    return [
        (p, q)
        for p in range(2, max_p + 1, 2)
        for q in range(-p // 2 + 1, p // 2 + 1)
        if q % 2
    ]


class Workload:
    """Defaults for workloads whose requests need no follow-up."""

    def label(self, item):
        """The request kind that a traced run splits ``cli.main`` by."""
        return None

    def after(self, item, out):
        """Runs after each item, outside its timed region."""

    def cross_check(self, firsts):
        """Checks that span items; returns ``{index: problem}``."""
        return {}


class Ladders(Workload):
    """Criterion 6 as users run it: 10^4 seeded geometric ladders through
    ``verify_ladders``, 100 ladders per call; one call is one item."""

    unit = "100 ladders"
    chunk = 100

    def __init__(self, lib, seed, scale=1):
        self.lib = lib
        self.items = [seed * 10**4 + self.chunk * i for i in range(max(1, 100 // scale))]
        with open(PINNED_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh)["ladders_seed0_chunk_paths"]
        self.expected_paths = pinned if seed == 0 else None

    def run(self, item):
        return self.lib.ladders.verify_ladders(cases=self.chunk, seed=item)

    def check(self, index, item, out):
        if out["cases"] != self.chunk or out["seed"] != item:
            return "summary describes other ladders"
        if out["violations"] or out["truncated_paths"]:
            return "%d violations, %d truncated paths" % (
                out["violations"],
                out["truncated_paths"],
            )
        if self.expected_paths is not None and out["total_paths"] != self.expected_paths[index]:
            return "total_paths %d, pinned %d" % (
                out["total_paths"],
                self.expected_paths[index],
            )
        return None

    def cross_check(self, firsts):
        """With a compiled kernel, rerun two chunks on the pure-Python one;
        every summary field but the backend name must agree."""
        _ladder = self.lib._ladder
        if _ladder.BACKEND == "python":
            return {}
        from dehnfill import _ladder_py

        bad = {}
        compiled = _ladder.scan_ladder
        try:
            _ladder.scan_ladder = _ladder_py.scan_ladder
            for index, out in list(firsts.items())[:2]:
                ref = self.run(self.items[index])
                if {k: v for k, v in ref.items() if k != "backend"} != {
                    k: v for k, v in out.items() if k != "backend"
                }:
                    bad[index] = "compiled and pure-Python kernels disagree"
        finally:
            _ladder.scan_ladder = compiled
        return bad


# Every preset crossed with the odd-q loci below; c = 3 for (8; q) and every
# even c are left out (see NOTES.md).
TRACK_GRID = (
    [(p, q, 1) for p, q in reversing_loci(12)]
    + [(p, q, 3) for p, q in reversing_loci(6)]
    + [(p, q, 5) for p, q in reversing_loci(4)]
    + [(2, 1, 7), (2, 1, 9)]
)


class Tracks(Workload):
    """Boundary tracks built and reduced to their carried-slope arc, plus
    carried slopes of small random tracks; one track is one item."""

    unit = "track"
    randoms = 300
    oracle_randoms = 100
    oracle_bound = 8

    def __init__(self, lib, seed, scale=1):
        self.lib = lib
        tracks = lib.tracks
        items = [
            ("built", (p, q, c, preset), lib.monodromy.DegeneracyLocus(p, q), tracks.CONFIG_PRESETS[preset])
            for p, q, c in TRACK_GRID[: max(1, len(TRACK_GRID) // scale)]
            for preset in sorted(tracks.CONFIG_PRESETS)
        ]
        first = seed * self.randoms
        for j in range(self.randoms // scale):
            items.append(("random", first + j, j < self.oracle_randoms, tracks.random_track(first + j)))
        random.Random(seed).shuffle(items)
        self.items = items

    def run(self, item):
        tracks = self.lib.tracks
        if item[0] == "built":
            _, (p, q, c, _), locus, config = item
            track = tracks.build_boundary_track(locus, c, config)
        else:
            track = item[3]
        return len(track.branches), tracks.carried_slopes(track)

    def check(self, index, item, out):
        n_branches, cs = out
        if item[0] == "built":
            p, q, c, _ = item[1]
            if n_branches != 3 * p * c:
                return "%d branches, want %d" % (n_branches, 3 * p * c)
            if cs.kind != "arc":
                return "carried set is %r, not an arc" % cs.kind
            got = {slope_text(e.num, e.den) for e in (cs.arc.end_a, cs.arc.end_b)}
            want = {slope_text(p, q + c), slope_text(p, q - c)}
            return None if got == want else "arc ends %s, want %s" % (sorted(got), sorted(want))
        if not item[2]:
            return None
        for cls, _ in self.lib.tracks.integral_carried_classes(item[3], self.oracle_bound):
            if cls != (0, 0) and not cs.contains_class(cls):
                return "carried class %r outside the reported set" % (cls,)
        return None


class Queries(Workload):
    """A seeded mix of in-process ``cli.main`` requests with stdout
    captured; one request is one item."""

    unit = "request"
    # Sessions per kind; with the 63 track sessions, 2,000 requests in all.
    mix = (
        ("analyze", 790),
        ("interval", 300),
        ("coords_canonical", 240),
        ("census_show", 150),
        ("census_verify", 56),
        ("arcs", 140),
        ("malformed", 58),
    )

    def __init__(self, lib, seed, workdir, scale=1):
        self.lib = lib
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        loci = reversing_loci(12)
        names = [entry.name for entry in lib.census.census_entries()]
        sessions = []
        # Every c = 1 boundary track once, built and then reduced to slopes.
        for p, q in loci[: max(1, len(loci) // scale)]:
            for preset in ("default", "phase-flipped", "wide"):
                path = os.path.join(workdir, "track-%d-%d-%s.json" % (p, q, preset))
                sessions.append(
                    [
                        self._req(
                            "track_build",
                            ["track", "build", "--locus", "%d,%d" % (p, q), "--orbit-length", "1", "--config", preset],
                            p=p,
                            save_to=path,
                        ),
                        self._req("track_slopes", ["track", "slopes", "--input", path], p=p, q=q),
                    ]
                )
        # Fixed session counts per kind, so the mix does not vary with the seed.
        for kind, sessions_per_kind in self.mix:
            for serial in range(max(1, sessions_per_kind // scale)):
                sessions.append(self._session(kind, serial, rng, loci, names))
        rng.shuffle(sessions)
        self.items = [req for session in sessions for req in session]

    def _session(self, kind, serial, rng, loci, names):
        """One request, or two where the second reads the first's output."""
        if kind == "analyze":
            p, q = rng.choice(loci)
            c = rng.choice((1, 3, 5))
            slopes = [self._slope(rng) for _ in range(rng.randint(1, 3))]
            argv = ["analyze", "--locus", "%d,%d" % (p, q), "--orbit-length", str(c)]
            # "--slope=" form: argparse reads a bare "-3/5" as an option.
            argv += ["--slope=" + s for s in slopes]
            return [self._req("analyze", argv, p=p, q=q, c=c, slopes=slopes)]
        if kind == "interval":
            p, q = rng.choice(loci)
            c = rng.choice((1, 3, 5))
            argv = ["interval", "--locus", "%d,%d" % (p, q), "--orbit-length", str(c)]
            return [self._req("interval", argv, p=p, q=q, c=c)]
        if kind == "coords_canonical":
            u = rng.choice([k for k in range(-40, 41) if k])
            v = rng.randint(-40, 40)
            argv = ["coords", "canonical", "--delta=%d/%d" % (u, v)]
            return [self._req("coords_canonical", argv, u=u, v=v)]
        if kind == "census_show":
            name = rng.choice(names)
            return [self._req("census_show", ["census", "show", name], name=name)]
        if kind == "census_verify":
            return [self._req("census_verify", ["census", "verify"])]
        if kind == "arcs":
            mono = os.path.join(self.workdir, "mono-%d.json" % serial)
            arcs = os.path.join(self.workdir, "arcs-%d.json" % serial)
            total = self._write_monodromy(rng, mono)
            return [
                self._req("arcs_refine", ["arcs", "refine", "--input", mono], arcs=total // 2, save_to=arcs),
                self._req("arcs_validate", ["arcs", "validate", "--input", arcs]),
            ]
        return [self._malformed(rng)]

    @staticmethod
    def _req(label, argv, expect=0, save_to=None, **facts):
        return {"label": label, "argv": argv, "expect": expect, "save_to": save_to, **facts}

    @staticmethod
    def _slope(rng):
        if rng.random() < 0.05:
            return "inf"
        while True:
            num, den = rng.randint(-40, 40), rng.randint(1, 40)
            if num or den:
                return "%d/%d" % (num, den) if den != 1 else str(num)

    @staticmethod
    def _write_monodromy(rng, path):
        """A ``monodromy_boundary_v1`` file with 1-3 circles; a fixed circle
        gets a shift that moves its singularities."""
        ids = ["C%d" % i for i in range(rng.randint(1, 3))]
        order = ids[:]
        rng.shuffle(order)
        cycles = []
        while order:
            size = rng.randint(1, len(order))
            cycles.append(order[:size])
            order = order[size:]
        circles, permutation, shifts = [], {}, {}
        for cycle in cycles:
            p = rng.choice((2, 4, 6))
            for k, cid in enumerate(cycle):
                circles.append({"id": cid, "stable_sings": p})
                permutation[cid] = cycle[(k + 1) % len(cycle)]
            shift = rng.randint(0, p - 1)
            if len(cycle) == 1 and shift == 0:
                shift = 1
            shifts[min(cycle)] = shift
        doc = {
            "schema": "monodromy_boundary_v1",
            "circles": sorted(circles, key=lambda c: c["id"]),
            "permutation": dict(sorted(permutation.items())),
            "shifts": shifts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return sum(c["stable_sings"] for c in circles)

    def _malformed(self, rng):
        argv = rng.choice(
            [
                ["analyze", "--locus", "4,1", "--orbit-length", "1", "--slope", "3/x"],
                ["analyze", "--locus", "5,1", "--orbit-length", "1", "--slope", "1/2"],
                ["interval", "--locus", "4;1", "--orbit-length", "1"],
                ["interval", "--locus", "6,1", "--orbit-length", "x"],
                ["coords", "canonical", "--delta", "1//2"],
                ["census", "show", "no-such-manifold"],
            ]
        )
        label = argv[0] if argv[0] in ("analyze", "interval") else "_".join(argv[:2])
        return self._req(label, argv, expect=2)

    def label(self, item):
        return item["label"]

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(list(item["argv"]))
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        return code, out.getvalue()

    def after(self, item, out):
        if item["save_to"]:
            with open(item["save_to"], "w", encoding="utf-8") as fh:
                fh.write(out[1])

    def check(self, index, item, out):
        code, text = out
        if code != item["expect"]:
            return "exit code %r, want %r" % (code, item["expect"])
        if item["expect"] != 0:
            return None
        doc = json.loads(text)
        label = item["label"]
        if label == "analyze":
            return self._check_analyze(item, doc)
        if label == "interval":
            p, q, c = item["p"], item["q"], item["c"]
            want = {
                "schema": "interval_v1",
                "end_a": slope_text(p, q + c),
                "end_b": slope_text(p, q - c),
                "excluded": slope_text(p, q),
            }
            return None if doc == want else "interval %r, want %r" % (doc, want)
        if label == "coords_canonical":
            u, v = item["u"], item["v"]
            if u < 0:
                u, v = -u, -v
            # mu0 + k*lambda at distance |v - k*u| from delta; the least k on a tie.
            k = min(range(v // u - 1, v // u + 3), key=lambda k: (abs(v - k * u), k))
            want = (k, slope_text(u, v - k * u))
            got = (doc["k"], doc["new_delta"])
            return None if got == want else "canonical %r, want %r" % (got, want)
        if label == "census_show":
            return None if doc["name"] == item["name"] else "showed %r" % doc["name"]
        if label == "census_verify":
            return None if doc["ok"] else "census verification failed"
        if label == "arcs_refine":
            if doc["schema"] != "arc_system_v1" or len(doc["arcs"]) != item["arcs"]:
                return "refined system with %d arcs, want %d" % (len(doc["arcs"]), item["arcs"])
            return None
        if label == "arcs_validate":
            return None if doc["admissible"] else "refined system inadmissible"
        if label == "track_build":
            n = len(doc["branches"])
            return None if n == 3 * item["p"] else "%d branches, want %d" % (n, 3 * item["p"])
        if label == "track_slopes":
            p, q = item["p"], item["q"]
            arc = doc.get("arc")
            if doc["kind"] != "arc":
                return "carried set is %r, not an arc" % doc["kind"]
            got = {arc["end_a"], arc["end_b"]}
            want = {slope_text(p, q + 1), slope_text(p, q - 1)}
            return None if got == want else "arc ends %s, want %s" % (sorted(got), sorted(want))
        return "unknown request %r" % label

    def _check_analyze(self, item, doc):
        locus = self.lib.monodromy.DegeneracyLocus(item["p"], item["q"])
        interval = self.lib.filling.guaranteed_interval(locus, item["c"])
        inside = [interval.contains(self.lib.slopes.parse_slope(s)[0]) for s in item["slopes"]]
        got = [orbit["in_interval"] for orbit in doc["orbits"]]
        if got != inside:
            return "in_interval %r, want %r" % (got, inside)
        want = "guaranteed" if all(inside) else "none" if not any(inside) else "partial"
        return None if doc["verdict"] == want else "verdict %r, want %r" % (doc["verdict"], want)
