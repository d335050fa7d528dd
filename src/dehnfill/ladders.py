r"""
Finite ladder models of the leaf-trace train tracks of the branched surface.

A ladder has horizontal lines at levels ``0..n-1`` (the traces of the fiber
levels on a leaf), joined by rungs (the traces of the product disks).  Each
level carries a chosen orientation, positive on even levels, and every rung
end carries a cusp direction along its line.  On geometric ladders the cusp
agrees with the chosen orientation at both ends; the reversal of the
co-orientation by the monodromy is what makes the chosen orientations
alternate.  Maximal carried paths then meet at most one even and at most one
odd line, entering even lines for good and leaving odd lines only once, and
each such path separates the levels far below from the levels far above.
"""

import random as _random
from numbers import Integral, Rational

from . import _ladder
from ._value import Value, setfield

__all__ = [
    "Rung",
    "LadderTrack",
    "CarriedPath",
    "random_ladder",
    "enumerate_carried_paths",
    "check_two_line_property",
    "separation_check",
    "verify_ladders",
    "kernel_backend",
]


def kernel_backend() -> str:
    return _ladder.BACKEND


class Rung(Value):
    """A rung from ``lower_level`` to the level above.

    Positions along the two lines are exact rationals of any type (``int``,
    ``Fraction``); only their order along each line matters.  The cusps are
    the geometric signs along the lower and the upper line.
    """

    __slots__ = ("lower_level", "low_pos", "high_pos", "cusp_low", "cusp_high")

    def __init__(
        self, lower_level: int, low_pos: Rational, high_pos: Rational, cusp_low: int, cusp_high: int
    ):
        _check_integers(lower_level=lower_level, cusp_low=cusp_low, cusp_high=cusp_high)
        if cusp_low not in (-1, 1) or cusp_high not in (-1, 1):
            raise ValueError("cusp signs must be +1 or -1")
        for pos in (low_pos, high_pos):
            if not isinstance(pos, Rational):
                raise ValueError(
                    "rung positions must be exact rationals (int or Fraction), not %r" % (pos,)
                )
        setfield(self, "lower_level", lower_level)
        setfield(self, "low_pos", low_pos)
        setfield(self, "high_pos", high_pos)
        setfield(self, "cusp_low", cusp_low)
        setfield(self, "cusp_high", cusp_high)


class LadderTrack(Value):
    """``n_levels`` lines with the chosen orientation sign of each, and the
    rungs between them."""

    __slots__ = ("n_levels", "orientations", "rungs")

    def __init__(self, n_levels: int, orientations: tuple, rungs: tuple):
        _check_integers(n_levels=n_levels)
        if n_levels < 1 or len(orientations) != n_levels:
            raise ValueError("need one orientation sign per level")
        for o in orientations:
            _check_integers(orientation=o)
            if o not in (-1, 1):
                raise ValueError("orientations must be +1 or -1")
        feet = set()
        for r in rungs:
            if not 0 <= r.lower_level < n_levels - 1:
                raise ValueError("rung joins missing levels")
            for foot in ((r.lower_level, r.low_pos), (r.lower_level + 1, r.high_pos)):
                if foot in feet:
                    raise ValueError("rung feet on level %d collide" % foot[0])
                feet.add(foot)
        setfield(self, "n_levels", n_levels)
        setfield(self, "orientations", orientations)
        setfield(self, "rungs", rungs)


def _rung_lists(rungs):
    """The rungs as parallel lists: level, low, high, cusp_low, cusp_high."""
    return (
        [r.lower_level for r in rungs],
        [r.low_pos for r in rungs],
        [r.high_pos for r in rungs],
        [r.cusp_low for r in rungs],
        [r.cusp_high for r in rungs],
    )


def _sorted_feet(n_levels, level, low, high):
    """Per level, the sorted (position, rung_index, end) triples."""
    feet = [[] for _ in range(n_levels)]
    for r, g in enumerate(level):
        feet[g].append((low[r], r, 0))
        feet[g + 1].append((high[r], r, 1))
    for level_feet in feet:
        level_feet.sort()
    return feet


def standard_orientations(n_levels):
    return tuple(1 if k % 2 == 0 else -1 for k in range(n_levels))


# The largest max_levels and max_rungs_per_gap of a seeded ladder.  Up to it a
# ladder has fewer than 2**20 rungs and 2**23 path states, so the compiled
# kernel holds every count in a C int and every draw in one 32-bit word.
SIZE_CAP = 1000


def _check_integers(**values):
    # Random would accept a float or a str and seed from its hash, and a
    # float size or bound would reach only the pure-Python kernel's loops.
    # A bool is an Integral, but the summary would echo it as true or false.
    for name, value in values.items():
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise TypeError("%s must be an integer, not %r" % (name, value))


def _check_sizes(max_levels, max_rungs_per_gap):
    _check_integers(max_levels=max_levels, max_rungs_per_gap=max_rungs_per_gap)
    if max_levels < 2:
        raise ValueError(
            "max_levels must be >= 2 (a ladder has two lines or more), not %d" % max_levels
        )
    if max_rungs_per_gap < 0:
        raise ValueError("max_rungs_per_gap must be >= 0, not %d" % max_rungs_per_gap)
    if max(max_levels, max_rungs_per_gap) > SIZE_CAP:
        raise ValueError(
            "max_levels and max_rungs_per_gap must be <= %d, not %d and %d"
            % (SIZE_CAP, max_levels, max_rungs_per_gap)
        )


def _check_alternating(alternating):
    # Any other value would pick a kind by its truth and be echoed as given.
    if not isinstance(alternating, bool):
        raise TypeError("alternating must be a bool, not %r" % (alternating,))


def _check_step_bound(step_bound):
    _check_integers(step_bound=step_bound)
    if not 1 <= step_bound <= 10**4:
        raise ValueError("step_bound must lie in 1..10**4, not %d" % step_bound)


def _sample_set_size(k):
    """The size below which ``Random.sample`` picks ``k`` items from a pool
    list rather than by rejection against a set of picked indices."""
    size = 21
    if k > 5:
        # 4 ** ceil(log4(3k)), the table size of a set of k entries.
        table = 1
        while table < 3 * k:
            table *= 4
        size += table
    return size


def _draw(rng, max_levels, max_rungs_per_gap, alternating):
    """The random ladder that ``rng`` gives, as plain ints and lists.

    Returns ``(n_levels, orientations, level, low, high, cusp_low,
    cusp_high)``, the last five parallel, one entry per rung, rungs in gap
    order.  Every seeded ladder is fixed by the words drawn here.

    Only ``rng.getrandbits`` is called.  A draw below ``n`` takes
    ``n.bit_length()`` bits and rejects values ``>= n``, and the draws come
    in the order of ``randint(2, max_levels)``, ``randint(0,
    max_rungs_per_gap)`` per gap, ``sample(range(4, 16 * (n_rungs + 2), 4),
    n_rungs)``, ``shuffle`` and ``randint(-1, 1)`` per rung, as CPython's
    ``random`` (3.11 to 3.13) makes them.  So the ladders are the ones those
    methods give, without depending on how they are written.
    """
    bits = rng.getrandbits
    n = max_levels - 1
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    n_levels = r + 2
    orientations = standard_orientations(n_levels) if alternating else (1,) * n_levels
    n = max_rungs_per_gap + 1
    k = n.bit_length()
    level = []
    for gap in range(n_levels - 1):
        r = bits(k)
        while r >= n:
            r = bits(k)
        level += [gap] * r
    n_rungs = len(level)
    # Positions are ints in units of 1/16.  Distinct base slots 1/4 apart
    # globally, so feet on a shared line never collide; the +-1/16 nudges are
    # too small to reorder them.  Slot j sits at 4 + 4j, j < n.
    n = 4 * n_rungs + 7
    low = []
    if n <= _sample_set_size(n_rungs):
        pool = list(range(4, 4 * n + 4, 4))
        for m in range(n, n - n_rungs, -1):
            k = m.bit_length()
            j = bits(k)
            while j >= m:
                j = bits(k)
            low.append(pool[j])
            pool[j] = pool[m - 1]
    else:
        k = n.bit_length()
        picked = set()
        for _ in range(n_rungs):
            j = bits(k)
            while j >= n or j in picked:
                j = bits(k)
            picked.add(j)
            low.append(4 + 4 * j)
    for m in range(n_rungs, 1, -1):
        k = m.bit_length()
        j = bits(k)
        while j >= m:
            j = bits(k)
        low[m - 1], low[j] = low[j], low[m - 1]
    high = []
    for x in low:
        r = bits(2)
        while r == 3:
            r = bits(2)
        high.append(x + r - 1)
    if alternating:
        cusp_low = [orientations[g] for g in level]
        cusp_high = [orientations[g + 1] for g in level]
    else:
        cusp_low = [1] * n_rungs
        cusp_high = [-1] * n_rungs
    return n_levels, orientations, level, low, high, cusp_low, cusp_high


def random_ladder(
    seed: int,
    max_levels: int = 8,
    max_rungs_per_gap: int = 6,
    alternating: bool = True,
) -> LadderTrack:
    """Seeded random ladder.

    ``alternating=True`` gives the geometric type: alternating chosen
    orientations, cusps agreeing with them at both rung ends.
    ``alternating=False`` is the negative control: uniform orientations with
    the cusp pattern of a co-orientation-preserving return map (agreeing at
    lower ends, opposing at upper ends); carried paths there may cascade
    through many lines.
    """
    _check_integers(seed=seed)
    _check_sizes(max_levels, max_rungs_per_gap)
    _check_alternating(alternating)
    n_levels, orientations, *rung_lists = _draw(
        _random.Random(seed), max_levels, max_rungs_per_gap, alternating
    )
    return LadderTrack(n_levels, orientations, tuple(map(Rung, *rung_lists)))


class CarriedPath(Value):
    """A maximal directed path: line runs and rung crossings in order, each
    step ``("line", level, segment, dir)`` or ``("rung", index, dir)``."""

    __slots__ = ("steps", "truncated")

    def __init__(self, steps: tuple, truncated: bool):
        setfield(self, "steps", steps)
        setfield(self, "truncated", truncated)

    @property
    def levels_met(self):
        return tuple(sorted({s[1] for s in self.steps if s[0] == "line"}))

    @property
    def rungs_used(self):
        return tuple(s[1] for s in self.steps if s[0] == "rung")


def _scan_track(question, track, step_bound):
    """``_ladder_py``'s function ``question`` of the track.  Only the
    pure-Python kernel scans one given track; it is imported here, so that
    ``verify_ladders`` on the compiled kernel never loads it."""
    from . import _ladder_py

    _check_step_bound(step_bound)
    ladder = (track.n_levels, track.orientations, *_rung_lists(track.rungs))
    return getattr(_ladder_py, question)(ladder, step_bound)


def enumerate_carried_paths(track: LadderTrack, step_bound: int = 10**4):
    """All maximal carried paths, one per undirected trace, in a
    deterministic order; truncation at the step bound is flagged."""
    return [CarriedPath(*path) for path in _scan_track("carried_paths", track, step_bound)]


def check_two_line_property(track: LadderTrack, step_bound: int = 10**4):
    """Every maximal carried path must meet at most one even and at most one
    odd line, entering even lines for good and leaving odd ones only once.

    Returns ``(ok, witnesses)`` with the first violating path, if any.
    """
    witness = _scan_track("first_violation", track, step_bound)
    if witness is None:
        return True, []
    return False, [CarriedPath(*witness)]


def separation_check(track: LadderTrack, path: CarriedPath) -> bool:
    """Does deleting the path's trace split the ladder band across its levels?

    The strip between lines ``g`` and ``g + 1`` (gap ``g``) is cut by its rungs
    into cells, between sentinels left and right of every foot.  Two cells of a
    gap are joined across a rung the path does not use; cells of gaps ``g`` and
    ``g + 1`` are joined where their spans overlap on a stretch of line
    ``g + 1`` that the path leaves free.  The check passes unless a component
    reaches both a gap ``<= j - 2`` and a gap ``>= j + 1`` for a line ``j`` the
    path meets, so lines 0, 1, ``n - 2`` and ``n - 1`` pass vacuously.
    """
    if not path.levels_met:
        raise ValueError("path meets no line")
    covered = {(s[1], s[2]) for s in path.steps if s[0] == "line"}
    rungs_on = set(path.rungs_used)
    level, low, high = _rung_lists(track.rungs)[:3]
    left_end = min(low + high, default=0) - 1
    right_end = max(low + high, default=0) + 1
    free = []  # per line, the stretches between feet that the path leaves free
    spans = []  # per gap, the open span of each cell
    adj = {}
    for k, feet in enumerate(_sorted_feet(track.n_levels, level, low, high)[:-1]):
        cuts = [left_end] + [pos for pos, _, _ in feet] + [right_end]
        free.append([(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1) if (k, i) not in covered])
        rs = [r for _, r, end in feet if end == 0]
        lefts = [left_end] + [max(low[r], high[r]) for r in rs]
        spans.append(list(zip(lefts, [min(low[r], high[r]) for r in rs] + [right_end])))
        adj.update(((k, c), []) for c in range(len(rs) + 1))
        for c, r in enumerate(rs):
            if r not in rungs_on:
                adj[k, c].append((k, c + 1))
                adj[k, c + 1].append((k, c))
    for g in range(track.n_levels - 2):
        for c, (l1, r1) in enumerate(spans[g]):
            for c2, (l2, r2) in enumerate(spans[g + 1]):
                if any(max(l1, l2, a) < min(r1, r2, b) for a, b in free[g + 1]):
                    adj[g, c].append((g + 1, c2))
                    adj[g + 1, c2].append((g, c))
    reach = []  # the lowest and highest gap of each component
    seen = set()
    for start in adj:
        if start not in seen:
            seen.add(start)
            stack, gaps = [start], []
            while stack:
                node = stack.pop()
                gaps.append(node[0])
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            reach.append((min(gaps), max(gaps)))
    return not any(lo <= j - 2 and hi >= j + 1 for j in path.levels_met for lo, hi in reach)


def verify_ladders(
    cases: int,
    seed: int = 0,
    max_levels: int = 8,
    max_rungs_per_gap: int = 6,
    step_bound: int = 10**4,
    alternating: bool = True,
):
    """Bulk two-line verification over seeded random ladders.

    Returns a summary dict (JSON-friendly); deterministic for fixed inputs.
    """
    _check_integers(cases=cases, seed=seed)
    if cases < 0:
        raise ValueError("cases must be a count >= 0, not %r" % (cases,))
    _check_sizes(max_levels, max_rungs_per_gap)
    _check_step_bound(step_bound)
    _check_alternating(alternating)
    # Case i is the ladder that Random(seed + i) draws; one kernel call scans
    # them all.
    first_violation_seed, total_paths, violations, truncated, max_len, max_paths = (
        _ladder.scan_ladder(seed, cases, max_levels, max_rungs_per_gap, alternating, step_bound)
    )
    return {
        "cases": cases,
        "seed": seed,
        "max_levels": max_levels,
        "max_rungs_per_gap": max_rungs_per_gap,
        "alternating": alternating,
        "backend": kernel_backend(),
        "total_paths": total_paths,
        "max_paths_per_ladder": max_paths,
        "max_path_length": max_len,
        "truncated_paths": truncated,
        "violations": violations,
        "first_violation_seed": first_violation_seed,
    }
