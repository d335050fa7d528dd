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
from dataclasses import dataclass
from numbers import Integral, Rational

from . import _ladder
from ._ladder_states import state_decoder

__all__ = [
    "Rung",
    "LadderTrack",
    "OrientedLadder",
    "CarriedPath",
    "random_ladder",
    "orient_ladder",
    "enumerate_carried_paths",
    "check_two_line_property",
    "separation_check",
    "verify_ladders",
    "kernel_backend",
]


def kernel_backend() -> str:
    return _ladder.BACKEND


@dataclass(frozen=True)
class Rung:
    """A rung from ``lower_level`` to the level above.

    Positions along the two lines are exact rationals of any type (``int``,
    ``Fraction``); only their order along each line matters.
    """

    lower_level: int
    low_pos: Rational
    high_pos: Rational
    cusp_low: int  # geometric sign along the lower line
    cusp_high: int

    def __post_init__(self):
        if self.cusp_low not in (-1, 1) or self.cusp_high not in (-1, 1):
            raise ValueError("cusp signs must be +1 or -1")
        for pos in (self.low_pos, self.high_pos):
            if not isinstance(pos, Rational):
                raise ValueError(
                    "rung positions must be exact rationals (int or Fraction), not %r" % (pos,)
                )


@dataclass(frozen=True)
class LadderTrack:
    n_levels: int
    orientations: tuple  # chosen orientation sign per level
    rungs: tuple

    def __post_init__(self):
        if self.n_levels < 1 or len(self.orientations) != self.n_levels:
            raise ValueError("need one orientation sign per level")
        if any(o not in (-1, 1) for o in self.orientations):
            raise ValueError("orientations must be +1 or -1")
        feet = set()
        for r in self.rungs:
            if not 0 <= r.lower_level < self.n_levels - 1:
                raise ValueError("rung joins missing levels")
            for foot in ((r.lower_level, r.low_pos), (r.lower_level + 1, r.high_pos)):
                if foot in feet:
                    raise ValueError("rung feet on level %d collide" % foot[0])
                feet.add(foot)

    def is_leaf_trace_type(self) -> bool:
        """Alternating chosen orientations with cusp agreement at both ends."""
        level, _, _, cusp_low, cusp_high = _rung_lists(self.rungs)
        return _leaf_trace_type(self.orientations, level, cusp_low, cusp_high)


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


def _leaf_trace_type(orientations, level, cusp_low, cusp_high):
    """The leaf-trace predicate on per-rung lists: orientations alternate, and
    every rung's cusps agree with the orientations of its two lines."""
    first = orientations[0]
    if any(o != (first if k % 2 == 0 else -first) for k, o in enumerate(orientations)):
        return False
    return cusp_low == [orientations[g] for g in level] and cusp_high == [
        orientations[g + 1] for g in level
    ]


def standard_orientations(n_levels):
    return tuple(1 if k % 2 == 0 else -1 for k in range(n_levels))


# The largest max_levels and max_rungs_per_gap of a seeded ladder.  Up to it a
# ladder has fewer than 2**20 rungs and 2**23 path states, so the compiled
# kernel holds every count in a C int and every draw in one 32-bit word.
SIZE_CAP = 1000


def _check_sizes(max_levels, max_rungs_per_gap):
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


def _check_seed(seed):
    # Random would accept a float or a str and seed from its hash.
    if not isinstance(seed, Integral):
        raise TypeError("seed must be an integer, not %r" % (seed,))


def _check_step_bound(step_bound):
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
    _check_seed(seed)
    _check_sizes(max_levels, max_rungs_per_gap)
    n_levels, orientations, *rung_lists = _draw(
        _random.Random(seed), max_levels, max_rungs_per_gap, alternating
    )
    return LadderTrack(n_levels, orientations, tuple(map(Rung, *rung_lists)))


@dataclass(frozen=True)
class OrientedLadder:
    track: LadderTrack
    forward_dir: int  # the uniform geometric direction of the track orientation
    rung_upward: tuple  # rule: rungs point up from odd levels, down from even


def orient_ladder(track: LadderTrack) -> OrientedLadder:
    """Assign the track orientation: even lines keep their chosen direction,
    odd lines flip, rungs run upward exactly when leaving an odd level.

    Raises unless the cusp data certifies the ladder as leaf-trace type.
    """
    if not track.is_leaf_trace_type():
        raise ValueError("not a leaf-trace-type ladder (cusp/orientation mismatch)")
    forward_dir = track.orientations[0]  # == orientations[k] * parity sign, all k
    rung_upward = tuple(r.lower_level % 2 == 1 for r in track.rungs)
    return OrientedLadder(track=track, forward_dir=forward_dir, rung_upward=rung_upward)


def _encode(track: LadderTrack):
    """The kernel's plain-int encoding of a ladder (see ``_ladder_py``)."""
    return _encode_lists(track.n_levels, track.orientations, *_rung_lists(track.rungs))


def _encode_lists(n_levels, orientations, level, low, high, cusp_low, cusp_high):
    """The kernel's encoding of a ladder given as ``_draw`` returns it.

    Raises ``ValueError`` when two feet on one level share a position.
    """
    offsets = [0]
    sw_rung = []
    sw_end = []
    lo_idx = [0] * len(level)
    hi_idx = [0] * len(level)
    for k, level_feet in enumerate(_sorted_feet(n_levels, level, low, high)):
        for local, (pos, r, end) in enumerate(level_feet):
            if local and pos == level_feet[local - 1][0]:
                raise ValueError("rung feet on level %d collide" % k)
            sw_rung.append(r)
            sw_end.append(end)
            if end == 0:
                lo_idx[r] = local
            else:
                hi_idx[r] = local
        offsets.append(len(sw_rung))
    forward = orientations[0] if _leaf_trace_type(orientations, level, cusp_low, cusp_high) else 1
    return offsets, sw_rung, sw_end, level, cusp_low, cusp_high, lo_idx, hi_idx, forward


@dataclass(frozen=True)
class CarriedPath:
    """A maximal directed path: line runs and rung crossings in order."""

    steps: tuple  # ("line", level, segment, dir) / ("rung", index, dir)
    truncated: bool

    @property
    def levels_met(self):
        return tuple(sorted({s[1] for s in self.steps if s[0] == "line"}))

    @property
    def rungs_used(self):
        return tuple(s[1] for s in self.steps if s[0] == "rung")


def _carried_paths(enc, raw_paths):
    """Kernel paths, given as states of the encoding ``enc``, as CarriedPaths."""
    decode = state_decoder(enc[0])
    return [
        CarriedPath(steps=tuple(map(decode, states)), truncated=truncated)
        for states, truncated in raw_paths
    ]


def enumerate_carried_paths(track: LadderTrack, step_bound: int = 10**4):
    """All maximal carried paths, one per undirected trace, in a
    deterministic order; truncation at the step bound is flagged."""
    _check_step_bound(step_bound)
    enc = _encode(track)
    raw, *_ = _ladder.scan_track(*enc, step_bound, True)
    return _carried_paths(enc, raw)


def check_two_line_property(track: LadderTrack, step_bound: int = 10**4):
    """Every maximal carried path must meet at most one even and at most one
    odd line, entering even lines for good and leaving odd ones only once.

    Returns ``(ok, witnesses)`` with the offending paths, if any.
    """
    _check_step_bound(step_bound)
    enc = _encode(track)
    _, n_paths, n_viol, _, _, witness = _ladder.scan_track(*enc, step_bound, False)
    if n_viol == 0:
        return True, []
    return False, _carried_paths(enc, [(witness, False)])


def separation_check(track: LadderTrack, path: CarriedPath) -> bool:
    """Does deleting the path's trace split the ladder band across its level?

    For each interior line the path meets, removing the path must disconnect
    the strip cells touching levels two or more below from those two or more
    above.  Truncation levels are skipped to avoid edge artifacts.
    """
    if not path.levels_met:
        raise ValueError("path meets no line")
    segments_on = {}
    for step in path.steps:
        if step[0] == "line":
            segments_on.setdefault(step[1], set()).add(step[2])
    rungs_on = set(path.rungs_used)

    # Geometry: cells of the strip between level g and g+1, split by rungs,
    # between sentinels left and right of every foot.
    positions = [r.low_pos for r in track.rungs] + [r.high_pos for r in track.rungs]
    left_end = min(positions, default=0) - 1
    right_end = max(positions, default=0) + 1
    feet_by_level = _sorted_feet(track.n_levels, *_rung_lists(track.rungs)[:3])
    gap_rungs = {
        g: sorted(
            (i for i, r in enumerate(track.rungs) if r.lower_level == g),
            key=lambda i: track.rungs[i].low_pos,
        )
        for g in range(track.n_levels - 1)
    }

    def cell_span(g, c):
        """Horizontal extent of cell c in gap g (open interval)."""
        rs = gap_rungs[g]
        left = left_end if c == 0 else max(
            track.rungs[rs[c - 1]].low_pos, track.rungs[rs[c - 1]].high_pos
        )
        right = right_end if c == len(rs) else min(
            track.rungs[rs[c]].low_pos, track.rungs[rs[c]].high_pos
        )
        return left, right

    def free_intervals(level):
        """Sub-intervals of the level line not covered by the path."""
        feet = [pos for pos, _, _ in feet_by_level[level]]
        cuts = [left_end] + feet + [right_end]
        covered = segments_on.get(level, set())
        return [
            (cuts[i], cuts[i + 1])
            for i in range(len(cuts) - 1)
            if i not in covered
        ]

    def cells_connected(g, c, g2, c2):
        """Adjacent-gap cells joined through an uncovered part of the line."""
        (l1, r1), (l2, r2) = cell_span(g, c), cell_span(g2, c2)
        lo, hi = max(l1, l2), min(r1, r2)
        if lo >= hi:
            return False
        level = max(g, g2)
        return any(max(lo, a) < min(hi, b) for a, b in free_intervals(level))

    ok = True
    interior = [
        j
        for j in path.levels_met
        if j not in (0, track.n_levels - 1)
    ]
    for j in interior:
        below = set()
        above = set()
        nodes = []
        for g in range(track.n_levels - 1):
            for c in range(len(gap_rungs[g]) + 1):
                nodes.append((g, c))
                if g <= j - 2:
                    below.add((g, c))
                if g + 1 >= j + 2:
                    above.add((g, c))
        if not below or not above:
            continue  # vacuous near the boundary
        adj = {node: [] for node in nodes}
        for g in range(track.n_levels - 1):
            rs = gap_rungs[g]
            for c in range(len(rs)):
                if rs[c] not in rungs_on:
                    adj[(g, c)].append((g, c + 1))
                    adj[(g, c + 1)].append((g, c))
            if g + 1 <= track.n_levels - 2:
                for c in range(len(rs) + 1):
                    for c2 in range(len(gap_rungs[g + 1]) + 1):
                        if cells_connected(g, c, g + 1, c2):
                            adj[(g, c)].append((g + 1, c2))
                            adj[(g + 1, c2)].append((g, c))
        seen = set(below)
        stack = list(below)
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen & above:
            ok = False
    return ok


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
    if cases < 0:
        raise ValueError("cases must be a count >= 0, not %r" % (cases,))
    _check_seed(seed)
    _check_sizes(max_levels, max_rungs_per_gap)
    _check_step_bound(step_bound)
    # Case i is the ladder that Random(seed + i) draws; one kernel call scans
    # them all.
    _, total_paths, violations, truncated, max_len, _, max_paths, first_violation_seed = (
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
