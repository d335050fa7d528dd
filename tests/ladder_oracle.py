"""Oracles for ``dehnfill.ladders``.

``draw`` is the ladder draw as it was first written, with ``randint``,
``sample`` and ``shuffle``.  The library rebuilds the same stream from
``getrandbits`` alone; tests check that both give the same ladder and leave the
generator in the same state.

``separation_check`` is the separation check as it was first written: for each
line the path meets it rebuilds the whole cell graph and searches it from the
cells below that line.  The library labels the components of one graph instead;
tests check that both give the same verdict.
"""

from dehnfill.ladders import (
    CarriedPath,
    LadderTrack,
    _rung_lists,
    _sorted_feet,
    standard_orientations,
)


def draw(rng, max_levels, max_rungs_per_gap, alternating):
    """The random ladder that ``rng`` gives, in the layout of ``_draw``."""
    randint = rng.randint
    n_levels = randint(2, max_levels)
    orientations = standard_orientations(n_levels) if alternating else (1,) * n_levels
    level = []
    for gap in range(n_levels - 1):
        level += [gap] * randint(0, max_rungs_per_gap)
    n_rungs = len(level)
    low = rng.sample(range(4, 16 * (n_rungs + 2), 4), n_rungs)
    rng.shuffle(low)
    high = [x + randint(-1, 1) for x in low]
    if alternating:
        cusp_low = [orientations[g] for g in level]
        cusp_high = [orientations[g + 1] for g in level]
    else:
        cusp_low = [1] * n_rungs
        cusp_high = [-1] * n_rungs
    return n_levels, orientations, level, low, high, cusp_low, cusp_high


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
