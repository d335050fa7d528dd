"""Pure-Python ladder kernel: maximal carried-path counts and the two-line
check.  One function answers each question of one given ladder:
``carried_paths`` lists its paths and ``first_violation`` finds the first
violating one, for ``dehnfill.ladders``, which imports this module only for
them, whichever kernel is in use; ``_counts`` counts them, for ``fold_in``.
``scan_ladder`` scans a run of consecutive seeds in one call, one ladder
after another, each drawn from ``random.Random(seed + i)``;
``dehnfill._ladder`` selects it when the compiled extension is unavailable.
The compiled kernel has only ``scan_ladder``: it runs its own MT19937s seeded
from the same ints, eight seedings at a time, so this module is the oracle
for that seeding, for each ladder's counts and for the sums over the run.
The compiled kernel only counts, by the path DP below: this module is the
only enumerator of paths and the only witness search, and the compiled kernel
hands it every ladder that the DP cannot count or whose counts leave 64 bits,
and every run whose seeds leave a C ``long long``.

The state graph.  ``_build_tables`` is its one owner: it builds the graph
of a ladder given as ``dehnfill.ladders._draw`` returns it, ``(n_levels,
orientations, level, low, high, cusp_lo, cusp_hi)``, sorting the rung feet
of each level into its switches.  States: for level k with S_k switches,
``offsets[k]`` of them on the levels below, there are S_k + 1 line
segments; a line state is ``2*(offsets[k] + k + seg) + (dir > 0)`` and a
rung state is ``line_state_count + 2*r + (dir > 0)`` where ``dir = +1``
heads to the upper end.  The reverse of a maximal path is again one, so
each undirected path is emitted once, from its lexicographically smaller
direction.  ``forward_dir`` is the orientation of level 0 on a ladder of the
leaf-trace type, else +1.

Counting by dynamic programming.  A maximal path runs from a line end heading
in (a source) to a line end heading out (a sink).  Line steps keep the level
and the direction; a rung crossing moves one level up or down, and keeps the
direction unless the rung's two cusps are equal.  So ``_path_violates``
reduces to an automaton on the number ``k`` of rungs crossed: a path with no
rung holds; a second rung, or a rung that turns the direction, violates; and
a path with one rung holds exactly when, read along ``forward_dir``, it runs
from an odd line to an even one, which its sink's level and direction decide.
``_suffix_counts`` counts, for each state, the maximal paths from it and the
violating ones among them for ``k`` = 0 and 1, by one memoised search in
postorder.  Summed over the sources these count directed paths.  No successor
of a state ``s`` is ``s ^ 1``, so no path is its own reverse, and a path and
its reverse get the same verdict: halving gives exactly the counts of the
emitting search, ``_search``.  That search is the oracle, and runs where the
DP does not apply: a cycle, where it truncates at a repeated state, or a path
of ``step_bound`` states or more.  ``_first_witness`` goes straight down to
the first violating path where the DP applies.  ``scan_ladder`` is
``fold_in`` over its seeds from a zero result, and the compiled kernel has
``fold_in`` add the ladders that it cannot count.  Neither searches for a
witness: a bulk scan reports the lowest violating seed, and
``first_violation`` of that seed's ladder gives the path.
"""

import random as _random
from bisect import bisect_right
from collections import namedtuple

BACKEND = "python"


_Tables = namedtuple(
    "_Tables", "decode successors sources n_states n_line_states cusp_lo cusp_hi forward_dir"
)


def _leaf_trace_type(orientations, level, cusp_low, cusp_high):
    """The leaf-trace predicate on per-rung lists: orientations alternate, and
    every rung's cusps agree with the orientations of its two lines."""
    first = orientations[0]
    if any(o != (first if k % 2 == 0 else -first) for k, o in enumerate(orientations)):
        return False
    return cusp_low == [orientations[g] for g in level] and cusp_high == [
        orientations[g + 1] for g in level
    ]


def _build_tables(n_levels, orientations, rung_level, low, high, cusp_lo, cusp_hi):
    """The state graph of a ladder given as ``ladders._draw`` returns it:
    ``decode`` maps a state to ``("line", level, segment, dir)`` or
    ``("rung", index, dir)``, ``successors`` to its 0, 1 or 2 follow-up
    states, and ``sources`` lists each level's two line ends heading in."""
    from .ladders import _sorted_feet  # ladders imports this module

    offsets = [0]
    sw_rung = []
    sw_end = []  # 0 if the switch is its rung's lower end, 1 if upper
    lo_idx = [0] * len(rung_level)  # per rung, the index of each end among its level's switches
    hi_idx = [0] * len(rung_level)
    for level_feet in _sorted_feet(n_levels, rung_level, low, high):
        for k, (_, r, end) in enumerate(level_feet):
            sw_rung.append(r)
            sw_end.append(end)
            if end == 0:
                lo_idx[r] = k
            else:
                hi_idx[r] = k
        offsets.append(len(sw_rung))
    leaf_trace = _leaf_trace_type(orientations, rung_level, cusp_lo, cusp_hi)
    forward_dir = orientations[0] if leaf_trace else 1
    n_line_states = 2 * (offsets[-1] + n_levels)
    # First segment index of each level; strictly increasing.
    starts = [offset + level for level, offset in enumerate(offsets[:-1])]

    def decode(state):
        if state < n_line_states:
            idx, fwd = divmod(state, 2)
            level = bisect_right(starts, idx) - 1
            return ("line", level, idx - starts[level], 1 if fwd else -1)
        idx, up = divmod(state - n_line_states, 2)
        return ("rung", idx, 1 if up else -1)

    def line_state(level, seg, forward):
        return 2 * (offsets[level] + level + seg) + (1 if forward else 0)

    def rung_state(r, up):
        return n_line_states + 2 * r + (1 if up else 0)

    def switch_cusp(level, k):
        r = sw_rung[offsets[level] + k]
        return cusp_lo[r] if sw_end[offsets[level] + k] == 0 else cusp_hi[r]

    def successors(state):
        """0, 1 or 2 follow-up states; the rung exit, when legal, comes last."""
        kind = decode(state)
        if kind[0] == "line":
            _, level, seg, d = kind
            n_here = offsets[level + 1] - offsets[level]
            k = seg if d > 0 else seg - 1  # switch ahead
            if k < 0 or k >= n_here:
                return ()  # line end: maximal
            cusp = switch_cusp(level, k)
            cont = line_state(level, seg + d, d > 0)
            if d == cusp:
                return (cont,)
            sw = offsets[level] + k
            r = sw_rung[sw]
            up = sw_end[sw] == 0  # leaving from the lower end heads up
            return (cont, rung_state(r, up))
        _, r, d = kind
        if d > 0:
            level = rung_level[r] + 1
            k = hi_idx[r]
            cusp = cusp_hi[r]
        else:
            level = rung_level[r]
            k = lo_idx[r]
            cusp = cusp_lo[r]
        seg = k + 1 if cusp > 0 else k
        return (line_state(level, seg, cusp > 0),)

    sources = []
    for level in range(n_levels):
        sources.append(line_state(level, 0, True))
        sources.append(line_state(level, offsets[level + 1] - offsets[level], False))
    n_states = n_line_states + 2 * len(rung_level)
    return _Tables(
        decode, successors, sources, n_states, n_line_states, cusp_lo, cusp_hi, forward_dir
    )


def _path_violates(path, decode, forward_dir):
    """Two-line property with the one-way entry/exit discipline."""
    dirs = set()
    steps = []
    for state in path:
        kind = decode(state)
        if kind[0] == "line":
            dirs.add(kind[3])
            steps.append(kind[1])
        else:
            steps.append(None)
    if len(dirs) > 1:
        return True  # direction-incoherent: not carried by an oriented track
    if dirs == {-forward_dir}:
        steps.reverse()
    evens = {s for s in steps if s is not None and s % 2 == 0}
    odds = {s for s in steps if s is not None and s % 2 == 1}
    if len(evens) > 1 or len(odds) > 1:
        return True
    pattern = []
    for s in steps:
        if s is None:
            continue
        tag = s % 2
        if not pattern or pattern[-1] != tag:
            pattern.append(tag)
    return pattern not in ([], [0], [1], [1, 0])


def _emitted(path):
    """Whether the search emits this maximal path: it is the smaller of
    itself and its reverse ``path[::-1] ^ 1``."""
    last = len(path) - 1
    j = 0
    while j <= last and path[j] == path[last - j] ^ 1:
        j += 1
    return j > last or path[j] < path[last - j] ^ 1


def _suffix_counts(tables, step_bound):
    """The path DP, or None when the states that the sources reach hold a
    cycle or a path of ``step_bound`` states, where the search truncates.
    Returns lists indexed by state, filled for those states:
    ``total``, the maximal paths from the state; ``bad0`` and ``bad1``, those
    of them that make the whole path violate when the path up to and with the
    state has crossed 0 or 1 rungs; and ``longest``, the most states on one
    of them."""
    decode, successors, sources, n_states, n_line_states, cusp_lo, cusp_hi, forward_dir = tables
    total = [0] * n_states
    bad0 = [0] * n_states
    bad1 = [0] * n_states
    longest = [0] * n_states
    mark = bytearray(n_states)  # 1 while on the search path, 2 once counted
    for src in sources:  # no source is a successor, so none is marked yet
        mark[src] = 1
        stack = [(src, successors(src))]
        while stack:
            s, nxt = stack[-1]
            for t in nxt:
                if mark[t] == 0:
                    if len(stack) + 1 >= step_bound:
                        return None
                    mark[t] = 1
                    stack.append((t, successors(t)))
                    break
                if mark[t] == 1:
                    return None
            else:
                stack.pop()
                mark[s] = 2
                if not nxt:  # a sink, where a one-rung path is judged
                    _, level, _, d = decode(s)
                    total[s] = longest[s] = 1
                    bad1[s] = int((d == forward_dir) != (level % 2 == 0))
                    continue
                a = nxt[0]  # a line state
                total[s], bad0[s], bad1[s], longest[s] = total[a], bad0[a], bad1[a], longest[a] + 1
                if len(nxt) == 2:
                    b = nxt[1]  # the rung exit
                    r = (b - n_line_states) >> 1
                    total[s] += total[b]
                    bad0[s] += total[b] if cusp_lo[r] == cusp_hi[r] else bad1[b]
                    bad1[s] += total[b]
                    longest[s] = max(longest[s], longest[b] + 1)
        # The stack stays below step_bound states, but a memoised state can
        # end a longer path.
        if longest[src] >= step_bound:
            return None
    return total, bad0, bad1, longest


def _first_witness(tables, counts):
    """The first violating path that ``_search`` emits, or None: from the
    first source from which a path violates, at each state the first
    successor through which, with the rungs crossed so far, some maximal path
    violates (``counts`` from ``_suffix_counts``).  This never backtracks.
    Successors come in increasing order, so the path is the least violating
    one from its source; its reverse violates too, and starts at a source no
    lower (sources of levels with switches, the only ones a rung is reached
    from, are in increasing order), so the path is the one emitted."""
    _, successors, sources, _, n_line_states, cusp_lo, cusp_hi, _ = tables
    _, bad0, bad1, _ = counts
    bad = (bad0, bad1)
    state = next((src for src in sources if bad0[src]), None)
    if state is None:
        return None
    path = [state]
    crossed = 0  # 2 once the path violates whatever follows
    nxt = successors(state)
    while nxt:
        for state in nxt:
            c = crossed
            if state >= n_line_states:
                r = (state - n_line_states) >> 1
                c = 2 if crossed or cusp_lo[r] == cusp_hi[r] else 1
            if c == 2 or bad[c][state]:
                break
        path.append(state)
        crossed = c
        nxt = successors(state)
    return tuple(path)


def _search(tables, step_bound):
    """Every maximal carried path, as ``(states, truncated)``, once per
    undirected path; the oracle of the DP.  A path is truncated at a repeated
    state or at ``step_bound`` states.  Deterministic: sources in level order,
    the straight-through continuation explored before the rung exit."""
    successors, sources, n_states = tables.successors, tables.sources, tables.n_states
    # Iterative DFS over the choice tree from each source.  on_path counts
    # the occurrences of each state on the current path.
    on_path = bytearray(n_states)
    for src in sources:
        stack = [(src, False)]
        path = []
        while stack:
            state, visited = stack.pop()
            if visited:
                on_path[path.pop()] -= 1
                continue
            stack.append((state, True))
            path.append(state)
            truncated = len(path) >= step_bound or on_path[state] > 0
            on_path[state] += 1
            nxt = () if truncated else successors(state)
            if nxt:
                for s in reversed(nxt):
                    stack.append((s, False))
            elif _emitted(path):
                yield tuple(path), truncated


def _counts(tables, step_bound):
    """``(n_paths, n_violations, n_truncated, max_len)`` of the ladder: by
    the DP where it applies, else by checking each path of the search."""
    counts = _suffix_counts(tables, step_bound)
    if counts is not None:
        total, bad0, _, longest = counts
        sources = tables.sources
        n_paths = sum(total[src] for src in sources) // 2
        n_violations = sum(bad0[src] for src in sources) // 2
        return n_paths, n_violations, 0, max(longest[src] for src in sources)
    decode, forward_dir = tables.decode, tables.forward_dir
    n_paths = n_violations = n_truncated = max_len = 0
    for path, truncated in _search(tables, step_bound):
        n_paths += 1
        if truncated:
            n_truncated += 1
        if len(path) > max_len:
            max_len = len(path)
        if _path_violates(path, decode, forward_dir):
            n_violations += 1
    return n_paths, n_violations, n_truncated, max_len


def carried_paths(ladder, step_bound):
    """The ``(steps, truncated)`` of every maximal carried path of a ladder
    given as ``_draw`` returns it, in the order of ``_search``.  Steps are
    ``("line", level, segment, dir)`` and ``("rung", index, dir)``."""
    tables = _build_tables(*ladder)
    return [(tuple(map(tables.decode, p)), cut) for p, cut in _search(tables, step_bound)]


def first_violation(ladder, step_bound):
    """The ``(steps, truncated)`` of the first path of ``carried_paths`` that
    breaks the two-line property, or None: by ``_first_witness`` where the DP
    applies, which it does only when no path is cut, else from the search,
    which stops at that path."""
    tables = _build_tables(*ladder)
    decode = tables.decode
    counts = _suffix_counts(tables, step_bound)
    if counts is None:
        paths = _search(tables, step_bound)
        bad = (w for w in paths if _path_violates(w[0], decode, tables.forward_dir))
        witness, truncated = next(bad, (None, False))
    else:
        witness, truncated = _first_witness(tables, counts), False
    return None if witness is None else (tuple(map(decode, witness)), truncated)


def scan_ladder(seed, cases, max_levels, max_rungs_per_gap, alternating, step_bound):
    """The counts of ``_counts`` over the ladders that
    ``random.Random(seed)``, ..., ``Random(seed + cases - 1)`` draw, each by
    ``dehnfill.ladders._draw``, then the scan.

    Returns ``(first_violation_seed, n_paths, n_violations, n_truncated,
    max_len, max_paths)``: the lowest seed whose ladder violates, or None;
    the counts summed over the ladders; the longest path; and the most paths
    of one ladder.  No witness is searched for: ``check_two_line_property``
    of ``random_ladder(first_violation_seed, ...)`` gives one.  ``seed`` must
    be an int; Random would seed a float or a str from its hash."""
    if not isinstance(seed, int):
        raise TypeError("seed must be an int, not %s" % type(seed).__name__)
    if cases < 0:
        raise ValueError("cases must be a count >= 0, not %d" % cases)
    return fold_in(
        (None, 0, 0, 0, 0, 0),
        range(seed, seed + cases),
        max_levels,
        max_rungs_per_gap,
        alternating,
        step_bound,
    )


def fold_in(result, seeds, max_levels, max_rungs_per_gap, alternating, step_bound):
    """``result``, a ``scan_ladder`` result that leaves out the ladders of
    ``seeds``, with those ladders scanned and added.  The compiled kernel
    hands over this way the ladders that it cannot count."""
    from .ladders import _draw  # ladders imports this module

    first, n_paths, n_violations, n_truncated, max_len, max_paths = result
    for seed in seeds:
        ladder = _draw(_random.Random(seed), max_levels, max_rungs_per_gap, alternating)
        paths, violations, truncated, longest = _counts(_build_tables(*ladder), step_bound)
        n_paths += paths
        n_violations += violations
        n_truncated += truncated
        max_len = max(max_len, longest)
        max_paths = max(max_paths, paths)
        if violations and (first is None or seed < first):
            first = seed
    return first, n_paths, n_violations, n_truncated, max_len, max_paths
