"""Pure-Python ladder kernel: maximal carried-path enumeration and the
two-line check.  dehnfill._ladder selects this module when the compiled
extension is unavailable; both expose the same ``scan_ladder``.

Track encoding (all plain ints):
  offsets    -- per-level CSR offsets into the switch arrays, length n+1
  sw_rung    -- rung id of each switch, in position order along its level
  sw_end     -- 0 if the switch is the rung's lower end, 1 if upper
  rung_level -- lower level of each rung
  cusp_lo/hi -- geometric cusp signs (+1/-1 along the lines) at each end
  lo_idx/hi_idx -- per-level switch index of each rung end

States: for level k with S_k switches there are S_k + 1 line segments; a line
state is ``2*(offsets[k] + k + seg) + (dir > 0)`` and a rung state is
``line_state_count + 2*r + (dir > 0)`` where ``dir = +1`` heads to the upper
end.  The reverse of a maximal path is again one, so each undirected path is
emitted once, from its lexicographically smaller direction.
"""

from bisect import bisect_right

BACKEND = "python"


def state_decoder(offsets):
    """The decoder of the states of a track with these ``offsets``: it maps a
    state to ``("line", level, segment, dir)`` or ``("rung", index, dir)``."""
    # First segment index of each level; strictly increasing.
    starts = [offset + level for level, offset in enumerate(offsets[:-1])]
    n_line_states = 2 * (offsets[-1] + len(starts))

    def decode(state):
        if state < n_line_states:
            idx, fwd = divmod(state, 2)
            level = bisect_right(starts, idx) - 1
            return ("line", level, idx - starts[level], 1 if fwd else -1)
        idx, up = divmod(state - n_line_states, 2)
        return ("rung", idx, 1 if up else -1)

    return decode


def _build_tables(offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi, lo_idx, hi_idx):
    n_levels = len(offsets) - 1
    n_sw = offsets[-1]
    n_line_states = 2 * (n_sw + n_levels)
    decode = state_decoder(offsets)

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

    def flip(state):
        return state ^ 1

    sources = []
    for level in range(n_levels):
        n_here = offsets[level + 1] - offsets[level]
        sources.append(line_state(level, 0, True))
        sources.append(line_state(level, n_here, False))
    return decode, successors, flip, sources


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


def scan_ladder(
    offsets,
    sw_rung,
    sw_end,
    rung_level,
    cusp_lo,
    cusp_hi,
    lo_idx,
    hi_idx,
    forward_dir,
    step_bound,
    collect,
):
    """Enumerate every maximal carried path; check the two-line property.

    Returns ``(paths, n_paths, n_violations, n_truncated, max_len, witness)``
    with ``paths`` None unless ``collect``; ``witness`` is the first
    violating path, if any.  Deterministic: sources in level order, the
    straight-through continuation explored before the rung exit.
    """
    decode, successors, flip, sources = _build_tables(
        offsets, sw_rung, sw_end, rung_level, cusp_lo, cusp_hi, lo_idx, hi_idx
    )
    paths = [] if collect else None
    n_paths = 0
    n_violations = 0
    n_truncated = 0
    max_len = 0
    witness = None

    # Iterative DFS over the choice tree from each source.
    for src in sources:
        stack = [(src, False)]
        path = []
        while stack:
            state, visited = stack.pop()
            if visited:
                path.pop()
                continue
            stack.append((state, True))
            path.append(state)
            truncated = False
            if len(path) >= step_bound or state in path[:-1]:
                nxt = ()
                truncated = True
            else:
                nxt = successors(state)
            if nxt:
                for s in reversed(nxt):
                    stack.append((s, False))
                continue
            # Maximal (or truncated) path; emit once per undirected path.
            rev = tuple(flip(s) for s in reversed(path))
            fwd = tuple(path)
            if fwd > rev:
                continue
            n_paths += 1
            if truncated:
                n_truncated += 1
            if len(fwd) > max_len:
                max_len = len(fwd)
            if _path_violates(fwd, decode, forward_dir):
                n_violations += 1
                if witness is None:
                    witness = fwd
            if collect:
                paths.append((fwd, truncated))
    return paths, n_paths, n_violations, n_truncated, max_len, witness
