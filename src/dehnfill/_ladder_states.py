"""Decoding the path states that both ladder kernels emit.

States: for level k with S_k switches there are S_k + 1 line segments; a line
state is ``2*(offsets[k] + k + seg) + (dir > 0)`` and a rung state is
``line_state_count + 2*r + (dir > 0)`` where ``dir = +1`` heads to the upper
end.  This module imports no kernel, so the library can decode paths from
whichever kernel ``dehnfill._ladder`` selected without loading the other.
"""

from bisect import bisect_right


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
