"""Oracles for ``dehnfill.tracks.build_boundary_track``,
``dehnfill.tracks.validate_track`` and ``dehnfill.tracks.random_track``.

``fraction_boundary_track`` is the boundary-track builder as it was first
written, with every foot position a ``Fraction`` and the crossings found by
``floor`` of a true division.  ``set_validate_track`` is the track validator
as it was first written, with the ends it has seen in a set of ``(branch,
end)`` tuples and the connectivity check on a dict of sets.
``method_random_track`` is the random track as it was first written, drawn
with ``Random.choice``, ``randint`` and ``shuffle`` and validated whole.  The
library builds the same track on integer foot coordinates, validates it on
a flat per-end list, and draws it through ``getrandbits`` alone; tests check
that each pair gives equal tracks, or raises the same ``ValueError``.
"""

import random
from math import floor

from dehnfill.monodromy import Coorientation, DegeneracyLocus, classify_coorientation
from dehnfill.tracks import (
    CONFIG_PRESETS,
    HEAD,
    TAIL,
    Branch,
    EndpointConfig,
    Switch,
    TorusTrainTrack,
)


def fraction_boundary_track(
    locus: DegeneracyLocus, c: int, config: EndpointConfig | None = None
) -> TorusTrainTrack:
    """Boundary train track on the filling torus for locus ``(p; q)`` and
    orbit length ``c``.

    The track has ``c`` longitudinal circles (one per fiber level) and ``p``
    rungs per level, one per boundary segment.  A rung starting at an
    outgoing arc endpoint is oriented up the suspension direction, one at an
    incoming endpoint down; level ``c`` reattaches to level 0 shifted by
    ``q`` segments.  Cusps at the feet follow the left/right rule for
    lower/upper arcs, which here pins, at every foot, which circle side is
    the smooth side.
    """
    if c < 1:
        raise ValueError("orbit length must be >= 1")
    if classify_coorientation(locus) != Coorientation.REVERSING:
        raise ValueError(
            "reversing co-orientation parity required (odd q); preserving-parity "
            "loci are outside the guaranteed construction"
        )
    if config is None:
        config = CONFIG_PRESETS["default"]
    p, q = locus.p, locus.q

    def is_out(m, j):
        return (m + j + config.phase) % 2 == 0

    branches = []
    rung_index = {}  # (j, m) -> branch id
    rung_data = {}
    for j in range(c):
        for m in range(p):
            out = is_out(m, j)
            wrap = j == c - 1
            x_low = m + (config.lower_out if out else config.lower_in)
            tgt_seg_raw = m + (q if wrap else 0)
            frac_up = (
                config.lower_out + config.upper_nudge
                if out
                else config.lower_in - config.upper_nudge
            )
            x_up_raw = tgt_seg_raw + frac_up
            crossings = floor(x_up_raw / p) - floor(x_low / p)
            a, b = (1 if wrap else 0), crossings
            if not out:
                a, b = -a, -b
            bid = len(branches)
            branches.append(Branch(a, b, label="rung[%d,%d]" % (j, m)))
            rung_index[(j, m)] = bid
            rung_data[(j, m)] = dict(
                out=out,
                x_low=x_low,
                level_up=(j + 1) % c,
                x_up=x_up_raw % p,
                cusp_low=(-1 if out else 1),
            )

    # Feet on each circle, then circle segments between consecutive feet.
    feet = {j: [] for j in range(c)}  # (position, kind, (j_rung, m_rung))
    for (j, m), data in rung_data.items():
        feet[j].append((data["x_low"], "lower", (j, m)))
        feet[data["level_up"]].append((data["x_up"], "upper", (j, m)))
    switches = []
    for j in range(c):
        feet[j].sort()
        positions = [f[0] for f in feet[j]]
        if len(set(positions)) != len(positions):
            raise ValueError("config produces colliding feet on circle %d" % j)
        seg_ids = []
        for k, start in enumerate(positions):
            end = positions[(k + 1) % len(positions)]
            crosses = 1 if k == len(positions) - 1 else 0  # wraps past x = 0
            bid = len(branches)
            branches.append(Branch(0, crosses, label="circle[%d]seg[%d]" % (j, k)))
            seg_ids.append(bid)
        for k, (pos, kind, key) in enumerate(feet[j]):
            data = rung_data[key]
            rung_bid = rung_index[key]
            out = data["out"]
            if kind == "lower":
                cusp = data["cusp_low"]
                rung_end = TAIL if out else HEAD  # up-rungs leave, down arrive
            else:
                cusp = -data["cusp_low"]
                rung_end = HEAD if out else TAIL
            before = (seg_ids[k - 1], HEAD)  # segment arriving at this foot
            after = (seg_ids[k], TAIL)  # segment leaving this foot
            if cusp == 1:
                single, double = after, (before, (rung_bid, rung_end))
            else:
                single, double = before, (after, (rung_bid, rung_end))
            switches.append(
                Switch(
                    single=single,
                    double=double,
                    label="circle[%d]%s[%s]" % (j, kind, pos),
                )
            )
    return TorusTrainTrack(tuple(branches), tuple(switches))


def set_validate_track(track: TorusTrainTrack):
    """``validate_track`` with its connectivity check on a dict of sets."""
    n = len(track.branches)
    used = set()
    for sw in track.switches:
        ends = (sw.single, *sw.double)
        if len(set(ends)) != 3:
            raise ValueError("switch %r must reference three distinct ends" % (sw.label,))
        for bid, end in ends:
            if not (0 <= bid < n) or end not in (TAIL, HEAD):
                raise ValueError("switch %r references a bad end" % (sw.label,))
            if (bid, end) in used:
                raise ValueError(
                    "branch end (%d, %d) attached to two switches" % (bid, end)
                )
            used.add((bid, end))
        # Orientation coherence: the smooth side flows opposite to the cusped
        # side, so a tail there forces heads on the double side and vice versa.
        single_out = sw.single[1] == TAIL
        for bid, end in sw.double:
            if (end == TAIL) == single_out:
                raise ValueError("switch %r mixes orientations" % (sw.label,))
    for bid in range(n):
        attached = ((bid, TAIL) in used) + ((bid, HEAD) in used)
        if attached == 1:
            raise ValueError(
                "branch %d has one attached end; branches are loops or fully attached"
                % bid
            )
    # Connectivity over the branch graph (switches join their branches).
    if n:
        adj = {i: set() for i in range(n)}
        for sw in track.switches:
            ids = [bid for bid, _ in (sw.single, *sw.double)]
            for x in ids:
                for y in ids:
                    adj[x].add(y)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != n:
            raise ValueError("track is disconnected")


def method_random_track(seed: int) -> TorusTrainTrack:
    """``random_track`` through ``Random``'s methods: each draw is built into
    a ``TorusTrainTrack``, whose validation rejects a disconnected one."""
    rng = random.Random(seed)
    for _ in range(200):
        n_switches = rng.choice([0, 2, 2, 4])
        n_joint = 3 * n_switches // 2
        n_loops = rng.randint(0 if n_joint else 1, 2)
        n = n_joint + n_loops
        branches = tuple(
            Branch(rng.randint(-2, 2), rng.randint(-2, 2), label="b%d" % i)
            for i in range(n)
        )
        tails = [(i, TAIL) for i in range(n_joint)]
        heads = [(i, HEAD) for i in range(n_joint)]
        rng.shuffle(tails)
        rng.shuffle(heads)
        switches = []
        for k in range(n_switches):
            if k < n_switches // 2:
                single = tails.pop()
                double = (heads.pop(), heads.pop())
            else:
                single = heads.pop()
                double = (tails.pop(), tails.pop())
            switches.append(Switch(single=single, double=double, label="s%d" % k))
        try:
            return TorusTrainTrack(branches, tuple(switches))
        except ValueError:
            continue
    raise RuntimeError("could not sample a valid track")
