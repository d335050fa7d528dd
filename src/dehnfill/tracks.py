r"""
Oriented train tracks on a torus: switch conditions, exact weight cones,
carried-slope arcs, and the builder for the boundary track of the branched
surface induced by an admissible arc system on a filling torus.

Homology classes live in the (meridian, longitude) basis: a class ``(a, b)``
corresponds to the slope ``a/b``.  Every branch is oriented (end 0 is the
tail, end 1 the head) and carries an integer class; the class of a carried
curve is the weight-sum of branch classes, which is what makes the weight
cone's image decide the realizable slopes.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .monodromy import Coorientation, DegeneracyLocus, classify_coorientation
from .slopes import ProjectiveSlope, SlopeInterval

__all__ = [
    "Branch",
    "Switch",
    "TorusTrainTrack",
    "EndpointConfig",
    "CarriedSlopes",
    "weight_cone",
    "carried_slopes",
    "integral_carried_classes",
    "build_boundary_track",
    "random_track",
    "track_to_json",
    "track_from_json",
]

TAIL, HEAD = 0, 1


@dataclass(frozen=True)
class Branch:
    """An oriented branch with homology class ``(a, b)``."""

    a: int
    b: int
    label: str = ""


@dataclass(frozen=True)
class Switch:
    """A trivalent switch: one branch-end on the smooth side, two on the
    cusped side.  Ends are ``(branch_index, TAIL|HEAD)``."""

    single: tuple
    double: tuple  # pair of ends
    label: str = ""


@dataclass(frozen=True)
class TorusTrainTrack:
    branches: tuple
    switches: tuple

    def __post_init__(self):
        validate_track(self)

    @property
    def n_branches(self):
        return len(self.branches)


def _switch_ends(sw: Switch):
    return (sw.single, sw.double[0], sw.double[1])


def validate_track(track: TorusTrainTrack):
    n = len(track.branches)
    used = set()
    for sw in track.switches:
        ends = _switch_ends(sw)
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
            ids = [bid for bid, _ in _switch_ends(sw)]
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


def _switch_equations(track: TorusTrainTrack):
    """Rows ``w(single) - w(double_1) - w(double_2) = 0`` as dense tuples."""
    n = len(track.branches)
    rows = []
    for sw in track.switches:
        row = [0] * n
        row[sw.single[0]] += 1
        for bid, _ in sw.double:
            row[bid] -= 1
        rows.append(tuple(row))
    return rows


def _reach(adj, s):
    """Vertices ``>= s`` reachable from ``s`` through vertices ``>= s``."""
    seen = {s}
    stack = [s]
    while stack:
        for w, _ in adj[stack.pop()]:
            if w >= s and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _cycle_masks(track: TorusTrainTrack):
    """Every simple directed cycle of the switch graph as a branch bitmask.

    Switches are the vertices and branch ``b`` is an edge from the switch at
    its tail to the switch at its head, labelled with bit ``n - 1 - b``; a
    cycle's mask is the union of its edge labels.  Johnson's circuit search
    (SIAM J. Comput. 1975) runs iteratively: each start ``s`` is searched
    within its strong component among the vertices ``>= s``, and the
    blocking sets keep the work proportional to the number of cycles found.
    Blocking is per vertex, so parallel branches each close their own cycle:
    a vertex from which a cycle was found is unblocked before the next
    branch into it is tried.
    """
    n = len(track.branches)
    at = {}
    for i, sw in enumerate(track.switches):
        for end in _switch_ends(sw):
            at[end] = i
    masks = []
    succ = [[] for _ in track.switches]  # per vertex: (head vertex, bit)
    pred = [[] for _ in track.switches]  # per vertex: (tail vertex, bit)
    for b in range(n):
        bit = 1 << (n - 1 - b)
        if (b, TAIL) not in at:
            masks.append(bit)  # an unattached loop is a cycle on its own
            continue
        succ[at[b, TAIL]].append((at[b, HEAD], bit))
        pred[at[b, HEAD]].append((at[b, TAIL], bit))

    for s in range(len(succ)):
        comp = _reach(succ, s) & _reach(pred, s)
        adj = {v: [(w, bit) for w, bit in succ[v] if w in comp] for v in comp}
        blocked = {s}
        held = {v: set() for v in comp}  # Johnson's B lists
        path = [s]
        prefix = [0]  # mask of the path up to each vertex
        found = [False]  # whether a cycle was closed below each vertex
        frames = [iter(adj[s])]
        while frames:
            for w, bit in frames[-1]:
                if w == s:
                    masks.append(prefix[-1] | bit)
                    found[-1] = True
                elif w not in blocked:
                    blocked.add(w)
                    path.append(w)
                    prefix.append(prefix[-1] | bit)
                    found.append(False)
                    frames.append(iter(adj[w]))
                    break
            else:
                frames.pop()
                v = path.pop()
                prefix.pop()
                if found.pop():
                    if found:
                        found[-1] = True
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock.extend(held[u])
                            held[u].clear()
                else:
                    for w, _ in adj[v]:
                        held[w].add(v)
    masks.sort()
    return masks


def weight_cone(track: TorusTrainTrack, *, masks: bool = False):
    """Extreme rays of ``{w >= 0 : switch conditions}``.

    Each switch condition is flow conservation at a vertex of the switch
    graph, so the cone is a circulation cone and its extreme rays are the
    0/1 vectors of the simple directed cycles (Penner–Harer, *Combinatorics
    of Train Tracks*, 1992).  Rays come in lexicographic order; an empty
    list means the track carries nothing.  With ``masks=True`` each ray is
    an int whose bit ``n - 1 - b`` is its weight on branch ``b``, in the
    same order.
    """
    rays = _cycle_masks(track)
    if masks:
        return rays
    n = len(track.branches)
    return [tuple((m >> (n - 1 - b)) & 1 for b in range(n)) for m in rays]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class CarriedSlopes:
    """Projectivized homology image of the weight cone.

    ``kind`` is one of ``empty`` (nothing carried), ``single`` (one slope),
    ``arc`` (a salient cone of classes) or ``all`` (the image cone spans a
    half-plane or more).  The arc is closed: extreme rays attain both of its
    endpoints.
    """

    kind: str
    slope: ProjectiveSlope | None = None
    arc: SlopeInterval | None = None
    extreme_classes: tuple = ()

    def contains_class(self, cls) -> bool:
        """Closed containment test for an integer homology class."""
        if cls == (0, 0):
            return False
        s = ProjectiveSlope.of(*cls)
        if self.kind == "empty":
            return False
        if self.kind == "all":
            return True
        if self.kind == "single":
            return s == self.slope
        return self.arc.contains(s)


def carried_slopes(track: TorusTrainTrack, *, rays=None) -> CarriedSlopes:
    """The arc of slopes realizable by curves carried with positive weights.

    ``rays`` is ``weight_cone(track, masks=True)`` when the caller already
    holds it, so the cycles are not enumerated a second time.
    """
    if rays is None:
        rays = weight_cone(track, masks=True)
    if not rays:
        return CarriedSlopes(kind="empty")
    # A ray's class is each branch class times the number of its branches in
    # the cycle, so branches are grouped by class into one bitmask each.
    n = len(track.branches)
    groups = {}
    for b, br in enumerate(track.branches):
        if br.a or br.b:
            groups[br.a, br.b] = groups.get((br.a, br.b), 0) | 1 << (n - 1 - b)
    groups = list(groups.items())
    # Each class once, in the order of its first ray: the checks below use
    # only the set of classes and which one comes first, and the rays can be
    # far more numerous than their classes.
    classes = {}
    for m in rays:
        a = b = 0
        for (ga, gb), g in groups:
            k = (m & g).bit_count()
            a += ga * k
            b += gb * k
        classes[a, b] = None
    nonzero = [c for c in classes if c != (0, 0)]
    if not nonzero:
        # carried_slopes_v1 lists the zero class once per ray here.
        return CarriedSlopes(kind="empty", extreme_classes=((0, 0),) * len(rays))
    extreme = tuple(sorted(nonzero))
    if all(_cross(u, v) == 0 for u in nonzero for v in nonzero):
        return CarriedSlopes(
            kind="single",
            slope=ProjectiveSlope.of(*nonzero[0]),
            extreme_classes=extreme,
        )
    rights = [u for u in nonzero if all(_cross(u, v) >= 0 for v in nonzero)]
    lefts = [v for v in nonzero if all(_cross(u, v) >= 0 for u in nonzero)]
    if not rights or not lefts:
        return CarriedSlopes(kind="all", extreme_classes=extreme)
    e_r = rights[0]
    e_l = lefts[0]
    end_a = ProjectiveSlope.of(*e_r)
    end_b = ProjectiveSlope.of(*e_l)
    if end_a == end_b:
        # Antipodal extreme classes: the cone is a half-plane, which already
        # projects onto every slope.
        return CarriedSlopes(kind="all", extreme_classes=extreme)
    # The complement of the projectivized cone is the open cone between e_r
    # and -e_l, so their difference is a witness strictly outside the arc.
    witness = ProjectiveSlope.of(e_r[0] - e_l[0], e_r[1] - e_l[1])
    arc = SlopeInterval(end_a, end_b, excluded=witness, closed_a=True, closed_b=True)
    return CarriedSlopes(kind="arc", arc=arc, extreme_classes=extreme)


def integral_carried_classes(track: TorusTrainTrack, weight_bound: int):
    """All nonzero integral weight vectors with entries <= bound, with their
    homology classes.  Independent brute-force oracle for ``carried_slopes``;
    never routed through the weight cone."""
    if weight_bound > 12:
        raise ValueError("weight_bound above desk scale")
    n = len(track.branches)
    sparse = [
        [(i, c) for i, c in enumerate(row) if c] for row in _switch_equations(track)
    ]
    out = []
    weights = [None] * n

    def feasible():
        for row in sparse:
            lo = hi = 0
            for idx, coef in row:
                w = weights[idx]
                if w is None:
                    if coef > 0:
                        hi += coef * weight_bound
                    else:
                        lo += coef * weight_bound
                else:
                    lo += coef * w
                    hi += coef * w
            if lo > 0 or hi < 0:
                return False
        return True

    def rec(idx):
        if idx == n:
            if any(weights):
                a = sum(w * br.a for w, br in zip(weights, track.branches))
                b = sum(w * br.b for w, br in zip(weights, track.branches))
                out.append(((a, b), tuple(weights)))
            return
        for val in range(weight_bound + 1):
            weights[idx] = val
            if feasible():
                rec(idx + 1)
        weights[idx] = None

    rec(0)
    return out


@dataclass(frozen=True)
class EndpointConfig:
    """Interleaving of arc-endpoint feet within each boundary segment.

    Outgoing arc endpoints sit at ``segment + lower_out``, incoming ones at
    ``segment + lower_in``; the pushed-off upper feet land at the image
    position nudged by ``upper_nudge`` toward the segment interior.  ``phase``
    flips which segments are outgoing.  The interleaving is a modeling choice
    (only the resulting switch order matters), so alternatives are shipped as
    named presets.
    """

    name: str = "default"
    phase: int = 0
    lower_out: Fraction = Fraction(1, 4)
    lower_in: Fraction = Fraction(3, 4)
    upper_nudge: Fraction = Fraction(1, 8)

    def __post_init__(self):
        fracs = self.foot_fractions()
        if len(set(fracs)) != 4 or not all(0 < f < 1 for f in fracs):
            raise ValueError("foot positions must be four distinct points in (0, 1)")

    def foot_fractions(self):
        return (
            self.lower_out,
            self.lower_in,
            self.lower_out + self.upper_nudge,
            self.lower_in - self.upper_nudge,
        )


CONFIG_PRESETS = {
    "default": EndpointConfig(),
    "phase-flipped": EndpointConfig(name="phase-flipped", phase=1),
    "wide": EndpointConfig(
        name="wide",
        lower_out=Fraction(1, 8),
        lower_in=Fraction(7, 8),
        upper_nudge=Fraction(1, 16),
    ),
}


def build_boundary_track(
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


def random_track(seed: int, max_branches: int = 12) -> TorusTrainTrack:
    """A random connected oriented trivalent track with small classes."""
    import random as _random

    rng = _random.Random(seed)
    for _ in range(200):
        n_switches = rng.choice([0, 2, 2, 4])
        n_joint = 3 * n_switches // 2
        # Loop branches are unconstrained weights, so cap them to keep the
        # brute-force integral enumeration oracle at desk scale.
        n_loops = rng.randint(0 if n_joint else 1, 2)
        n = n_joint + n_loops
        if n > max_branches:
            continue
        branches = tuple(
            Branch(rng.randint(-2, 2), rng.randint(-2, 2), label="b%d" % i)
            for i in range(n)
        )
        # Half the switches take their smooth side from a tail, half from a
        # head, so tails and heads balance across the slots.
        tails = [(i, TAIL) for i in range(n_joint)]
        heads = [(i, HEAD) for i in range(n_joint)]
        rng.shuffle(tails)
        rng.shuffle(heads)
        switches = []
        ok = True
        for k in range(n_switches):
            if k < n_switches // 2:
                single = tails.pop()
                double = (heads.pop(), heads.pop())
            else:
                single = heads.pop()
                double = (tails.pop(), tails.pop())
            if len({single, *double}) != 3:
                ok = False
                break
            switches.append(Switch(single=single, double=double, label="s%d" % k))
        if not ok:
            continue
        try:
            return TorusTrainTrack(branches, tuple(switches))
        except ValueError:
            continue
    raise RuntimeError("could not sample a valid track")  # pragma: no cover


def track_to_json(track: TorusTrainTrack):
    return {
        "schema": "torus_track_v1",
        "branches": [
            {"class": [br.a, br.b], "label": br.label} for br in track.branches
        ],
        "switches": [
            {
                "single": list(sw.single),
                "double": [list(e) for e in sw.double],
                "label": sw.label,
            }
            for sw in track.switches
        ],
    }


def _int_pair(value):
    return isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)


def _is_switch(entry):
    double = entry.get("double")
    return (
        _int_pair(entry.get("single"))
        and isinstance(double, list)
        and len(double) == 2
        and all(map(_int_pair, double))
    )


def _entries(doc, key, is_valid, shape):
    """The list ``doc[key]``, after checking that each entry is an object
    that passes ``is_valid``; ``shape`` describes a valid entry."""
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise ValueError('"%s": expected a list' % key)
    for k, entry in enumerate(entries):
        if not (isinstance(entry, dict) and is_valid(entry)):
            raise ValueError("%s[%d]: expected an object with %s" % (key, k, shape))
    return entries


def track_from_json(doc) -> TorusTrainTrack:
    if doc.get("schema") != "torus_track_v1":
        raise ValueError("expected schema torus_track_v1")
    branches = tuple(
        Branch(*e["class"], label=e.get("label", ""))
        for e in _entries(doc, "branches", lambda e: _int_pair(e.get("class")), '"class": [a, b]')
    )
    switches = tuple(
        Switch(
            single=tuple(e["single"]),
            double=(tuple(e["double"][0]), tuple(e["double"][1])),
            label=e.get("label", ""),
        )
        for e in _entries(
            doc,
            "switches",
            _is_switch,
            '"single": [branch, end] and "double": [[branch, end], [branch, end]]',
        )
    )
    return TorusTrainTrack(branches, switches)
