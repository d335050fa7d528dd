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

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from ._value import Value, setfield
from .monodromy import Coorientation, DegeneracyLocus, classify_coorientation
from .slopes import ProjectiveSlope, SlopeInterval, _exact

__all__ = [
    "Branch",
    "Switch",
    "TorusTrainTrack",
    "EndpointConfig",
    "config_from_json",
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


class Branch(Value):
    """An oriented branch with homology class ``(a, b)``."""

    __slots__ = ("a", "b", "label")

    def __init__(self, a: int, b: int, label: str = ""):
        if type(a) is not int or type(b) is not int:
            raise ValueError("a branch class is two ints, not %r" % ((a, b),))
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "label", label)


class Switch(Value):
    """A trivalent switch: one branch-end on the smooth side, two on the
    cusped side (``double``, a pair).  Ends are ``(branch_index, TAIL|HEAD)``."""

    __slots__ = ("single", "double", "label")

    def __init__(self, single: tuple, double: tuple, label: str = ""):
        setfield(self, "single", single)
        setfield(self, "double", double)
        setfield(self, "label", label)


class TorusTrainTrack(Value):
    __slots__ = ("branches", "switches")

    def __init__(self, branches: tuple, switches: tuple):
        setfield(self, "branches", branches)
        setfield(self, "switches", switches)
        validate_track(self)


def validate_track(track: TorusTrainTrack):
    n = len(track.branches)
    at = [0] * (2 * n)  # at 2 * branch + end: 1 + the index of its switch, or 0
    where = []  # the indices into ``at`` of each switch's three ends
    for s, sw in enumerate(track.switches, 1):
        ends = (sw.single, *sw.double) if type(sw.double) is tuple else ()
        if len(ends) != 3:
            raise ValueError("switch %r references a bad end" % (sw.label,))
        e0, e1, e2 = ends
        # Pairs, checked first: the loop unpacks pairs, and a third end of
        # ``double`` would go unread.  == compares ends whose contents set()
        # could not hash; the loop then rejects those contents.
        if not (type(e0) is type(e1) is type(e2) is tuple and len(e0) == len(e1) == len(e2) == 2):
            raise ValueError("switch %r references a bad end" % (sw.label,))
        if e0 == e1 or e0 == e2 or e1 == e2:
            raise ValueError("switch %r must reference three distinct ends" % (sw.label,))
        for bid, end in ends:
            # Exact ints: a bool would pass as 0 or 1 and be written as one.
            if not (type(bid) is int and 0 <= bid < n and type(end) is int and 0 <= end <= 1):
                raise ValueError("switch %r references a bad end" % (sw.label,))
            i = 2 * bid + end
            if at[i]:
                raise ValueError("branch end (%d, %d) attached to two switches" % (bid, end))
            at[i] = s
            where.append(i)
        # Orientation coherence: the smooth side flows opposite to the cusped
        # side, so a tail there forces heads on the double side and vice versa.
        if e1[1] == e0[1] or e2[1] == e0[1]:
            raise ValueError("switch %r mixes orientations" % (sw.label,))
    if 0 in at:
        for bid in range(n):
            if (at[2 * bid] == 0) != (at[2 * bid + 1] == 0):
                raise ValueError(
                    "branch %d has one attached end; branches are loops or fully attached" % bid
                )
        # A loop branch meets no other branch.
        if n > 1:
            raise ValueError("track is disconnected")
    elif where:
        # Every branch joins the switches at its two ends, so the branches
        # are connected when the switches are.
        seen = [True, True] + [False] * (len(track.switches) - 1)
        stack = [1]
        while stack:
            k = 3 * stack.pop()
            for i in where[k - 3 : k]:
                s = at[i ^ 1]
                if not seen[s]:
                    seen[s] = True
                    stack.append(s)
        if not all(seen):
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


def _cycle_sums(track: TorusTrainTrack, labels):
    """Yield, for each simple directed cycle of the switch graph, the sum of
    ``labels[b]`` over its branches ``b``.

    Switches are the vertices and branch ``b`` is an edge from the switch at
    its tail to the switch at its head, labelled ``labels[b]``.  A simple
    cycle uses each branch at most once, so with ``labels[b] = 1 << (n - 1 -
    b)`` its sum is its branch mask.  An edge whose tail is its head (an
    unattached loop among them) is a cycle on its own and no other simple
    cycle uses it, so it is yielded and not put into the graph.

    The graph is first series-reduced.  A switch with no incoming or no
    outgoing edge lies on no cycle and is dropped with its edges.  A switch
    with exactly one incoming or exactly one outgoing edge is spliced out:
    each pair of an edge into it and an edge out of it becomes one edge
    labelled with the sum of their labels.  Every simple cycle through the
    switch uses its single edge on that side, and every merged edge shares
    that edge's far endpoint, so no simple cycle uses two of them: cycles of
    the reduced graph map one-to-one onto those of the original, with the
    same sums, and the edge count never grows.  The reduction repeats until
    every switch left has two or more edges each way.

    Johnson's circuit search (SIAM J. Comput. 1975) then runs iteratively
    on what is left, on lists indexed by vertex.  Each start ``s`` is
    searched within its strong component among the vertices ``>= s``: a
    search forward from ``s`` marks what it reaches, and a search back from
    ``s`` through the marked vertices collects the component.  The blocked
    flags and B lists keep the work proportional to the number of cycles
    found.  Blocking is per vertex, so parallel edges each close their own
    cycle: a vertex from which a cycle was found is unblocked before the
    next edge into it is tried.  Cycles come in no particular order.

    The flags and lists need no reset between starts, because a search that
    closes a cycle at ``s`` ends with every flag clear and every B list
    empty.  A vertex is left without a cycle only once all its successors
    are blocked, and it joins their B lists then, so it stays blocked only
    while they do.  Following a path from it to ``s``, a vertex still
    blocked at the end would leave ``s`` blocked, but ``s`` is unblocked
    last.  And a B list gains a vertex only while its owner is blocked, so
    the owner's unblocking empties it.

    What each phase costs, on the heaviest tracks of perfbench's ``tracks``
    grid, ``(6; q)`` at c = 3 and ``(4; q)`` at c = 5, with 54-60 branches
    and 205-350 cycles (2-vCPU VM, CPython 3.11.7): about 0.47 ms a call,
    of which the series reduction takes 0.07 ms, the per-vertex lists and
    the strong components 0.05 ms, and the search the other 0.35 ms.  The
    reduction leaves nothing of a ``random_track``, whose call takes about
    4 us.
    """
    at = {}
    for i, sw in enumerate(track.switches):
        at[sw.single] = at[sw.double[0]] = at[sw.double[1]] = i
    outs = [{} for _ in track.switches]  # per vertex: {edge id: (head, label)}
    ins = [{} for _ in track.switches]  # per vertex: {edge id: (tail, label)}
    for b, label in enumerate(labels):
        u, w = at.get((b, TAIL)), at.get((b, HEAD))
        if u == w:
            yield label
        else:
            outs[u][b] = w, label
            ins[w][b] = u, label

    edge_id = len(labels)
    alive = [True] * len(outs)
    todo = list(range(len(outs)))
    while todo:
        v = todo.pop()
        if not alive[v]:
            continue
        into, out = ins[v], outs[v]
        if len(into) > 1 and len(out) > 1:
            continue
        alive[v] = False
        for e, (u, _) in into.items():
            del outs[u][e]
            todo.append(u)
        for e, (w, _) in out.items():
            del ins[w][e]
            todo.append(w)
        for u, m in into.values():
            for w, m2 in out.values():
                if u == w:
                    yield m + m2
                else:
                    outs[u][edge_id] = w, m + m2
                    ins[w][edge_id] = u, m + m2
                    edge_id += 1

    left = [v for v in range(len(outs)) if alive[v]]
    if not left:
        return
    index = {v: i for i, v in enumerate(left)}
    succ = [[(index[w], m) for w, m in outs[v].values()] for v in left]
    pred = [[index[u] for u, _ in ins[v].values()] for v in left]
    reach = [-1] * len(left)  # the last start that reached each vertex
    comp = [-1] * len(left)  # the last start whose strong component holds it
    blocked = [False] * len(left)
    held = [[] for _ in left]  # Johnson's B lists
    adj = [None] * len(left)  # per member: its edges within the component
    for s in range(len(left)):
        reach[s] = comp[s] = s
        stack = [s]
        while stack:
            for w, _ in succ[stack.pop()]:
                if w > s and reach[w] != s:
                    reach[w] = s
                    stack.append(w)
        # Every vertex on a path back to s is reached from s, so the search
        # back stays within the vertices reached.  The list grows as it is read.
        members = [s]
        for v in members:
            for u in pred[v]:
                if reach[u] == s and comp[u] != s:
                    comp[u] = s
                    members.append(u)
        if len(members) == 1:
            continue  # no self-loop is left, so s lies on no cycle
        for v in members:
            adj[v] = [(w, m) for w, m in succ[v] if comp[w] == s]
        blocked[s] = True
        # The path's last vertex, the path's label sum, whether a cycle was
        # closed from the vertex or below it, and the vertex's edges not yet
        # tried; ``path`` holds the same for each earlier vertex of the path.
        v, total, hit, edges = s, 0, False, iter(adj[s])
        path = []
        while True:
            for w, m in edges:
                if w == s:
                    yield total + m
                    hit = True
                elif not blocked[w]:
                    blocked[w] = True
                    path.append((v, total, hit, edges))
                    v, total, hit, edges = w, total + m, False, iter(adj[w])
                    break
            else:
                if hit:
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if blocked[u]:
                            blocked[u] = False
                            unblock.extend(held[u])
                            held[u].clear()
                else:
                    for w, _ in adj[v]:
                        if v not in held[w]:
                            held[w].append(v)
                if not path:
                    break
                child_hit = hit
                v, total, hit, edges = path.pop()
                hit = hit or child_hit


class RayClasses(Value):
    """The homology classes of a track's extreme rays, without the rays.

    ``least`` maps each class ``(a, b)`` to the least mask among the rays of
    that class, in the order of those masks, and ``len()`` is the number of
    rays.  A ray's mask is an int whose bit ``n - 1 - b`` is its weight on
    branch ``b``.
    """

    __slots__ = ("least", "rays")
    __hash__ = None

    def __init__(self, least: dict, rays: int):
        setfield(self, "least", least)
        setfield(self, "rays", rays)

    def __len__(self):
        return self.rays


def weight_cone(track: TorusTrainTrack) -> RayClasses:
    """The extreme rays of ``{w >= 0 : switch conditions}``, by class.

    Each switch condition is flow conservation at a vertex of the switch
    graph, so the cone is a circulation cone and its extreme rays are the
    0/1 vectors of the simple directed cycles (Penner–Harer, *Combinatorics
    of Train Tracks*, 1992).  The rays are counted and summed to their
    classes as the search finds them, and never listed.
    """
    n = len(track.branches)
    # A cycle's label packs its mask below bit n and its class (a, b) above
    # it as a + b * 2**width, where |a| < 2**(width - 1).  The masks of the
    # branches of a simple cycle are disjoint, so summing labels sums both.
    width = sum([abs(br.a) for br in track.branches]).bit_length() + 1
    labels = []
    low = (1 << n) - 1
    bit = low + 1
    for br in track.branches:
        bit >>= 1
        labels.append(bit + ((br.a + (br.b << width)) << n))
    least = {}
    rays = 0
    for label in _cycle_sums(track, labels):
        rays += 1
        key, mask = label >> n, label & low
        if mask < least.get(key, low + 1):
            least[key] = mask
    half = 1 << (width - 1)
    classes = {}
    for mask, key in sorted(zip(least.values(), least)):
        a = ((key + half) & ((1 << width) - 1)) - half
        classes[a, (key - a) >> width] = mask
    return RayClasses(classes, rays)


class CarriedSlopes(Value):
    """Projectivized homology image of the weight cone.

    ``kind`` is one of ``empty`` (nothing carried), ``single`` (one slope),
    ``arc`` (a salient cone of classes) or ``all`` (the image cone spans a
    half-plane or more).  The arc is closed: extreme rays attain both of its
    endpoints.  ``extreme_rays`` counts the extreme rays of the weight cone.
    """

    __slots__ = ("kind", "slope", "arc", "extreme_classes", "extreme_rays")

    def __init__(
        self,
        kind: str,
        slope: ProjectiveSlope | None = None,
        arc: SlopeInterval | None = None,
        extreme_classes: tuple = (),
        extreme_rays: int = 0,
    ):
        setfield(self, "kind", kind)
        setfield(self, "slope", slope)
        setfield(self, "arc", arc)
        setfield(self, "extreme_classes", extreme_classes)
        setfield(self, "extreme_rays", extreme_rays)

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


def carried_slopes(track: TorusTrainTrack) -> CarriedSlopes:
    """The arc of slopes realizable by curves carried with positive weights."""
    cone = weight_cone(track)
    rays = len(cone)
    # Each class once, in the order of its first ray (its least mask).
    nonzero = [c for c in cone.least if c != (0, 0)]
    if not nonzero:
        # carried_slopes_v1 lists the zero class once per ray here.
        return CarriedSlopes(kind="empty", extreme_classes=((0, 0),) * rays, extreme_rays=rays)
    extreme = tuple(sorted(nonzero))
    # In a salient cone, e_r = (ra, rb) moves to the first class on its
    # clockwise extreme and e_l = (la, lb) to the first on the other, each
    # only to a class strictly beyond it.  Neither moves if every class is
    # parallel to the first.  The check after it catches any other cone.
    ra, rb = la, lb = first = nonzero[0]
    for a, b in nonzero:
        if ra * b < rb * a:
            ra, rb = a, b
        if a * lb < b * la:
            la, lb = a, b
    if (ra, rb) == (la, lb) == first:
        slope = ProjectiveSlope.of(*first)
        return CarriedSlopes(kind="single", slope=slope, extreme_classes=extreme, extreme_rays=rays)
    for a, b in nonzero:
        if ra * b < rb * a or a * lb < b * la:
            break
    else:
        end_a = ProjectiveSlope.of(ra, rb)
        end_b = ProjectiveSlope.of(la, lb)
        if end_a != end_b:
            # The open cone between e_r and -e_l is the complement of the
            # projectivized cone, so e_r - e_l is a witness outside the arc.
            witness = ProjectiveSlope.of(ra - la, rb - lb)
            arc = SlopeInterval(end_a, end_b, excluded=witness, closed_a=True, closed_b=True)
            return CarriedSlopes(kind="arc", arc=arc, extreme_classes=extreme, extreme_rays=rays)
    # A class lies beyond e_r or e_l, or they are antipodal and the cone is a
    # half-plane: either way every slope is carried.
    return CarriedSlopes(kind="all", extreme_classes=extreme, extreme_rays=rays)


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


class EndpointConfig(Value):
    """Interleaving of arc-endpoint feet within each boundary segment.

    Outgoing arc endpoints sit at ``segment + lower_out``, incoming ones at
    ``segment + lower_in``; the pushed-off upper feet land at the image
    position nudged by ``upper_nudge`` toward the segment interior.  ``phase``
    flips which segments are outgoing.  The interleaving is a modeling choice
    (only the resulting switch order matters), so alternatives are shipped as
    named presets.
    """

    __slots__ = ("phase", "lower_out", "lower_in", "upper_nudge", "_scaled_feet")

    def __init__(
        self,
        phase: int = 0,
        lower_out: Fraction = Fraction(1, 4),
        lower_in: Fraction = Fraction(3, 4),
        upper_nudge: Fraction = Fraction(1, 8),
    ):
        # Exact ints only: the builder reads its parity, which 0.5 or True
        # would give silently.
        if type(phase) is not int:
            raise ValueError("phase must be an int, not %r" % (phase,))
        if not all(isinstance(f, Rational) for f in (lower_out, lower_in, upper_nudge)):
            raise ValueError("foot positions must be exact: an int or a Fraction")
        setfield(self, "phase", phase)
        setfield(self, "lower_out", lower_out)
        setfield(self, "lower_in", lower_in)
        setfield(self, "upper_nudge", upper_nudge)
        fracs = self.foot_fractions()
        if len(set(fracs)) != 4 or not all(0 < f < 1 for f in fracs):
            raise ValueError("foot positions must be four distinct points in (0, 1)")
        # ``(d, feet)``: the least common denominator ``d`` of the foot
        # fractions, and the four of them as ints in units of ``1/d``.
        d = lcm(*(f.denominator for f in fracs))
        feet = tuple(f.numerator * (d // f.denominator) for f in fracs)
        setfield(self, "_scaled_feet", (d, feet))

    def foot_fractions(self):
        return (
            self.lower_out,
            self.lower_in,
            self.lower_out + self.upper_nudge,
            self.lower_in - self.upper_nudge,
        )


CONFIG_PRESETS = {
    "default": EndpointConfig(),
    "phase-flipped": EndpointConfig(phase=1),
    "wide": EndpointConfig(
        lower_out=Fraction(1, 8),
        lower_in=Fraction(7, 8),
        upper_nudge=Fraction(1, 16),
    ),
}


def config_from_json(doc) -> EndpointConfig:
    """The ``EndpointConfig`` of a ``track build --config`` document: a JSON
    object whose fields default to the ``default`` preset's, with exact
    values only (an integer or an ``"a/b"`` string, and an integer phase)."""
    if "phase" in doc and type(doc["phase"]) is not int:
        raise ValueError('"phase": expected an integer')
    fields = {
        key: doc[key] if key == "phase" else _exact(doc[key], '"%s"' % key)
        for key in ("phase", "lower_out", "lower_in", "upper_nudge")
        if key in doc
    }
    return EndpointConfig(**fields)


# Largest boundary track ``build_boundary_track`` makes: ``3 * p * c``
# branches.  Time, memory and ``track build`` output grow linearly with it.
BRANCH_CAP = 30_000


def _fraction_text(x, d):
    """``str(Fraction(x, d))`` for ints ``x >= 0`` and ``d > 0``."""
    g = gcd(x, d)
    return "%d" % (x // g) if g == d else "%d/%d" % (x // g, d // g)


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

    Foot positions are exact ints in units of ``1/d``, where ``d`` is the
    least common denominator of the config's foot fractions; a switch label
    prints its position as the reduced fraction.  No two feet of a circle
    share a position: each of its ``p`` segments holds one lower foot, at
    ``lower_out`` or ``lower_in``, and one upper foot, at one of the two upper
    fractions, because the wrap shift by ``q`` permutes the segments; and
    ``EndpointConfig`` makes the four fractions distinct and inside (0, 1).
    Tracks of more than ``BRANCH_CAP`` branches raise ``ValueError`` before
    anything is built.
    """
    if c < 1:
        raise ValueError("orbit length must be >= 1")
    if classify_coorientation(locus) != Coorientation.REVERSING:
        raise ValueError(
            "reversing co-orientation parity required (odd q); preserving-parity "
            "loci are outside the guaranteed construction"
        )
    p, q = locus.p, locus.q
    if 3 * p * c > BRANCH_CAP:
        raise ValueError(
            "a boundary track has 3*p*c branches, which must be at most %d, not %d"
            % (BRANCH_CAP, 3 * p * c)
        )
    if config is None:
        config = CONFIG_PRESETS["default"]
    d, (low_out, low_in, up_out, up_in) = config._scaled_feet
    pd = p * d

    # Rungs, and the feet on each circle as (position, kind, rung, smooth
    # side after the foot).  An up-rung leaves its lower foot and arrives at
    # its upper one; the cusp there puts the smooth side before a lower foot
    # and after an upper one, and the other way round for a down-rung.
    branches = []
    feet = [[] for _ in range(c)]
    for j in range(c):
        wrap = j == c - 1
        shift = q * d if wrap else 0
        lower, upper = feet[j], feet[(j + 1) % c]
        for m in range(p):
            out = (m + j + config.phase) % 2 == 0
            x_up_raw = m * d + shift + (up_out if out else up_in)
            # The lower foot lies in [0, p), so only the upper one crosses.
            a, b = (1 if wrap else 0), x_up_raw // pd
            if not out:
                a, b = -a, -b
            bid = len(branches)
            branches.append(Branch(a, b, label="rung[%d,%d]" % (j, m)))
            lower.append((m * d + (low_out if out else low_in), "lower", bid, not out))
            upper.append((x_up_raw % pd, "upper", bid, out))

    # Circle segments between consecutive feet, and a switch at each foot.
    switches = []
    for j in range(c):
        circle = feet[j]
        circle.sort()
        first = len(branches)
        last = len(circle) - 1
        for k in range(last + 1):
            crosses = 1 if k == last else 0  # wraps past x = 0
            branches.append(Branch(0, crosses, label="circle[%d]seg[%d]" % (j, k)))
        for k, (x, kind, rung, smooth_after) in enumerate(circle):
            before = (first + (k - 1 if k else last), HEAD)
            after = (first + k, TAIL)
            if smooth_after:
                single, double = after, (before, (rung, HEAD))
            else:
                single, double = before, (after, (rung, TAIL))
            label = "circle[%d]%s[%s]" % (j, kind, _fraction_text(x, d))
            switches.append(Switch(single=single, double=double, label=label))
    return TorusTrainTrack(tuple(branches), tuple(switches))


def random_track(seed: int) -> TorusTrainTrack:
    """A random connected oriented trivalent track with small classes.

    It has 0, 2 or 4 switches and so at most 6 branches.  Only
    ``getrandbits`` is called, by the rule of ``ladders._draw``, on the words
    of ``choice([0, 2, 2, 4])``, ``randint(0 if n_joint else 1, 2)``, two
    ``randint(-2, 2)`` per branch and ``shuffle`` of the tails, then of the
    heads.  A loop branch beside any other branch leaves the track
    disconnected, so such a draw is made again before anything is built."""
    import random as _random
    bits = _random.Random(seed).getrandbits

    def below(n):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    for _ in range(200):
        n_switches = (0, 2, 2, 4)[below(4)]
        n_joint = 3 * n_switches // 2
        # Loop branches are unconstrained weights, so cap them to keep the
        # brute-force integral enumeration oracle at desk scale.
        n_loops = below(3) if n_joint else 1 + below(2)
        n = n_joint + n_loops
        classes = [below(5) - 2 for _ in range(2 * n)]
        # Half the switches take their smooth side from a tail, half from a
        # head, so tails and heads balance across the slots.
        tails = [(i, TAIL) for i in range(n_joint)]
        heads = [(i, HEAD) for i in range(n_joint)]
        for ends in tails, heads:
            for i in range(n_joint - 1, 0, -1):
                j = below(i + 1)
                ends[i], ends[j] = ends[j], ends[i]
        if n_loops and n > 1:
            continue
        branches = tuple(
            Branch(classes[2 * i], classes[2 * i + 1], label="b%d" % i) for i in range(n)
        )
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
    that passes ``is_valid``, with a string ``label`` if any; ``shape``
    describes a valid entry."""
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise ValueError('"%s": expected a list' % key)
    for k, entry in enumerate(entries):
        if not (isinstance(entry, dict) and is_valid(entry)):
            raise ValueError("%s[%d]: expected an object with %s" % (key, k, shape))
        if not isinstance(entry.get("label", ""), str):
            raise ValueError('%s[%d]: "label" must be a string' % (key, k))
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
