r"""
Combinatorial model of admissible arc systems on the boundary of a fibered
surface.

Boundary coordinates put the stable singularities of a circle with ``p`` of
them at the integers of ``R/pZ`` and the unstable ones at the half-integers.
An admissible system drops one oriented arc endpoint into each open segment
between consecutive stable singularities, with the whole endpoint set disjoint
from its image under the monodromy (modeled as a rigid rotation per circle).
The refined construction starts every arc at a slot of outgoing polarity and
ends it at one of incoming polarity, which makes both transversality flags
hold by construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import floor

from .monodromy import _circle_entries

__all__ = [
    "BoundaryCoordinates",
    "RigidBoundaryMap",
    "ArcEndpoint",
    "CombinatorialArc",
    "AdmissibleArcSystem",
    "PushOffSystem",
    "Violation",
    "validate_system",
    "refined_matching",
    "enumerate_matchings",
    "push_off",
    "system_to_json",
    "system_from_json",
]

BETA = "beta"
GAMMA = "gamma"


@dataclass(frozen=True)
class BoundaryCoordinates:
    """Circle ids mapped to their stable singularity counts."""

    circles: tuple  # of (circle_id, p) pairs, sorted by id

    @staticmethod
    def build(counts: dict):
        for cid, p in counts.items():
            if p < 2 or p % 2 != 0:
                raise ValueError("circle %s needs an even count >= 2, got %d" % (cid, p))
        return BoundaryCoordinates(tuple(sorted(counts.items())))

    def p(self, circle_id) -> int:
        for cid, p in self.circles:
            if cid == circle_id:
                return p
        raise KeyError(circle_id)

    @property
    def ids(self):
        return tuple(cid for cid, _ in self.circles)

    @property
    def total_sings(self) -> int:
        return sum(p for _, p in self.circles)


@dataclass(frozen=True)
class RigidBoundaryMap:
    """Rigid-rotation model of the monodromy on the boundary circles:
    circle ``j -> sigma(j)``, position ``x -> x + shift_j`` (integer slots)."""

    permutation: tuple  # of (circle_id, image_id)
    shifts: tuple  # of (circle_id, int)

    @staticmethod
    def build(permutation: dict, shifts: dict):
        ids = set(permutation)
        if set(permutation.values()) != ids:
            raise ValueError("permutation is not a bijection")
        if set(shifts) != ids:
            raise ValueError("need one integer shift per circle")
        return RigidBoundaryMap(
            tuple(sorted(permutation.items())),
            tuple(sorted((k, int(v)) for k, v in shifts.items())),
        )

    def image(self, circle_id):
        for cid, img in self.permutation:
            if cid == circle_id:
                return img
        raise KeyError(circle_id)

    def shift(self, circle_id) -> int:
        for cid, s in self.shifts:
            if cid == circle_id:
                return s
        raise KeyError(circle_id)

    def apply(self, endpoint, coords):
        img = self.image(endpoint.circle_id)
        pos = (endpoint.position + self.shift(endpoint.circle_id)) % coords.p(img)
        return ArcEndpoint(img, pos)


@dataclass(frozen=True)
class ArcEndpoint:
    circle_id: str
    position: Fraction

    def __post_init__(self):
        object.__setattr__(self, "position", Fraction(self.position))

    @property
    def segment(self) -> int:
        return int(self.position)  # positions are kept in [0, p)

    def on_stable_singularity(self) -> bool:
        return self.position.denominator == 1

    def on_unstable_singularity(self) -> bool:
        return (self.position - Fraction(1, 2)).denominator == 1


@dataclass(frozen=True)
class CombinatorialArc:
    start: ArcEndpoint
    end: ArcEndpoint
    pos_transverse_stable: bool = True
    pos_transverse_unstable: bool = False

    def __post_init__(self):
        if self.start == self.end:
            raise ValueError("arc endpoints must occupy distinct slots")

    @property
    def endpoints(self):
        return (self.start, self.end)


@dataclass(frozen=True)
class AdmissibleArcSystem:
    coords: BoundaryCoordinates
    monodromy: RigidBoundaryMap
    arcs: tuple

    @property
    def endpoints(self):
        return tuple(e for arc in self.arcs for e in arc.endpoints)


@dataclass(frozen=True)
class PushOffSystem:
    base: AdmissibleArcSystem
    epsilon: Fraction
    offset_endpoints: tuple


@dataclass(frozen=True)
class Violation:
    kind: str  # "arc-count" | "segment-multiplicity" | "monodromy-image" | "singularity"
    detail: str


def validate_system(sys: AdmissibleArcSystem):
    """Check the slot-level admissibility conditions; empty list = admissible.

    Transversality flags are recorded data, not proved; only their necessary
    slot-level consequences are machine-checked here.
    """
    violations = []
    coords = sys.coords
    endpoints = sys.endpoints

    expected = coords.total_sings // 2
    if len(sys.arcs) != expected:
        violations.append(
            Violation(
                "arc-count",
                "expected %d arcs (half the boundary singularities), got %d"
                % (expected, len(sys.arcs)),
            )
        )

    by_segment = {}
    for e in endpoints:
        if e.circle_id not in coords.ids:
            violations.append(
                Violation("segment-multiplicity", "unknown circle %r" % e.circle_id)
            )
            continue
        p = coords.p(e.circle_id)
        if not 0 <= e.position < p:
            violations.append(
                Violation(
                    "segment-multiplicity",
                    "position %s out of range on circle %s" % (e.position, e.circle_id),
                )
            )
            continue
        if e.on_stable_singularity():
            violations.append(
                Violation(
                    "singularity",
                    "endpoint at stable singularity %s on circle %s"
                    % (e.position, e.circle_id),
                )
            )
        by_segment.setdefault((e.circle_id, e.segment), []).append(e)

    for cid, p in coords.circles:
        for m in range(p):
            found = by_segment.get((cid, m), [])
            if len(found) != 1:
                violations.append(
                    Violation(
                        "segment-multiplicity",
                        "segment (%d, %d) of circle %s holds %d endpoints"
                        % (m, m + 1, cid, len(found)),
                    )
                )

    image = set()
    for e in endpoints:
        if e.circle_id in coords.ids:
            img = sys.monodromy.apply(e, coords)
            image.add((img.circle_id, img.position))
    for e in endpoints:
        if (e.circle_id, e.position) in image:
            violations.append(
                Violation(
                    "monodromy-image",
                    "endpoint %s on circle %s lies in the image of the endpoint set"
                    % (e.position, e.circle_id),
                )
            )
    return violations


def _alternating_polarity(coords: BoundaryCoordinates, polarity: dict):
    """Check the beta/gamma balance and per-circle alternation."""
    betas = [slot for slot, kind in polarity.items() if kind == BETA]
    gammas = [slot for slot, kind in polarity.items() if kind == GAMMA]
    if len(betas) != len(gammas):
        raise ValueError("no refined system exists for this data: unbalanced polarity")
    for cid, p in coords.circles:
        kinds = [polarity[(cid, m)] for m in range(p)]
        if any(kinds[m] == kinds[(m + 1) % p] for m in range(p)):
            raise ValueError(
                "polarity must alternate around circle %s (stable co-orientation)" % cid
            )
    return sorted(betas), sorted(gammas)


def default_polarity(coords: BoundaryCoordinates, phase: int = 0):
    """Alternating polarity with the even slots outgoing (phase 0)."""
    return {
        (cid, m): (BETA if (m + phase) % 2 == 0 else GAMMA)
        for cid, p in coords.circles
        for m in range(p)
    }


def enumerate_matchings(coords: BoundaryCoordinates, polarity: dict):
    """All bijections from beta slots to gamma slots, generated lazily.

    The polarity is checked at the call; the ``k!`` matchings are then made
    one at a time, so a caller can take the first few of a large set."""
    betas, gammas = _alternating_polarity(coords, polarity)
    return (tuple(zip(betas, perm)) for perm in permutations(gammas))


def refined_matching(
    coords: BoundaryCoordinates,
    monodromy: RigidBoundaryMap,
    polarity: dict | None = None,
    matching=None,
) -> AdmissibleArcSystem:
    """Build the refined arc system for a beta-to-gamma slot matching.

    Every arc runs from its beta slot (position ``m + 1/4``) to its gamma slot
    (position ``m + 3/4``) with both transversality flags set.  If the plain
    quarter offsets collide with their monodromy image, endpoints are nudged
    by distinct small amounts until the image condition holds.
    """
    if polarity is None:
        polarity = default_polarity(coords)
    betas, gammas = _alternating_polarity(coords, polarity)
    if matching is None:
        matching = tuple(zip(betas, gammas))
    matching = tuple(matching)
    if sorted(b for b, _ in matching) != betas or sorted(g for _, g in matching) != gammas:
        raise ValueError("matching must pair each beta slot with one gamma slot")

    for cid in coords.ids:
        if monodromy.image(cid) == cid and monodromy.shift(cid) % coords.p(cid) == 0:
            raise ValueError(
                "no refined system exists for this data: circle %s is fixed "
                "pointwise on singularities, so the endpoint set always meets "
                "its image" % cid
            )

    def build(eps: Fraction) -> AdmissibleArcSystem:
        order = {}
        for idx, (cid, m) in enumerate(betas + gammas):
            order[(cid, m)] = idx
        arcs = []
        for (b_cid, b_m), (g_cid, g_m) in matching:
            start = ArcEndpoint(b_cid, b_m + Fraction(1, 4) + order[(b_cid, b_m)] * eps)
            end = ArcEndpoint(g_cid, g_m + Fraction(3, 4) + order[(g_cid, g_m)] * eps)
            arcs.append(
                CombinatorialArc(
                    start,
                    end,
                    pos_transverse_stable=True,
                    pos_transverse_unstable=True,
                )
            )
        return AdmissibleArcSystem(coords, monodromy, tuple(arcs))

    total = coords.total_sings
    eps = Fraction(0)
    for _ in range(8):
        sys = build(eps)
        if not validate_system(sys):
            return sys
        # Distinct per-endpoint offsets; all image collisions then require a
        # pointwise-fixed circle, excluded above.
        eps = Fraction(1, 8 * total) if eps == 0 else eps / 2
    raise RuntimeError("no refined system exists for this data")  # pragma: no cover


def push_off(sys: AdmissibleArcSystem, epsilon) -> PushOffSystem:
    """Offset every endpoint by ``+epsilon`` along the boundary orientation.

    The offset family models the parallel copies on the right side of the
    arcs.  The offset must keep every endpoint inside its half-segment
    (rejected outright otherwise), and the monodromy images of the offset
    endpoints must avoid the original ones; on such a collision ``epsilon``
    is halved, up to 8 times, before giving up.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    coords = sys.coords
    for e in sys.endpoints:
        if _crosses_singularity(e.position, epsilon):
            raise ValueError(
                "push-off collision: offset of endpoint %s on circle %s by %s "
                "leaves its half-segment" % (e.position, e.circle_id, epsilon)
            )

    base_positions = {(e.circle_id, e.position) for e in sys.endpoints}
    last_conflict = None
    for _ in range(9):
        offsets = []
        conflict = None
        for e in sys.endpoints:
            moved = ArcEndpoint(e.circle_id, e.position + epsilon)
            image = sys.monodromy.apply(moved, coords)
            if (image.circle_id, image.position) in base_positions:
                conflict = (e, image)
                break
            offsets.append(moved)
        if conflict is None:
            return PushOffSystem(base=sys, epsilon=epsilon, offset_endpoints=tuple(offsets))
        last_conflict = conflict
        epsilon /= 2
    raise ValueError("push-off collision: endpoint %s maps onto %s" % last_conflict)


def _crosses_singularity(position: Fraction, epsilon: Fraction) -> bool:
    """Does ``(position, position + epsilon]`` contain a half-integer multiple?"""
    two_start = 2 * position
    two_end = 2 * (position + epsilon)
    return floor(two_end) > floor(two_start) or two_end.denominator == 1


def system_to_json(sys: AdmissibleArcSystem):
    def endpoint(e):
        return {
            "circle": e.circle_id,
            "position": "%d/%d" % (e.position.numerator, e.position.denominator),
        }

    return {
        "schema": "arc_system_v1",
        "circles": [{"id": cid, "stable_sings": p} for cid, p in sys.coords.circles],
        "monodromy": {
            "permutation": dict(sys.monodromy.permutation),
            "shifts": dict(sys.monodromy.shifts),
        },
        "arcs": [
            {
                "start": endpoint(a.start),
                "end": endpoint(a.end),
                "pos_transverse_stable": a.pos_transverse_stable,
                "pos_transverse_unstable": a.pos_transverse_unstable,
            }
            for a in sys.arcs
        ],
    }


def system_from_json(doc) -> AdmissibleArcSystem:
    if doc.get("schema") != "arc_system_v1":
        raise ValueError("expected schema arc_system_v1")
    coords = BoundaryCoordinates.build(dict(_circle_entries(doc)))
    monodromy = RigidBoundaryMap.build(
        dict(doc["monodromy"]["permutation"]),
        dict(doc["monodromy"]["shifts"]),
    )

    def endpoint(obj):
        return ArcEndpoint(obj["circle"], Fraction(obj["position"]))

    arcs = tuple(
        CombinatorialArc(
            endpoint(a["start"]),
            endpoint(a["end"]),
            pos_transverse_stable=bool(a["pos_transverse_stable"]),
            pos_transverse_unstable=bool(a["pos_transverse_unstable"]),
        )
        for a in doc["arcs"]
    )
    return AdmissibleArcSystem(coords, monodromy, arcs)
