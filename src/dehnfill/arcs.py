r"""
Combinatorial model of admissible arc systems on the boundary of a fibered
surface.

Boundary coordinates put the stable singularities of a circle with ``p`` of
them at the integers of ``R/pZ`` and the unstable ones at the half-integers.
An admissible system drops one oriented arc endpoint into each open segment
between consecutive stable singularities, with the whole endpoint set disjoint
from its image under the monodromy's rigid boundary map
(``monodromy.MonodromyBoundaryAction``).
The refined construction starts every arc at a slot of outgoing polarity and
ends it at one of incoming polarity, which makes both transversality flags
hold by construction.
"""

from fractions import Fraction
from itertools import permutations
from numbers import Rational

from ._value import Value, setfield
from .monodromy import MonodromyBoundaryAction, _action_entries
from .slopes import _exact

__all__ = [
    "ArcEndpoint",
    "CombinatorialArc",
    "AdmissibleArcSystem",
    "Violation",
    "validate_system",
    "refined_matching",
    "enumerate_matchings",
    "system_to_json",
    "system_from_json",
]

BETA = "beta"
GAMMA = "gamma"


class ArcEndpoint(Value):
    __slots__ = ("circle_id", "position")

    def __init__(self, circle_id: str, position: Fraction):
        if not isinstance(position, Rational):
            raise ValueError(
                "arc positions must be exact rationals (int or Fraction), not %r" % (position,)
            )
        setfield(self, "circle_id", circle_id)
        setfield(self, "position", Fraction(position))

    @property
    def segment(self) -> int:
        return int(self.position)  # positions are kept in [0, p)

    def on_stable_singularity(self) -> bool:
        return self.position.denominator == 1


class CombinatorialArc(Value):
    __slots__ = ("start", "end", "pos_transverse_stable", "pos_transverse_unstable")

    def __init__(
        self,
        start: ArcEndpoint,
        end: ArcEndpoint,
        pos_transverse_stable: bool = True,
        pos_transverse_unstable: bool = False,
    ):
        if start == end:
            raise ValueError("arc endpoints must occupy distinct slots")
        setfield(self, "start", start)
        setfield(self, "end", end)
        setfield(self, "pos_transverse_stable", pos_transverse_stable)
        setfield(self, "pos_transverse_unstable", pos_transverse_unstable)

    @property
    def endpoints(self):
        return (self.start, self.end)


class AdmissibleArcSystem(Value):
    __slots__ = ("action", "arcs")

    def __init__(self, action: MonodromyBoundaryAction, arcs: tuple):
        setfield(self, "action", action)
        setfield(self, "arcs", arcs)

    @property
    def endpoints(self):
        return tuple(e for arc in self.arcs for e in arc.endpoints)


class Violation(Value):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str):
        # kind: "arc-count" | "segment-multiplicity" | "monodromy-image" | "singularity"
        setfield(self, "kind", kind)
        setfield(self, "detail", detail)


def validate_system(sys: AdmissibleArcSystem):
    """Check the slot-level admissibility conditions; empty list = admissible.

    Transversality flags are recorded data, not proved; only their necessary
    slot-level consequences are machine-checked here.
    """
    violations = []
    counts = sys.action.counts
    endpoints = sys.endpoints

    expected = sum(counts.values()) // 2
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
        if e.circle_id not in counts:
            violations.append(
                Violation("segment-multiplicity", "unknown circle %r" % e.circle_id)
            )
            continue
        p = counts[e.circle_id]
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

    for cid, p in counts.items():
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

    image = {
        sys.action.image(e.circle_id, e.position)
        for e in endpoints
        if e.circle_id in counts
    }
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


def _alternating_polarity(action: MonodromyBoundaryAction, polarity: dict):
    """Check that the polarity gives each of the action's slots, and nothing
    else, a beta or gamma kind; then the balance and per-circle alternation."""
    slots = {(cid, m) for cid, p in action.counts.items() for m in range(p)}
    for slot, kind in polarity.items():
        if slot not in slots:
            raise ValueError("polarity slot %r is not a slot of the action" % (slot,))
        if kind not in (BETA, GAMMA):
            raise ValueError("polarity kind %r of slot %r is not beta or gamma" % (kind, slot))
    if len(polarity) != len(slots):
        missing = min(slots - polarity.keys())
        raise ValueError("polarity gives no kind for slot %r" % (missing,))
    betas = [slot for slot, kind in polarity.items() if kind == BETA]
    gammas = [slot for slot, kind in polarity.items() if kind == GAMMA]
    if len(betas) != len(gammas):
        raise ValueError("no refined system exists for this data: unbalanced polarity")
    for cid, p in action.counts.items():
        kinds = [polarity[(cid, m)] for m in range(p)]
        if any(kinds[m] == kinds[(m + 1) % p] for m in range(p)):
            raise ValueError(
                "polarity must alternate around circle %s (stable co-orientation)" % cid
            )
    return sorted(betas), sorted(gammas)


def default_polarity(action: MonodromyBoundaryAction, phase: int = 0):
    """Alternating polarity with the even slots outgoing (phase 0)."""
    return {
        (cid, m): (BETA if (m + phase) % 2 == 0 else GAMMA)
        for cid, p in action.counts.items()
        for m in range(p)
    }


def enumerate_matchings(action: MonodromyBoundaryAction, polarity: dict):
    """All bijections from beta slots to gamma slots, generated lazily.

    The polarity is checked at the call; the ``k!`` matchings are then made
    one at a time, so a caller can take the first few of a large set."""
    betas, gammas = _alternating_polarity(action, polarity)
    return (tuple(zip(betas, perm)) for perm in permutations(gammas))


def refined_matching(
    action: MonodromyBoundaryAction,
    polarity: dict | None = None,
    matching=None,
) -> AdmissibleArcSystem:
    """Build the refined arc system for a beta-to-gamma slot matching.

    Every arc runs from its beta slot (position ``m + 1/4``) to its gamma slot
    (position ``m + 3/4``) with both transversality flags set.  If these meet
    their monodromy image, the endpoint of the ``k``-th slot moves by
    ``k/(8 * slots)``: an image keeps its fractional part, so only a slot
    mapped to itself could still collide, and that is rejected first.
    """
    if polarity is None:
        polarity = default_polarity(action)
    betas, gammas = _alternating_polarity(action, polarity)
    if matching is None:
        matching = tuple(zip(betas, gammas))
    matching = tuple(matching)
    if sorted(b for b, _ in matching) != betas or sorted(g for _, g in matching) != gammas:
        raise ValueError("matching must pair each beta slot with one gamma slot")

    for cid, p in action.counts.items():
        if action.permutation[cid] == cid and action.shifts[cid] % p == 0:
            raise ValueError(
                "no refined system exists for this data: circle %s is fixed "
                "pointwise on singularities, so the endpoint set always meets "
                "its image" % cid
            )

    order = {slot: idx for idx, slot in enumerate(betas + gammas)}
    for eps in (Fraction(0), Fraction(1, 8 * sum(action.counts.values()))):
        sys = AdmissibleArcSystem(
            action,
            tuple(
                CombinatorialArc(
                    ArcEndpoint(beta[0], beta[1] + Fraction(1, 4) + order[beta] * eps),
                    ArcEndpoint(gamma[0], gamma[1] + Fraction(3, 4) + order[gamma] * eps),
                    pos_transverse_stable=True,
                    pos_transverse_unstable=True,
                )
                for beta, gamma in matching
            ),
        )
        # The nudged offset is always admissible, as the docstring shows.
        if eps or not validate_system(sys):
            return sys


def system_to_json(sys: AdmissibleArcSystem):
    def endpoint(e):
        return {
            "circle": e.circle_id,
            "position": "%d/%d" % (e.position.numerator, e.position.denominator),
        }

    action = sys.action
    return {
        "schema": "arc_system_v1",
        "circles": [{"id": cid, "stable_sings": p} for cid, p in action.counts.items()],
        "monodromy": {
            "permutation": dict(action.permutation),
            "shifts": dict(action.shifts),
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


def _endpoint_from_json(entry, where):
    if not isinstance(entry, dict) or not isinstance(entry.get("circle"), str):
        raise ValueError('%s: expected an object with a string "circle"' % where)
    return ArcEndpoint(entry["circle"], _exact(entry.get("position"), where + ".position"))


def _arc_from_json(entry, where):
    if not isinstance(entry, dict):
        raise ValueError("%s: expected an object" % where)
    flags = ("pos_transverse_stable", "pos_transverse_unstable")
    for flag in flags:
        if type(entry.get(flag)) is not bool:
            raise ValueError("%s.%s: expected true or false" % (where, flag))
    start = _endpoint_from_json(entry.get("start"), where + ".start")
    end = _endpoint_from_json(entry.get("end"), where + ".end")
    try:
        return CombinatorialArc(start, end, *(entry[flag] for flag in flags))
    except ValueError as err:
        raise ValueError("%s: %s" % (where, err)) from None


def system_from_json(doc) -> AdmissibleArcSystem:
    """Load the ``arc_system_v1`` JSON schema, naming a malformed entry."""
    if doc.get("schema") != "arc_system_v1":
        raise ValueError("expected schema arc_system_v1")
    action = MonodromyBoundaryAction(*_action_entries(doc, "monodromy"))
    arcs = doc.get("arcs")
    if not isinstance(arcs, list):
        raise ValueError('"arcs": expected a list')
    return AdmissibleArcSystem(
        action, tuple(_arc_from_json(a, "arcs[%d]" % k) for k, a in enumerate(arcs))
    )
