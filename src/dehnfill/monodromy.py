r"""
Boundary invariants of a fibered monodromy: orbit lengths, degeneracy loci,
multiplicities and co-orientation behavior.

The monodromy's action on the boundary circles is modeled as a rigid map:
a permutation of the circles plus one integer shift per circle, by which it
rotates the cyclically ordered stable singularities.  The first-return map
of an orbit rotates the orbit's base circle by the sum of the shifts of its
circles.  That is exactly the data determining the locus ``(p; q)`` and the
orbit length ``c``.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .slopes import ProjectiveSlope

__all__ = [
    "MonodromyBoundaryAction",
    "DegeneracyLocus",
    "BoundaryOrbit",
    "Coorientation",
    "orbit_decomposition",
    "boundary_orbits",
    "canonical_locus",
    "classify_coorientation",
    "locus_distance",
    "euler_poincare_residual",
    "action_from_json",
    "action_to_json",
]


@dataclass(frozen=True)
class MonodromyBoundaryAction:
    """The monodromy on the boundary circles: circle ``j`` goes to
    ``permutation[j]``, and slot position ``x`` on it to ``x + shifts[j]``.

    ``counts`` gives each circle's number of stable singularities.  All three
    dicts are keyed by circle id, in sorted order.
    """

    counts: dict
    permutation: dict
    shifts: dict

    @staticmethod
    def build(circles, permutation, shifts):
        """Check and store ``(id, count)`` pairs, a permutation of the ids and
        one integer shift per circle."""
        circles = sorted(circles)
        ids = [cid for cid, _ in circles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate circle ids")
        for cid, count in circles:
            if count < 2 or count % 2 != 0:
                raise ValueError(
                    "co-orientable boundary data needs an even count >= 2 of "
                    "stable singularities, got %d on circle %s" % (count, cid)
                )
        id_set = set(ids)
        if set(permutation) != id_set or set(permutation.values()) != id_set:
            raise ValueError("permutation is not a bijection on the circle ids")
        if set(shifts) != id_set or any(type(s) is not int for s in shifts.values()):
            raise ValueError("need one integer shift per circle")
        action = MonodromyBoundaryAction(
            dict(circles),
            {cid: permutation[cid] for cid in ids},
            {cid: shifts[cid] for cid in ids},
        )
        for cycle in action._orbit_cycles():
            if len({action.counts[cid] for cid in cycle}) != 1:
                raise ValueError(
                    "circles %s in one orbit have differing singularity counts" % cycle
                )
        return action

    def image(self, circle_id, position):
        """The ``(circle id, position)`` that ``position`` on ``circle_id``
        maps to, with the position reduced into ``[0, p)``."""
        img = self.permutation[circle_id]
        return img, (position + self.shifts[circle_id]) % self.counts[img]

    def _orbit_cycles(self):
        seen = set()
        cycles = []
        for cid in self.counts:  # sorted, so each orbit starts at its least id
            if cid in seen:
                continue
            cycle = [cid]
            seen.add(cid)
            nxt = self.permutation[cid]
            while nxt != cid:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.permutation[nxt]
            cycles.append(cycle)
        return cycles


class Coorientation:
    PRESERVING = "preserving"
    REVERSING = "reversing"


@dataclass(frozen=True)
class DegeneracyLocus:
    """The pair ``(p; q)`` with ``p`` even, ``q`` reduced to ``(-p/2, p/2]``.

    The multiplicity is ``n = gcd(p, |q|)`` (with ``gcd(p, 0) = p``) and the
    degeneracy slope is ``(p/n) / (q/n)``.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.p % 2 != 0:
            raise ValueError("non-co-orientable boundary data: p must be even > 0")
        if not (-self.p // 2 < self.q <= self.p // 2):
            raise ValueError("q must lie in (-p/2, p/2], got q=%d" % self.q)

    @property
    def multiplicity(self) -> int:
        return gcd(self.p, abs(self.q))

    @property
    def delta(self) -> ProjectiveSlope:
        n = self.multiplicity
        return ProjectiveSlope.of(self.p // n, self.q // n)

    def __str__(self):
        return "(%d;%d)" % (self.p, self.q)


@dataclass(frozen=True)
class RawOrbit:
    """A permutation orbit before locus canonicalization."""

    circles: tuple
    c: int
    p: int
    shift: int


@dataclass(frozen=True)
class BoundaryOrbit:
    circles: tuple
    c: int
    locus: DegeneracyLocus

    def __post_init__(self):
        if self.c != len(self.circles):
            raise ValueError("orbit length must equal the number of circles")

    @property
    def base_id(self):
        return self.circles[0]


def orbit_decomposition(action: MonodromyBoundaryAction):
    """Partition the circles into permutation orbits.

    Orbits are reported sorted by smallest circle id, carrying the orbit
    length, the shared singularity count and the raw (uncanonicalized)
    shift: the sum of the shifts of the orbit's circles.
    """
    return [
        RawOrbit(
            circles=tuple(cycle),
            c=len(cycle),
            p=action.counts[cycle[0]],
            shift=sum(action.shifts[cid] for cid in cycle),
        )
        for cycle in action._orbit_cycles()
    ]


def boundary_orbits(action: MonodromyBoundaryAction):
    """Orbit decomposition with canonicalized degeneracy loci."""
    return [
        BoundaryOrbit(circles=o.circles, c=o.c, locus=canonical_locus(o.p, o.shift))
        for o in orbit_decomposition(action)
    ]


def canonical_locus(p: int, shift: int) -> DegeneracyLocus:
    """Reduce a raw ``(p, shift)`` pair to the canonical locus ``(p; q)``.

    ``n = gcd(p, shift mod p)``, ``u = p/n``, and ``v`` is the representative
    of ``(shift/n) mod u`` in ``(-u/2, u/2]`` (the tie ``v = u/2`` is taken
    positive, matching the canonical meridian convention).
    """
    if p <= 0 or p % 2 != 0:
        raise ValueError("non-co-orientable boundary data: p must be even > 0")
    s = shift % p
    n = gcd(p, s)
    u = p // n
    v = (s // n) % u
    if 2 * v > u:
        v -= u
    return DegeneracyLocus(p, n * v)


def classify_coorientation(locus: DegeneracyLocus) -> str:
    """The monodromy reverses the stable co-orientation iff ``q`` is odd."""
    return Coorientation.REVERSING if locus.q % 2 != 0 else Coorientation.PRESERVING


def locus_distance(locus: DegeneracyLocus, s: ProjectiveSlope) -> int:
    """``|p*den - q*num|``, i.e. multiplicity times the slope distance."""
    return abs(locus.p * s.den - locus.q * s.num)


def euler_poincare_residual(genus, boundary_sing_counts, interior_prongs=()):
    """Advisory index check for a singular foliation on a fibered surface.

    Returns the exact ``Fraction`` ``chi - (sum over interior p-prong
    singularities of (1 - p/2) - (total boundary singularities)/2)`` where
    ``chi = 2 - 2*genus - #boundary circles``; zero means the data is
    consistent.  Advisory only: interior data is usually unknown here.
    """
    chi = 2 - 2 * genus - len(boundary_sing_counts)
    interior = sum(1 - Fraction(prongs, 2) for prongs in interior_prongs)
    index = interior - Fraction(sum(boundary_sing_counts), 2)
    return chi - index


# The most stable singularities a boundary document may put on one circle.
# Refining and validating arc systems take work and memory, and write output,
# linear in the count.
STABLE_SINGS_CAP = 1000


def _circle_entries(doc):
    """The ``(id, stable_sings)`` pairs of the ``circles`` list of a boundary
    document, naming the entry and the field that is missing, not an int or
    above ``STABLE_SINGS_CAP``."""
    circles = doc.get("circles")
    if not isinstance(circles, list):
        raise ValueError('"circles": expected a list')
    pairs = []
    for k, entry in enumerate(circles):
        if not isinstance(entry, dict):
            raise ValueError("circles[%d]: expected an object" % k)
        for field in ("id", "stable_sings"):
            if field not in entry:
                raise ValueError('circles[%d]: missing "%s"' % (k, field))
        if type(entry["stable_sings"]) is not int:
            raise ValueError('circles[%d]: "stable_sings" must be an integer' % k)
        if entry["stable_sings"] > STABLE_SINGS_CAP:
            raise ValueError(
                'circles[%d]: "stable_sings" must be at most %d, not %d'
                % (k, STABLE_SINGS_CAP, entry["stable_sings"])
            )
        pairs.append((entry["id"], entry["stable_sings"]))
    return pairs


def _object_entries(doc, field, kind, expected, prefix=""):
    """The object ``doc[field]``, each of whose values must be a ``kind``;
    ``prefix`` is the path of ``doc`` in messages."""
    obj = doc.get(field)
    if not isinstance(obj, dict):
        raise ValueError('"%s%s": expected an object' % (prefix, field))
    for key, value in obj.items():
        if type(value) is not kind:
            raise ValueError(
                "%s%s[%s]: expected %s" % (prefix, field, json.dumps(key), expected)
            )
    return obj


def _action_entries(doc, maps_field=None):
    """The circles, permutation and shifts of a boundary document:
    ``(id, stable_sings)`` pairs, an object of circle id to circle id and an
    object of circle id to integer shift.  The two objects are read from
    ``doc[maps_field]`` when it is given, else from ``doc``.  Circle ids are
    strings, as the keys of those objects are; a malformed entry is named."""
    circles = _circle_entries(doc)
    for k, (cid, _) in enumerate(circles):
        if not isinstance(cid, str):
            raise ValueError('circles[%d]: "id" must be a string' % k)
    maps, prefix = doc, ""
    if maps_field is not None:
        maps, prefix = doc.get(maps_field), maps_field + "."
        if not isinstance(maps, dict):
            raise ValueError('"%s": expected an object' % maps_field)
    permutation = _object_entries(
        maps, "permutation", str, "a circle id (a string)", prefix
    )
    shifts = _object_entries(maps, "shifts", int, "an integer", prefix)
    return circles, permutation, shifts


def action_from_json(doc) -> MonodromyBoundaryAction:
    """Load the ``monodromy_boundary_v1`` JSON schema.

    The schema keeps one shift per orbit, on its base circle (least id);
    the other circles of the orbit get shift 0."""
    if doc.get("schema") != "monodromy_boundary_v1":
        raise ValueError("expected schema monodromy_boundary_v1")
    circles, permutation, shifts = _action_entries(doc)
    action = MonodromyBoundaryAction.build(
        circles, permutation, {cid: shifts.get(cid, 0) for cid, _ in circles}
    )
    bases = [cycle[0] for cycle in action._orbit_cycles()]
    if sorted(shifts) != bases:
        raise ValueError("shifts must be keyed by orbit base ids %s" % bases)
    return action


def action_to_json(action: MonodromyBoundaryAction):
    return {
        "schema": "monodromy_boundary_v1",
        "circles": [
            {"id": cid, "stable_sings": count} for cid, count in action.counts.items()
        ],
        "permutation": dict(action.permutation),
        "shifts": {orbit.circles[0]: orbit.shift for orbit in orbit_decomposition(action)},
    }
