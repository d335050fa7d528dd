r"""
Guaranteed filling-slope intervals and per-multislope reports.

For a boundary torus with canonical locus ``(p; q)`` and orbit length ``c``,
the guaranteed interval is the open arc between ``p/(q+c)`` and ``p/(q-c)``
avoiding ``p/q``.  Fillings along rational slopes inside it are guaranteed
(for co-orientation-reversing monodromy) to be non-L-spaces carrying
co-orientable taut foliations with left-orderable fundamental group; the
report labels record exactly which guarantee applies and why.
"""

from dataclasses import dataclass, field

from .monodromy import (
    BoundaryOrbit,
    Coorientation,
    DegeneracyLocus,
    classify_coorientation,
    locus_distance,
)
from .slopes import LONGITUDE, ProjectiveSlope, SlopeInterval, format_slope

__all__ = [
    "FillingReport",
    "MultislopeReport",
    "GUARANTEE_CITATIONS",
    "guaranteed_interval",
    "excluded_window",
    "check_fried",
    "analyze_multislope",
    "zung_sign_check",
    "report_to_json",
]

# Labels are report metadata with a provenance note each; nothing here
# re-proves the cited results.
GUARANTEE_CITATIONS = {
    "CTF": "carried lamination extends to a co-orientable taut foliation of the filling",
    "NonLSpace": "a co-orientable taut foliation makes the filling a non-L-space (Ozsvath-Szabo)",
    "LO": "left-orderable fundamental group via the foliation's leaf-space action",
    "RCoveredExists": "some admissible arc system induces an R-covered foliation",
    "AtMostOneSidedBranching": "every admissible arc system yields R-covered or one-sided branching",
}

ALL_GUARANTEES = (
    "CTF",
    "LO",
    "NonLSpace",
    "RCoveredExists",
    "AtMostOneSidedBranching",
)


def guaranteed_interval(locus: DegeneracyLocus, c: int) -> SlopeInterval:
    """The open arc between ``p/(q+c)`` and ``p/(q-c)`` avoiding ``p/q``."""
    if c < 1:
        raise ValueError("orbit length must be >= 1")
    p, q = locus.p, locus.q
    return SlopeInterval(
        end_a=ProjectiveSlope.of(p, q + c),
        end_b=ProjectiveSlope.of(p, q - c),
        excluded=locus.delta,
    )


def excluded_window(locus: DegeneracyLocus) -> SlopeInterval:
    """The closed arc of slopes within unit shift of the locus.

    It is the image of ``[q-1, q+1]`` under ``x -> p/x``, contains the
    degeneracy slope, and is disjoint from the guaranteed interval for every
    orbit length.  The longitude, the image of ``x = inf``, lies outside it.
    """
    p, q = locus.p, locus.q
    return SlopeInterval(
        end_a=ProjectiveSlope.of(p, q - 1),
        end_b=ProjectiveSlope.of(p, q + 1),
        excluded=LONGITUDE,
        closed_a=True,
        closed_b=True,
    )


def check_fried(locus: DegeneracyLocus, s: ProjectiveSlope):
    """Filling admissibility data for one slope.

    Returns ``(dist, fried_ok, special_no_singular)``: the locus distance,
    which is also the prong count of the filled core orbit, whether it allows
    the surgered flow (``dist >= 2``), and whether the filled orbit is
    non-singular (exactly the ``dist == 2`` case).
    """
    dist = locus_distance(locus, s)
    return dist, dist >= 2, dist == 2


@dataclass(frozen=True)
class FillingReport:
    orbit: BoundaryOrbit
    interval: SlopeInterval
    slope: ProjectiveSlope | None
    in_interval: bool
    dist_to_locus: int
    fried_ok: bool
    special_no_singular: bool
    guarantees: frozenset = frozenset()


@dataclass(frozen=True)
class MultislopeReport:
    reports: tuple
    verdict: str
    notes: tuple = ()


def zung_sign_check(orbits, slopes) -> bool:
    """Same-sign test for co-orientation-preserving multislopes.

    Each slope is re-expressed in rational coordinates for the ordered basis
    (degeneracy slope, longitude); the check passes when all strictly share a
    sign there.
    """
    signs = set()
    for orbit, s in zip(orbits, slopes, strict=True):
        if classify_coorientation(orbit.locus) != Coorientation.PRESERVING:
            raise ValueError("sign check applies to preserving-parity data only")
        d = orbit.locus.delta
        u, v = d.num, d.den
        if u < 0:
            u, v = -u, -v
        # s = x*delta + y*longitude with x = a/u, y = (b*u - a*v)/u; the sign
        # of the slope x/y is sign(a * (b*u - a*v)), invariant under a,b -> -a,-b.
        val = s.num * (s.den * u - s.num * v)
        if val == 0:
            return False
        signs.add(1 if val > 0 else -1)
    return len(signs) == 1


def analyze_multislope(orbits, slopes) -> MultislopeReport:
    """Assemble per-torus reports and the joint guarantee verdict."""
    if len(orbits) != len(slopes):
        raise ValueError(
            "expected one slope per orbit (%d orbits, %d slopes)"
            % (len(orbits), len(slopes))
        )
    notes = []
    parities = {classify_coorientation(o.locus) for o in orbits}
    entries = []
    for orbit, s in zip(orbits, slopes):
        interval = guaranteed_interval(orbit.locus, orbit.c)
        dist, fried_ok, special = check_fried(orbit.locus, s)
        entries.append(
            dict(
                orbit=orbit,
                interval=interval,
                slope=s,
                in_interval=interval.contains(s),
                dist=dist,
                fried_ok=fried_ok,
                special=special,
            )
        )

    guarantees: frozenset = frozenset()
    if parities == {Coorientation.REVERSING}:
        if all(e["in_interval"] for e in entries):
            guarantees = frozenset(ALL_GUARANTEES)
            verdict = "guaranteed"
        else:
            verdict = "none"
            for e in entries:
                if not e["in_interval"]:
                    notes.append(
                        "slope %s outside guaranteed interval on orbit %s"
                        % (format_slope(e["slope"]), e["orbit"].base_id)
                    )
    elif parities == {Coorientation.PRESERVING}:
        notes.append(
            "preserving-parity data: outside the reversing-monodromy guarantee; "
            "labels below rest on the preserving-case constructions"
        )
        if all(e["slope"] != e["orbit"].locus.delta for e in entries):
            labels = {"CTF"}
            if zung_sign_check(orbits, slopes):
                labels.add("LO")
            guarantees = frozenset(labels)
            verdict = "partial"
        else:
            verdict = "none"
            notes.append("some filling slope equals its degeneracy slope")
    else:
        verdict = "none"
        notes.append("mixed co-orientation parities: no joint guarantee applies")

    reports = tuple(
        FillingReport(
            orbit=e["orbit"],
            interval=e["interval"],
            slope=e["slope"],
            in_interval=e["in_interval"],
            dist_to_locus=e["dist"],
            fried_ok=e["fried_ok"],
            special_no_singular=e["special"],
            guarantees=guarantees,
        )
        for e in entries
    )
    return MultislopeReport(reports=reports, verdict=verdict, notes=tuple(notes))


def _interval_json(interval: SlopeInterval):
    return {
        "end_a": format_slope(interval.end_a),
        "end_b": format_slope(interval.end_b),
        "excluded": format_slope(interval.excluded),
    }


def _locus_json(locus: DegeneracyLocus):
    return {
        "p": locus.p,
        "q": locus.q,
        "multiplicity": locus.multiplicity,
        "degeneracy_slope": format_slope(locus.delta),
    }


def report_to_json(report: MultislopeReport):
    """Serialize to the ``filling_report_v1`` schema with stable field order."""
    orbits = []
    for r in report.reports:
        locus = r.orbit.locus
        orbits.append(
            {
                "circles": list(r.orbit.circles),
                "orbit_length": r.orbit.c,
                "locus": _locus_json(locus),
                "coorientation": classify_coorientation(locus),
                "interval": _interval_json(r.interval),
                "slope": None if r.slope is None else format_slope(r.slope),
                "in_interval": r.in_interval,
                "distance": r.dist_to_locus,
                "fried_ok": r.fried_ok,
                # The filled core orbit has one prong per unit of distance.
                "prong_count": r.dist_to_locus,
                "special_no_singular": r.special_no_singular,
                "guarantees": [
                    {"label": g, "citation": GUARANTEE_CITATIONS[g]}
                    for g in sorted(r.guarantees)
                ],
            }
        )
    return {
        "schema": "filling_report_v1",
        "orbits": orbits,
        "verdict": report.verdict,
        "notes": list(report.notes),
    }
