r"""
Guaranteed filling-slope intervals and per-multislope reports.

For a boundary torus with canonical locus ``(p; q)`` and orbit length ``c``,
the guaranteed interval is the open arc between ``p/(q+c)`` and ``p/(q-c)``
avoiding ``p/q``.  Fillings along rational slopes inside it are guaranteed
(for co-orientation-reversing monodromy) to be non-L-spaces carrying
co-orientable taut foliations with left-orderable fundamental group; the
report labels record exactly which guarantee applies and why.

Distances from the locus, for every ``p``, ``q``, ``c`` and slope.  Write a
slope as ``s = a/b`` in lowest terms and put ``x = p/s``.  Then
``locus_distance(s) = |p*b - q*a| = |a|*|x - q|`` when ``a != 0``, and ``p`` at
the longitude ``s = 0`` (``x = inf``).  The map ``x -> p/x`` is a
homeomorphism of the projective line that takes ``[q-c, q+c]`` to the closed
arc from ``p/(q+c)`` to ``p/(q-c)`` through ``p/q``, so ``s`` lies in the
guaranteed interval exactly when ``x`` lies outside ``[q-c, q+c]``: when
``a = 0``, or when ``|x - q| > c``.  In the interval, then, the distance is
``p`` at the longitude and otherwise an integer above ``c*|a|``, so at least
``c*|a| + 1``.  It follows that:

* no slope at distance 1 lies in the interval, as ``p >= 2`` and
  ``c*|a| + 1 >= 2``;
* ``excluded_window`` (``x`` in ``[q-1, q+1]``, ``a != 0``) is disjoint from
  it, as ``c >= 1``;
* with ``q`` odd, the only slope at distance 2 inside is ``s = 0`` at
  ``(2; 1)``.  At the longitude the distance is ``p``, so ``p = 2`` and
  ``q = 1``.  Elsewhere it would need ``c = |a| = 1``, but then
  ``p*b - q*a`` is odd.

``tests/test_filling.py`` checks this bound over unbounded integers.
"""

from ._value import Value, setfield
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
    "merge_reports",
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


class FillingReport(Value):
    __slots__ = (
        "orbit",
        "interval",
        "slope",
        "in_interval",
        "dist_to_locus",
        "fried_ok",
        "special_no_singular",
        "guarantees",
    )

    def __init__(
        self,
        orbit: BoundaryOrbit,
        interval: SlopeInterval,
        slope: ProjectiveSlope | None,
        in_interval: bool,
        dist_to_locus: int,
        fried_ok: bool,
        special_no_singular: bool,
        guarantees: frozenset = frozenset(),
    ):
        setfield(self, "orbit", orbit)
        setfield(self, "interval", interval)
        setfield(self, "slope", slope)
        setfield(self, "in_interval", in_interval)
        setfield(self, "dist_to_locus", dist_to_locus)
        setfield(self, "fried_ok", fried_ok)
        setfield(self, "special_no_singular", special_no_singular)
        setfield(self, "guarantees", guarantees)


class MultislopeReport(Value):
    __slots__ = ("reports", "verdict", "notes")

    def __init__(self, reports: tuple, verdict: str, notes: tuple = ()):
        setfield(self, "reports", reports)
        setfield(self, "verdict", verdict)
        setfield(self, "notes", notes)


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
    intervals = [guaranteed_interval(orbit.locus, orbit.c) for orbit in orbits]
    inside = [interval.contains(s) for interval, s in zip(intervals, slopes)]

    guarantees: frozenset = frozenset()
    if parities == {Coorientation.REVERSING}:
        if all(inside):
            guarantees = frozenset(GUARANTEE_CITATIONS)
            verdict = "guaranteed"
        else:
            verdict = "none"
            for orbit, s, ok in zip(orbits, slopes, inside):
                if not ok:
                    notes.append(
                        "slope %s outside guaranteed interval on orbit %s"
                        % (format_slope(s), orbit.base_id)
                    )
    elif parities == {Coorientation.PRESERVING}:
        notes.append(
            "preserving-parity data: outside the reversing-monodromy guarantee; "
            "labels below rest on the preserving-case constructions"
        )
        if all(s != orbit.locus.delta for orbit, s in zip(orbits, slopes)):
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
        FillingReport(orbit, interval, s, ok, *check_fried(orbit.locus, s), guarantees)
        for orbit, interval, s, ok in zip(orbits, intervals, slopes, inside)
    )
    return MultislopeReport(reports=reports, verdict=verdict, notes=tuple(notes))


def merge_reports(orbit: BoundaryOrbit, reports) -> MultislopeReport:
    """One report for one orbit, from the ``analyze_multislope`` reports of
    its slopes in order.

    The verdict is the one every slope shares, else ``partial``, and each
    note is kept once, in the order first seen.  With no slopes the report
    has one row: the orbit's guaranteed interval, with no slope.
    """
    if not reports:
        interval = guaranteed_interval(orbit.locus, orbit.c)
        row = FillingReport(orbit, interval, None, False, 0, False, False)
        return MultislopeReport((row,), "none", ("no filling slopes provided",))
    verdicts = {report.verdict for report in reports}
    return MultislopeReport(
        reports=tuple(row for report in reports for row in report.reports),
        verdict=verdicts.pop() if len(verdicts) == 1 else "partial",
        notes=tuple(dict.fromkeys(note for report in reports for note in report.notes)),
    )


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
    """Serialize to the ``filling_report_v1`` schema with stable field order.

    A row without a slope gives the orbit and its interval alone."""
    orbits = []
    for r in report.reports:
        locus = r.orbit.locus
        row = {
            "circles": list(r.orbit.circles),
            "orbit_length": r.orbit.c,
            "locus": _locus_json(locus),
        }
        if r.slope is None:
            row.update(interval=_interval_json(r.interval), slope=None)
        else:
            row.update(
                coorientation=classify_coorientation(locus),
                interval=_interval_json(r.interval),
                slope=format_slope(r.slope),
                in_interval=r.in_interval,
                distance=r.dist_to_locus,
                fried_ok=r.fried_ok,
                # The filled core orbit has one prong per unit of distance.
                prong_count=r.dist_to_locus,
                special_no_singular=r.special_no_singular,
            )
        row["guarantees"] = [
            {"label": g, "citation": GUARANTEE_CITATIONS[g]} for g in sorted(r.guarantees)
        ]
        orbits.append(row)
    return {
        "schema": "filling_report_v1",
        "orbits": orbits,
        "verdict": report.verdict,
        "notes": list(report.notes),
    }
