r"""
Worked examples: cusped census manifolds with known degeneracy loci and
non-L-space filling intervals, plus the verification harness comparing the
computed guaranteed intervals against the tabulated ones.

Census data (genus, degeneracy slope, non-L-space slopes) comes from the
public Dunfield census computations; every row records the locus in canonical
form and the printed interval with its closure flags.  The guaranteed
interval is always open, so rows whose tabulated interval closes an endpoint
carry a ClosureNote rather than a Mismatch; the closed endpoint is where
earlier surgery constructions reach one slope further than the open
guarantee.
"""

from dataclasses import dataclass

from .filling import guaranteed_interval
from .monodromy import DegeneracyLocus
from .slopes import SlopeInterval, format_slope, parse_slope

__all__ = [
    "CensusEntry",
    "PrintedInterval",
    "VerificationRecord",
    "CENSUS",
    "SYMBOLIC_FAMILIES",
    "census_entries",
    "census_entry",
    "census_verify",
    "rp3_family_rows",
    "census_to_json",
    "entry_to_json",
]


@dataclass(frozen=True)
class PrintedInterval:
    """A tabulated slope set: the arc between two endpoint slopes, on the side
    containing ``through``, with per-endpoint closure flags."""

    end_a: str
    end_b: str
    closed_a: bool
    closed_b: bool
    through: str

    def __str__(self):
        la = "[" if self.closed_a else "("
        rb = "]" if self.closed_b else ")"
        return "%s%s, %s%s" % (la, self.end_a, self.end_b, rb)


@dataclass(frozen=True)
class CensusEntry:
    name: str
    genus: int | None
    degeneracy_slope: str
    locus: DegeneracyLocus
    c: int
    i_nls: PrintedInterval
    endpoint_prior_work: bool = False
    notes: str = ""
    source: str = "Dunfield census non-L-space filling data"

    def __post_init__(self):
        delta, _ = parse_slope(self.degeneracy_slope)
        if delta != self.locus.delta:
            raise ValueError(
                "entry %s: locus %s does not reduce to slope %s"
                % (self.name, self.locus, self.degeneracy_slope)
            )


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    computed: SlopeInterval
    status: str  # ExactMatch | ClosureNote | Mismatch
    detail: str


def _interval(end_a, end_b, through, closed_a=False, closed_b=False):
    return PrintedInterval(end_a, end_b, closed_a, closed_b, through)


_LENS_NOTE = (
    "three lens-space fillings: the degeneracy slope, the meridian, and one "
    "slope at distance one from the degeneracy slope"
)

_RP3_NAMES = {
    3: "m146",
    4: "v2585",
    5: "m303",
    6: "s520",
    7: "v1206",
    8: "t02779",
    9: "o9_06362",
}


def rp3_family_rows(g: int) -> CensusEntry:
    """The complements of L-space knots in real projective 3-space with
    fiber genus ``g``; degeneracy slope ``4g - 2``."""
    if not 3 <= g <= 9:
        raise ValueError("family rows cover genus 3..9, got %d" % g)
    delta = 4 * g - 2
    return CensusEntry(
        name=_RP3_NAMES[g],
        genus=g,
        degeneracy_slope=str(delta),
        locus=DegeneracyLocus(delta, 1),
        c=1,
        i_nls=_interval("-inf", str(2 * g - 1), through="0"),
        notes="L-space knot complement in RP^3 with genus %d" % g,
    )


def _census_rows():
    rows = [
        CensusEntry(
            name="m122",
            genus=2,
            degeneracy_slope="4",
            locus=DegeneracyLocus(4, 1),
            c=1,
            i_nls=_interval("-inf", "2", through="0"),
            notes=_LENS_NOTE,
        ),
        CensusEntry(
            name="m280",
            genus=2,
            degeneracy_slope="-4",
            locus=DegeneracyLocus(4, -1),
            c=1,
            i_nls=_interval("-2", "inf", through="0"),
            notes=_LENS_NOTE,
        ),
        CensusEntry(
            name="v0751",
            genus=3,
            degeneracy_slope="-6",
            locus=DegeneracyLocus(6, -1),
            c=1,
            i_nls=_interval("-3", "inf", through="0"),
            notes=_LENS_NOTE,
        ),
        CensusEntry(
            name="v0173",
            genus=4,
            degeneracy_slope="10",
            locus=DegeneracyLocus(10, 1),
            c=1,
            i_nls=_interval("-inf", "5", through="0"),
            notes=_LENS_NOTE,
        ),
        CensusEntry(
            name="o9_00008",
            genus=5,
            degeneracy_slope="12",
            locus=DegeneracyLocus(12, 1),
            c=1,
            i_nls=_interval("-inf", "6", through="0"),
            notes=_LENS_NOTE,
        ),
    ]
    rows.extend(rp3_family_rows(g) for g in range(3, 10))
    rows.extend(
        [
            CensusEntry(
                name="o9_26541",
                genus=3,
                degeneracy_slope="-8/3",
                locus=DegeneracyLocus(8, -3),
                c=1,
                i_nls=_interval("-4", "-2", through="inf"),
                notes=(
                    "L-space knot complement in a lens space of order 87; the "
                    "lens-space filling slope is 3; c = 1 inferred from the "
                    "knot-complement description"
                ),
            ),
            CensusEntry(
                name="o9_19364",
                genus=14,
                degeneracy_slope="48",
                locus=DegeneracyLocus(48, 1),
                c=1,
                i_nls=_interval("-inf", "24", through="0", closed_b=True),
                endpoint_prior_work=True,
                notes=(
                    "S^3 knot complement; non-L-space fillings actually fill "
                    "(-inf, 27), the guarantee here reaches the open interval "
                    "up to 24, with 24 itself from earlier constructions"
                ),
            ),
            CensusEntry(
                name="m003",
                genus=1,
                degeneracy_slope="2",
                locus=DegeneracyLocus(2, 1),
                c=1,
                i_nls=_interval("-inf", "1", through="0", closed_b=True),
                endpoint_prior_work=True,
                notes=(
                    "genus-one fiber with a single boundary circle carrying "
                    "two stable singularities; the closed endpoint 1 is from "
                    "earlier surgery constructions"
                ),
            ),
        ]
    )
    return tuple(rows)


CENSUS = _census_rows()

# Genus-parametrized families carried symbolically: the tabulated interval is
# (-inf, 2g-1) with g the fiber genus; per-knot loci are not tabulated.
SYMBOLIC_FAMILIES = (
    {
        "family": "(-2,3,2k+1)-pretzel knots, k >= 3",
        "i_nls": "(-inf, 2g-1) with g the knot genus",
        "note": "hyperbolic L-space knots; all three conjectural properties "
        "agree on every rational slope",
    },
)


def census_entries():
    return CENSUS


def census_entry(name: str) -> CensusEntry:
    for entry in CENSUS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def verify_entry(entry: CensusEntry) -> VerificationRecord:
    computed = guaranteed_interval(entry.locus, entry.c)
    printed_a, _ = parse_slope(entry.i_nls.end_a)
    printed_b, _ = parse_slope(entry.i_nls.end_b)
    if {printed_a, printed_b} != computed.endpoints():
        return VerificationRecord(
            entry.name,
            computed,
            "Mismatch",
            "endpoints %s differ from tabulated {%s, %s}"
            % (computed, entry.i_nls.end_a, entry.i_nls.end_b),
        )
    through, _ = parse_slope(entry.i_nls.through)
    if not computed.contains(through):
        return VerificationRecord(
            entry.name,
            computed,
            "Mismatch",
            "tabulated interval lies on the wrong side of its endpoints",
        )
    if entry.i_nls.closed_a or entry.i_nls.closed_b:
        return VerificationRecord(
            entry.name,
            computed,
            "ClosureNote",
            "open guarantee vs tabulated closure at an endpoint (%s)" % entry.i_nls,
        )
    return VerificationRecord(entry.name, computed, "ExactMatch", "")


def census_verify():
    """Verify every census row; shipped data never yields a Mismatch."""
    return [verify_entry(entry) for entry in CENSUS]


def entry_to_json(e: CensusEntry) -> dict:
    """The ``census_v1`` row of one census entry."""
    return {
        "name": e.name,
        "genus": e.genus,
        "degeneracy_slope": e.degeneracy_slope,
        "locus": {"p": e.locus.p, "q": e.locus.q},
        "orbit_length": e.c,
        "i_nls": {
            "end_a": e.i_nls.end_a,
            "end_b": e.i_nls.end_b,
            "closed_a": e.i_nls.closed_a,
            "closed_b": e.i_nls.closed_b,
            "through": e.i_nls.through,
        },
        "endpoint_prior_work": e.endpoint_prior_work,
        "notes": e.notes,
        "source": e.source,
    }


def census_to_json():
    return {
        "schema": "census_v1",
        "entries": [entry_to_json(e) for e in CENSUS],
        "symbolic_families": list(SYMBOLIC_FAMILIES),
    }
