import json
import time

import pytest

from dehnfill.census import (
    CENSUS,
    SYMBOLIC_FAMILIES,
    census_entries,
    census_entry,
    census_to_json,
    census_verify,
    entry_to_json,
    rp3_family_rows,
)
from dehnfill.cli import main
from dehnfill.filling import guaranteed_interval
from dehnfill.monodromy import DegeneracyLocus
from dehnfill.slopes import parse_slope


def test_fifteen_rows():
    assert len(CENSUS) == 15
    assert len({e.name for e in CENSUS}) == 15


def test_row_loci_match_printed_slopes():
    for entry in CENSUS:
        delta, _ = parse_slope(entry.degeneracy_slope)
        assert entry.locus.delta == delta


def test_verify_statuses():
    records = {r.name: r for r in census_verify()}
    assert all(r.status != "Mismatch" for r in records.values())
    assert records["m122"].status == "ExactMatch"
    assert records["m280"].status == "ExactMatch"
    assert records["o9_26541"].status == "ExactMatch"
    assert records["o9_19364"].status == "ClosureNote"
    assert records["m003"].status == "ClosureNote"
    assert sum(r.status == "ClosureNote" for r in records.values()) == 2


def test_verify_specific_intervals():
    records = {r.name: r for r in census_verify()}
    m122 = records["m122"].computed
    assert {str(m122.end_a), str(m122.end_b)} == {"2", "inf"}
    o9 = records["o9_26541"].computed
    assert {str(o9.end_a), str(o9.end_b)} == {"-4", "-2"}
    assert str(o9.excluded) == "-8/3"


def test_rp3_family():
    row = rp3_family_rows(3)
    assert row.name == "m146" and row.degeneracy_slope == "10"
    assert row.i_nls.end_b == "5"
    row = rp3_family_rows(9)
    assert row.name == "o9_06362" and row.degeneracy_slope == "34"
    assert row.i_nls.end_b == "17"
    with pytest.raises(ValueError):
        rp3_family_rows(2)
    with pytest.raises(ValueError):
        rp3_family_rows(10)


def test_rp3_rows_are_census_rows():
    names = {e.name for e in CENSUS}
    for g in range(3, 10):
        row = rp3_family_rows(g)
        assert row.name in names
        assert census_entry(row.name) == row


def test_closure_rows_flag_prior_work():
    for entry in CENSUS:
        closed = entry.i_nls.closed_a or entry.i_nls.closed_b
        assert entry.endpoint_prior_work == closed


def test_verify_runtime():
    start = time.perf_counter()
    census_verify()
    assert time.perf_counter() - start < 1.0


def test_mismatch_detection():
    from dehnfill.census import CensusEntry, PrintedInterval, verify_entry

    bad = CensusEntry(
        name="bogus",
        genus=2,
        degeneracy_slope="4",
        locus=DegeneracyLocus(4, 1),
        c=1,
        i_nls=PrintedInterval("-inf", "3", False, False, "0"),
    )
    assert verify_entry(bad).status == "Mismatch"
    wrong_side = CensusEntry(
        name="bogus2",
        genus=2,
        degeneracy_slope="4",
        locus=DegeneracyLocus(4, 1),
        c=1,
        i_nls=PrintedInterval("2", "inf", False, False, "3"),
    )
    assert verify_entry(wrong_side).status == "Mismatch"


def test_an_entry_whose_locus_misses_its_slope_is_rejected():
    from dehnfill.census import CensusEntry, PrintedInterval

    with pytest.raises(ValueError, match=r"entry bogus: locus \(4;2\) does not reduce to slope 4"):
        CensusEntry(
            name="bogus",
            genus=2,
            degeneracy_slope="4",
            locus=DegeneracyLocus(4, 2),
            c=1,
            i_nls=PrintedInterval("3", "5", False, False, "4"),
        )


def test_json_roundtrip_bit_exact():
    doc = census_to_json()
    text = json.dumps(doc, indent=2)
    assert json.dumps(json.loads(text), indent=2) == text
    assert len(doc["entries"]) == 15
    assert doc["symbolic_families"] == list(SYMBOLIC_FAMILIES)


def test_census_entries_are_the_rows_census_list_prints(capsys):
    assert main(["census", "list"]) == 0
    printed = json.loads(capsys.readouterr().out)["entries"]
    assert [entry_to_json(e) for e in census_entries()] == printed


def test_symbolic_pretzel_family():
    (fam,) = SYMBOLIC_FAMILIES
    assert "pretzel" in fam["family"]
    assert "2g-1" in fam["i_nls"]


def test_census_rows_inside_guaranteed_interval():
    # Sanity: the degeneracy slope never lies in the computed interval.
    for entry in CENSUS:
        interval = guaranteed_interval(entry.locus, entry.c)
        assert not interval.contains(entry.locus.delta)
