import json

import pytest

from dehnfill.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_interval_example(capsys):
    code, out, _ = run(capsys, "interval", "--locus", "4,1", "--orbit-length", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["end_a"] == "2" and doc["end_b"] == "inf" and doc["excluded"] == "4"


def test_interval_text_mode(capsys):
    code, out, _ = run(
        capsys, "--output", "text", "interval", "--locus", "4,1", "--orbit-length", "1"
    )
    assert code == 0
    assert "end_a: 2" in out and "end_b: inf" in out


def test_analyze_special_case(capsys):
    code, out, _ = run(
        capsys, "analyze", "--locus", "2,1", "--orbit-length", "1", "--slope", "0"
    )
    assert code == 0
    doc = json.loads(out)
    (orbit,) = doc["orbits"]
    assert orbit["fried_ok"] is True
    assert orbit["special_no_singular"] is True
    assert doc["verdict"] == "guaranteed"
    labels = {g["label"] for g in orbit["guarantees"]}
    assert "NonLSpace" in labels and "LO" in labels


def test_analyze_multiple_slopes(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--locus",
        "4,1",
        "--orbit-length",
        "1",
        "--slope",
        "0",
        "--slope",
        "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 2
    assert doc["verdict"] == "partial"
    assert any("outside" in note for note in doc["notes"])


def test_analyze_without_slopes(capsys):
    code, out, _ = run(capsys, "analyze", "--locus", "4,1", "--orbit-length", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbits"][0]["slope"] is None


def test_census_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "census", "verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["records"]) == 15


def test_census_show(capsys):
    code, out, _ = run(capsys, "census", "show", "m122")
    assert code == 0
    doc = json.loads(out)
    assert doc["locus"] == {"p": 4, "q": 1}
    code, _, err = run(capsys, "census", "show", "nope")
    assert code == 2 and "nope" in err


def test_census_list_contains_families(capsys):
    code, out, _ = run(capsys, "census", "list")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 15
    assert doc["symbolic_families"]


def test_coords_canonical(capsys):
    code, out, _ = run(capsys, "coords", "canonical", "--delta", "2/5")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2 and doc["new_delta"] == "2"


def test_track_build_and_slopes_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "track", "build", "--locus", "4,1", "--orbit-length", "1"
    )
    assert code == 0
    path = tmp_path / "track.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "track", "slopes", "--input", str(path))
    assert code == 0
    doc = json.loads(out2)
    assert doc["kind"] == "arc"
    assert {doc["arc"]["end_a"], doc["arc"]["end_b"]} == {"2", "inf"}


def test_track_build_with_preset(capsys):
    code, out, _ = run(
        capsys,
        "track",
        "build",
        "--locus",
        "4,1",
        "--orbit-length",
        "1",
        "--config",
        "wide",
    )
    assert code == 0
    assert json.loads(out)["schema"] == "torus_track_v1"


def test_ladder_verify(capsys):
    code, out, _ = run(
        capsys,
        "ladder",
        "verify",
        "--levels",
        "6",
        "--rungs",
        "4",
        "--cases",
        "25",
        "--seed",
        "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0 and doc["cases"] == 25


def test_ladder_control_reports_but_passes(capsys):
    code, out, _ = run(
        capsys, "ladder", "verify", "--cases", "20", "--seed", "0", "--control"
    )
    assert code == 0
    assert json.loads(out)["violations"] > 0


def test_arcs_refine_validate(capsys, tmp_path):
    mono = tmp_path / "mono.json"
    mono.write_text(
        json.dumps(
            {
                "schema": "monodromy_boundary_v1",
                "circles": [{"id": "A", "stable_sings": 4}],
                "permutation": {"A": "A"},
                "shifts": {"A": 3},
            }
        )
    )
    code, out, _ = run(capsys, "arcs", "refine", "--input", str(mono))
    assert code == 0
    arcs_doc = json.loads(out)
    assert arcs_doc["schema"] == "arc_system_v1"
    assert len(arcs_doc["arcs"]) == 2
    arcs_path = tmp_path / "arcs.json"
    arcs_path.write_text(out)
    code, out2, _ = run(capsys, "arcs", "validate", "--input", str(arcs_path))
    assert code == 0
    assert json.loads(out2)["admissible"] is True


def test_arcs_validate_inadmissible_exits_one(capsys, tmp_path):
    doc = {
        "schema": "arc_system_v1",
        "circles": [{"id": "A", "stable_sings": 2}],
        "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 0}},
        "arcs": [
            {
                "start": {"circle": "A", "position": "1/4"},
                "end": {"circle": "A", "position": "1/3"},
                "pos_transverse_stable": True,
                "pos_transverse_unstable": False,
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "arcs", "validate", "--input", str(path))
    assert code == 1
    assert json.loads(out)["admissible"] is False


def test_bad_slope_exits_two(capsys):
    code, _, err = run(capsys, "coords", "canonical", "--delta", "4/x")
    assert code == 2
    assert "position" in err


def test_bad_locus_exits_two(capsys):
    code, _, err = run(capsys, "interval", "--locus", "4;1", "--orbit-length", "1")
    assert code == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "track", "slopes", "--input", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize("cases", ["-1", "-100"])
def test_negative_ladder_cases_exit_two(capsys, cases):
    code, out, err = run(capsys, "ladder", "verify", "--cases", cases)
    assert code == 2 and out == ""
    assert "--cases" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--levels", "1"), "max_levels must be >= 2"),
        (("--levels", "0"), "max_levels must be >= 2"),
        (("--levels", "1", "--cases", "0"), "max_levels must be >= 2"),
        (("--rungs", "-1"), "max_rungs_per_gap must be >= 0"),
        (("--rungs", "-1", "--cases", "0"), "max_rungs_per_gap must be >= 0"),
    ],
)
def test_out_of_domain_ladder_sizes_exit_two(capsys, flags, message):
    code, out, err = run(capsys, "ladder", "verify", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["interval"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("interval", "--locus", "8,-3", "--orbit-length", "1"),
        ("analyze", "--locus", "4,1", "--orbit-length", "1", "--slope", "1/2"),
        ("census", "verify"),
        ("census", "list"),
        ("track", "build", "--locus", "2,1", "--orbit-length", "1"),
        ("ladder", "verify", "--cases", "10", "--seed", "4"),
        ("coords", "canonical", "--delta", "6/7"),
    ],
)
def test_reruns_byte_identical(capsys, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_track_build_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"name": "mine", "phase": 1, "lower_out": "1/8", "lower_in": "5/8"})
    )
    code, out, _ = run(
        capsys,
        "track",
        "build",
        "--locus",
        "4,1",
        "--orbit-length",
        "1",
        "--config",
        str(cfg),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["branches"]) == 12


def test_output_flag_after_subcommand(capsys):
    code, out, _ = run(
        capsys, "interval", "--locus", "4,1", "--orbit-length", "1", "--output", "text"
    )
    assert code == 0 and "end_a: 2" in out
    # The flag before the subcommand still wins when the sub level omits it.
    code, out, _ = run(
        capsys, "--output", "text", "census", "verify"
    )
    assert code == 0 and "status: ExactMatch" in out
