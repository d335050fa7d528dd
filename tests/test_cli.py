import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
import test_cli_golden as golden

from dehnfill import cli, monodromy, tracks
from dehnfill.cli import main
from dehnfill.arcs import system_from_json
from dehnfill.monodromy import action_from_json


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


def test_text_output_spells_literals_as_json(capsys):
    argv = ("--output", "text", "analyze", "--locus", "6,1", "--orbit-length", "1")
    code, out, _ = run(capsys, *argv, "--slope", "4")
    assert code == 0
    assert "in_interval: false" in out and "fried_ok: true" in out
    assert "guarantees: []" in out and "False" not in out and "True" not in out
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "slope: null" in out and "None" not in out


def test_text_output_tells_empty_lists_from_empty_objects(capsys):
    cli._emit_text({"a": {}, "b": [], "c": [[], {}, True, None, "x", 3], "d": {"e": False}})
    assert capsys.readouterr().out == (
        "a: {}\nb: []\nc:\n  - []\n  - {}\n  - true\n  - null\n  - x\n  - 3\nd:\n  e: false\n"
    )


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


def test_arcs_validate_names_unknown_circles_and_positions_out_of_range(capsys, tmp_path):
    doc = {
        "schema": "arc_system_v1",
        "circles": [{"id": "A", "stable_sings": 2}],
        "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 1}},
        "arcs": [
            {
                "start": {"circle": "Z", "position": "1/4"},
                "end": {"circle": "A", "position": "5/2"},
                "pos_transverse_stable": True,
                "pos_transverse_unstable": True,
            }
        ],
    }
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "arcs", "validate", "--input", str(path))
    assert code == 1
    assert [v["detail"] for v in json.loads(out)["violations"]] == [
        "unknown circle 'Z'",
        "position 5/2 out of range on circle A",
        "segment (0, 1) of circle A holds 0 endpoints",
        "segment (1, 2) of circle A holds 0 endpoints",
    ]


def test_bad_slope_exits_two(capsys):
    code, _, err = run(capsys, "coords", "canonical", "--delta", "4/x")
    assert code == 2
    assert "position" in err


def test_bad_locus_exits_two(capsys):
    for locus, reason in [("4;1", "expected p,q"), ("a,1", "expected integers p,q")]:
        code, out, err = run(capsys, "interval", "--locus", locus, "--orbit-length", "1")
        assert (code, out, err) == (2, "", "error: bad locus %r: %s\n" % (locus, reason))


def test_a_normalized_slope_warns(capsys):
    code, out, err = run(capsys, "coords", "canonical", "--delta=4/-6")
    assert code == 0
    assert err == "warning: slope '4/-6' normalized to -2/3\n"
    assert run(capsys, "coords", "canonical", "--delta=-2/3") == (0, out, "")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("arcs", "refine", "--input"),
        ("arcs", "validate", "--input"),
        ("track", "slopes", "--input"),
        ("track", "build", "--locus", "4,1", "--orbit-length", "1", "--config"),
    ],
)
@pytest.mark.parametrize("doc", [[{"schema": "arc_system_v1"}], "text", 3, None])
def test_json_top_level_not_object_exits_two(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == "error: %s: the top level must be a JSON object\n" % path


def capture(argv):
    """Exit code, stdout and stderr of one request, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Requests whose parse could leak into the next one through a reused parser:
# an ``append`` list, ``--output`` on either level then neither, and an
# argparse error followed by a valid request.
INTERLEAVED = [
    ("analyze", "--locus", "4,1", "--orbit-length", "1", "--slope", "0", "--slope", "3")
    + ("--slope", "1/2"),
    ("analyze", "--locus", "4,1", "--orbit-length", "1", "--slope", "3"),
    ("analyze", "--locus", "4,1", "--orbit-length", "1"),
    ("--output", "text", "interval", "--locus", "4,1", "--orbit-length", "1"),
    ("interval", "--locus", "4,1", "--orbit-length", "1", "--output", "text"),
    ("interval", "--locus", "4,1", "--orbit-length", "1"),
    ("interval", "--locus", "6,1", "--orbit-length", "x"),
    ("coords", "canonical", "--delta", "6/7"),
    ("ladder", "verify", "--cases", "3", "--control"),
    ("ladder", "verify", "--cases", "3"),
    ("census", "show", "no-such-manifold"),
    ("census", "show", "m003"),
]


def test_reused_parser_matches_fresh_parser():
    fresh = []
    for argv in INTERLEAVED:
        cli._build_parser.cache_clear()
        fresh.append(capture(argv))
    cli._build_parser.cache_clear()
    reused = [capture(argv) for argv in INTERLEAVED]
    assert [code for code, _, _ in fresh] == [0] * 6 + [2, 0, 0, 0, 2, 0]
    assert len(json.loads(fresh[1][1])["orbits"]) == 1
    assert reused == fresh


def test_parser_built_once_per_process():
    cli._build_parser.cache_clear()
    for _ in range(5):
        capture(("coords", "canonical", "--delta", "6/7"))
        capture(("interval", "--locus", "6,1", "--orbit-length", "x"))
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 9)


# The malformed requests of the benchmark's ``queries`` workload.
QUERIES_MALFORMED = [
    ("analyze", "--locus", "4,1", "--orbit-length", "1", "--slope", "3/x"),
    ("analyze", "--locus", "5,1", "--orbit-length", "1", "--slope", "1/2"),
    ("interval", "--locus", "4;1", "--orbit-length", "1"),
    ("interval", "--locus", "6,1", "--orbit-length", "x"),
    ("coords", "canonical", "--delta", "1//2"),
    ("census", "show", "no-such-manifold"),
]

# Where the two parse routes could part: ``--output`` on either level or on
# both, abbreviated options, help on each level, tokens left over after a
# command and after a nested one, a missing, unknown or option-like command,
# a bare "--", and a slope that argparse reads as an option.
PARSE_EDGES = [
    (),
    ("-h",),
    ("--output", "text"),
    ("-x", "interval"),
    ("nope", "--locus", "4,1"),
    ("--out", "text", "interval", "--locus", "4,1", "--orbit-length", "1"),
    ("interval", "--out", "text", "--locus", "4,1", "--orbit-length", "1"),
    ("--output", "text", "census", "show", "m003", "--output", "json"),
    ("--output", "xml", "interval", "--locus", "4,1", "--orbit-length", "1"),
    ("interval", "--output", "xml", "--locus", "4,1", "--orbit-length", "1"),
    ("interval", "-h"),
    ("interval", "--locus", "4,1", "--orbit-length", "1", "--bogus"),
    ("interval", "--locus=4,1", "--orbit-length=1", "x"),
    ("interval", "--", "--locus", "4,1", "--orbit-length", "1"),
    ("census",),
    ("census", "-h"),
    ("census", "nope"),
    ("census", "show", "-h"),
    ("census", "show", "m003", "x"),
    ("--output", "text", "census", "show", "m003", "x"),
    ("coords", "canonical", "--delta", "6/7", "--output", "text", "y"),
    ("analyze", "--lo", "4,1", "--orbit-length", "1", "--slope", "-3/5"),
    ("analyze", "--locus", "4,1", "--orbit-length", "1", "--slope=-3/5", "--slope=inf"),
    ("ladder", "verify", "--cases", "2", "--output", "text"),
]


def golden_argvs(tmp):
    """Every command line of ``tests/test_cli_golden.py``, its input files
    written to ``tmp``."""

    def write(name, text):
        (tmp / name).write_text(text)
        return str(tmp / name)

    def piped(name, argv):
        return write(name, capture(argv)[1])

    argvs = [*golden.CRITERION_9.values(), *golden.REPORTS.values(), *golden.MORE_TRACKS.values()]
    for name, doc in golden.MONODROMY.items():
        doc = json.dumps({"schema": "monodromy_boundary_v1", **doc})
        refine = ["arcs", "refine", "--input", write("mono-%s.json" % name, doc)]
        argvs += [refine, ["arcs", "validate", "--input", piped("arcs-%s.json" % name, refine)]]
    bad = write("inadmissible.json", json.dumps(golden.INADMISSIBLE))
    argvs.append(["arcs", "validate", "--input", bad])
    for preset in golden.PRESETS:
        for locus, c in golden.TRACKS:
            build = ["track", "build", "--locus", locus, "--orbit-length", c, "--config", preset]
            track = piped("track-%s-%s.json" % (preset, locus), build)
            argvs += [build, ["track", "slopes", "--input", track]]
    track = piped("track-c5.json", golden.MORE_TRACKS["track-build-c5"])
    argvs.append(["track", "slopes", "--input", track])
    for seed in golden.RANDOM_SEEDS:
        doc = json.dumps(tracks.track_to_json(tracks.random_track(seed)))
        argvs.append(["track", "slopes", "--input", write("random-%d.json" % seed, doc)])
    config = write("odd-config.json", json.dumps(golden.ODD_CONFIG))
    argvs.append(["track", "build", "--locus", "6,1", "--orbit-length", "3", "--config", config])
    return argvs


def parse_and_run(monkeypatch, parse, argv):
    """``capture(argv)`` with ``parse`` in place of ``cli._parse_args``, and
    the namespaces it returned: none when argparse exited."""
    seen = []

    def recording(parser, argv):
        args = parse(parser, argv)
        seen.append(dict(vars(args)))
        return args

    monkeypatch.setattr(cli, "_parse_args", recording)
    return capture(argv), seen


def test_one_level_parse_matches_the_top_level_parser(monkeypatch, tmp_path):
    """``main`` parses a request that starts with a command name through that
    command's parser alone.  The exit code, stdout, stderr and namespace must
    be what the top-level parser gives."""
    fast, plain = cli._parse_args, lambda parser, argv: parser.parse_args(argv)
    argvs = [*golden_argvs(tmp_path), *INTERLEAVED, *QUERIES_MALFORMED, *PARSE_EDGES]
    exits = 0
    for argv in argvs:
        got = parse_and_run(monkeypatch, fast, argv)
        want = parse_and_run(monkeypatch, plain, argv)
        assert got == want, argv
        exits += not want[1]
    # Both kinds occur: requests parsed and run, and argparse exits.
    assert len(argvs) - exits > 40 and exits > 15


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import dehnfill.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


@pytest.mark.parametrize(
    "argv, head",
    [
        # About 260 KB of JSON, more than a pipe holds: the write meets the
        # closed pipe while the command is still printing.
        (["track", "build", "--locus", "40,1", "--orbit-length", "9"], b'{\n  "schem'),
        # A few lines, closed before the command starts: only the final
        # flush of stdout meets the closed pipe.
        (["interval", "--locus", "4,1", "--orbit-length", "1"], b""),
    ],
)
def test_closed_stdout_exits_141_quietly(argv, head):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # Stdout stays block-buffered, as it is on a pipe by default.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dehnfill", *argv],
        env=dict(env, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141 and err == b"", err


def test_track_slopes_enumerates_cycles_once(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "track", "build", "--locus", "6,1", "--orbit-length", "3")
    assert code == 0
    path = tmp_path / "track.json"
    path.write_text(out)
    calls = []
    enumerate_cycles = tracks._cycle_sums
    monkeypatch.setattr(
        tracks,
        "_cycle_sums",
        lambda track, labels: calls.append(track) or enumerate_cycles(track, labels),
    )
    code, out, _ = run(capsys, "track", "slopes", "--input", str(path))
    assert code == 0 and json.loads(out)["extreme_rays"] > 0
    assert len(calls) == 1


BAD_BRANCH = 'expected an object with "class": [a, b]'
BAD_SWITCH = (
    'expected an object with "single": [branch, end] and "double": [[branch, end], [branch, end]]'
)


@pytest.mark.parametrize(
    "branches, switches, message",
    [
        ([[1]], [], "branches[0]: " + BAD_BRANCH),
        ([{"class": [1, 0]}, {"class": [1]}], [], "branches[1]: " + BAD_BRANCH),
        ([{"class": ["1", 0]}], [], "branches[0]: " + BAD_BRANCH),
        ([{"label": "x"}], [], "branches[0]: " + BAD_BRANCH),
        (None, [], '"branches": expected a list'),
        ([], [[0, 1]], "switches[0]: " + BAD_SWITCH),
        ([], [{"single": [0, 1], "double": [[1, 0]]}], "switches[0]: " + BAD_SWITCH),
        ([], [{"single": [0, 1], "double": [[1, 0], [2, None]]}], "switches[0]: " + BAD_SWITCH),
        ([], {}, '"switches": expected a list'),
        (
            [{"class": [1, 0]}, {"class": [0, 1]}, {"class": [1, 1]}],
            [
                {"single": [0, 1], "double": [[1, 0], [2, 0]]},
                {"single": [0, 1], "double": [[1, 1], [2, 1]]},
            ],
            "branch end (0, 1) attached to two switches",
        ),
    ],
)
def test_track_slopes_malformed_entry_exits_two(capsys, tmp_path, branches, switches, message):
    doc = {"schema": "torus_track_v1", "switches": switches}
    if branches is not None:
        doc["branches"] = branches
    path = tmp_path / "track.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "track", "slopes", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["refine", "validate"])
@pytest.mark.parametrize(
    "circles, message",
    [
        ([{"stable_sings": 4}], 'circles[0]: missing "id"'),
        ([{"id": "A", "stable_sings": 4}, {"id": "B"}], 'circles[1]: missing "stable_sings"'),
        ([{"id": "A", "stable_sings": "4"}], 'circles[0]: "stable_sings" must be an integer'),
        (["A"], "circles[0]: expected an object"),
        ({"A": 4}, '"circles": expected a list'),
        (
            [{"id": "A", "stable_sings": 1002}],
            'circles[0]: "stable_sings" must be at most 1000, not 1002',
        ),
        ([{"id": "A", "stable_sings": 4}, {"id": "A", "stable_sings": 4}], "duplicate circle ids"),
        # Two faulty entries: the first in document order is named.
        (
            [{"id": 1, "stable_sings": 4}, {"id": "B", "stable_sings": "4"}],
            'circles[0]: "id" must be a string',
        ),
    ],
)
def test_arcs_malformed_circle_exits_two(capsys, tmp_path, command, circles, message):
    if command == "refine":
        doc = {"schema": "monodromy_boundary_v1", "permutation": {"A": "A"}, "shifts": {"A": 3}}
    else:
        doc = {
            "schema": "arc_system_v1",
            "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 0}},
            "arcs": [],
        }
    doc["circles"] = circles
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "arcs", command, "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_arcs_at_the_stable_sings_cap(capsys, tmp_path):
    doc = {
        "schema": "monodromy_boundary_v1",
        "circles": [{"id": "A", "stable_sings": 1000}],
        "permutation": {"A": "A"},
        "shifts": {"A": 3},
    }
    mono = tmp_path / "mono.json"
    mono.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "arcs", "refine", "--input", str(mono))
    assert code == 0
    arcs = tmp_path / "arcs.json"
    arcs.write_text(out)
    assert run(capsys, "arcs", "validate", "--input", str(arcs))[0] == 0


@pytest.mark.parametrize("locus, c", [("6,1", 2), ("2,1", 2), ("8,-3", 4)])
def test_track_build_even_orbit_length_on_odd_q_exits_two(capsys, locus, c):
    # Odd q forces odd c; build_boundary_track itself still builds the even-c
    # track (tests/test_tracks.py pins one).
    code, out, err = run(capsys, "track", "build", "--locus", locus, "--orbit-length", str(c))
    assert code == 2 and out == ""
    assert err == (
        "error: --orbit-length %d: on a locus with odd q the orbit length is odd; "
        "an even one lies outside the paper's domain\n" % c
    )


def test_analyze_orbit_length_cap(capsys):
    # One circle id per unit of length is built and printed, so the cap is
    # checked before anything is built.  `interval` takes constant work at
    # any length and has no cap.
    cap = monodromy.ORBIT_LENGTH_CAP
    code, out, err = run(capsys, "analyze", "--locus", "6,1", "--orbit-length", str(cap))
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["orbits"][0]["orbit_length"] == cap and len(doc["orbits"][0]["circles"]) == cap
    for c in (cap + 1, 10**30):
        code, out, err = run(capsys, "analyze", "--locus", "6,1", "--orbit-length", str(c))
        assert code == 2 and out == ""
        assert err == "error: --orbit-length must be at most %d, not %d\n" % (cap, c)
    code, out, _ = run(capsys, "interval", "--locus", "6,1", "--orbit-length", str(10**30))
    assert code == 0 and json.loads(out)["schema"] == "interval_v1"


@pytest.mark.parametrize("c", [-3, 0])
@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--locus", "6,1", "--slope=1/2"),
        ("analyze", "--locus", "6,1"),
        ("interval", "--locus", "6,1"),
        ("track", "build", "--locus", "6,1"),
    ],
)
def test_orbit_length_below_one_exits_two(capsys, argv, c):
    code, out, err = run(capsys, *argv, "--orbit-length=%d" % c)
    assert code == 2 and out == ""
    assert err == "error: orbit length must be >= 1\n"


def test_track_build_above_the_branch_cap_exits_two(capsys):
    code, out, err = run(capsys, "track", "build", "--locus", "10002,1", "--orbit-length", "1")
    assert code == 2 and out == ""
    assert err == (
        "error: a boundary track has 3*p*c branches, which must be at most 30000, "
        "not 30006\n"
    )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"shifts": [3]}, '"shifts": expected an object'),
        ({"shifts": {"A": "3"}}, 'shifts["A"]: expected an integer'),
        ({"shifts": {"A": 1.5}}, 'shifts["A"]: expected an integer'),
        ({"permutation": ["A"]}, '"permutation": expected an object'),
        ({"permutation": {"A": 1}}, 'permutation["A"]: expected a circle id (a string)'),
        ({"circles": [{"id": 1, "stable_sings": 4}]}, 'circles[0]: "id" must be a string'),
        (
            {
                "circles": [{"id": "A", "stable_sings": 4}, {"id": "B", "stable_sings": 4}],
                "permutation": {"A": "B", "B": "A"},
                "shifts": {"B": 1},
            },
            "shifts must be keyed by orbit base ids ['A']",
        ),
        (
            {
                "circles": [{"id": "A", "stable_sings": 2}, {"id": "B", "stable_sings": 4}],
                "permutation": {"A": "B", "B": "A"},
                "shifts": {"A": 1},
            },
            "circles ['A', 'B'] in one orbit have differing singularity counts",
        ),
    ],
)
def test_arcs_refine_malformed_action_exits_two(capsys, tmp_path, changes, message):
    doc = {
        "schema": "monodromy_boundary_v1",
        "circles": [{"id": "A", "stable_sings": 4}],
        "permutation": {"A": "A"},
        "shifts": {"A": 3},
    }
    doc.update(changes)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "arcs", "refine", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message
    # The library loader reads the document the same way.
    with pytest.raises(ValueError, match=re.escape(message)):
        action_from_json(doc)


MISSING = object()


def _arc(start="1/4", end="3/4", stable=True, unstable=True):
    return {
        "start": {"circle": "A", "position": start},
        "end": {"circle": "A", "position": end},
        "pos_transverse_stable": stable,
        "pos_transverse_unstable": unstable,
    }


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"monodromy": []}, '"monodromy": expected an object'),
        ({"monodromy": MISSING}, '"monodromy": expected an object'),
        (
            {"monodromy": {"permutation": {"X": "X"}, "shifts": {"X": 1}}},
            "permutation is not a bijection on the circle ids",
        ),
        (
            {"monodromy": {"permutation": {"A": "A"}, "shifts": {"A": "1"}}},
            'monodromy.shifts["A"]: expected an integer',
        ),
        ({"monodromy": {"shifts": {"A": 1}}}, '"monodromy.permutation": expected an object'),
        (
            {
                "circles": [{"id": "A", "stable_sings": 2}, {"id": "B", "stable_sings": 4}],
                "monodromy": {"permutation": {"A": "B", "B": "A"}, "shifts": {"A": 1, "B": 0}},
            },
            "circles ['A', 'B'] in one orbit have differing singularity counts",
        ),
        ({"arcs": MISSING}, '"arcs": expected a list'),
        ({"arcs": [1]}, "arcs[0]: expected an object"),
        ({"arcs": [_arc(start=None)]}, 'arcs[0].start.position: expected an integer or an "a/b" string'),
        ({"arcs": [_arc(end="1/0")]}, 'arcs[0].end.position: expected an integer or an "a/b" string'),
        ({"arcs": [_arc(end=0.75)]}, 'arcs[0].end.position: expected an integer or an "a/b" string'),
        ({"arcs": [{**_arc(), "end": "A"}]}, 'arcs[0].end: expected an object with a string "circle"'),
        ({"arcs": [_arc(stable=1)]}, "arcs[0].pos_transverse_stable: expected true or false"),
        ({"arcs": [_arc(end="1/4")]}, "arcs[0]: arc endpoints must occupy distinct slots"),
    ],
)
def test_arcs_validate_malformed_system_exits_two(capsys, tmp_path, changes, message):
    doc = {
        "schema": "arc_system_v1",
        "circles": [{"id": "A", "stable_sings": 2}],
        "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 1}},
        "arcs": [_arc()],
    }
    for key, value in changes.items():
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "arcs", "validate", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message
    with pytest.raises(ValueError, match=re.escape(message)):
        system_from_json(doc)


@pytest.mark.parametrize(
    "config, message",
    [
        ({"lower_out": 0.3}, '"lower_out": expected an integer or an "a/b" string'),
        ({"lower_out": [1]}, '"lower_out": expected an integer or an "a/b" string'),
        ({"lower_in": True}, '"lower_in": expected an integer or an "a/b" string'),
        ({"upper_nudge": "1/0"}, '"upper_nudge": expected an integer or an "a/b" string'),
        ({"upper_nudge": "x"}, '"upper_nudge": expected an integer or an "a/b" string'),
        ({"phase": 1.7}, '"phase": expected an integer'),
        ({"phase": "1"}, '"phase": expected an integer'),
    ],
)
def test_track_build_config_takes_exact_values_only(capsys, tmp_path, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["track", "build", "--locus", "4,1", "--orbit-length", "1", "--config", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


# Text that ``Fraction`` reads but an exact field does not: a decimal, an
# exponent (``1e100000000`` would build ``10**100000000``), a digit separator,
# a non-ASCII digit, padding and a signed denominator.
@pytest.mark.parametrize("text", ["0.25", "1e3", "1_0", "\u0663", "1e100000000", " 1/4 ", "1/-4"])
def test_exact_fields_take_ascii_integers_and_ratios_only(capsys, tmp_path, text):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lower_out": text}))
    system = tmp_path / "doc.json"
    system.write_text(
        json.dumps(
            {
                "schema": "arc_system_v1",
                "circles": [{"id": "A", "stable_sings": 2}],
                "monodromy": {"permutation": {"A": "A"}, "shifts": {"A": 1}},
                "arcs": [_arc(end=text)],
            }
        )
    )
    track_build = ("track", "build", "--locus", "4,1", "--orbit-length", "1", "--config")
    for argv, where in [
        ((*track_build, config), '"lower_out"'),
        (("arcs", "validate", "--input", system), "arcs[0].end.position"),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, *map(str, argv))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == 'error: %s: expected an integer or an "a/b" string\n' % where


@pytest.mark.parametrize("levels, rungs", [("1001", "6"), ("8", "1001")])
def test_ladder_sizes_above_the_cap_exit_two(capsys, levels, rungs):
    code, out, err = run(capsys, "ladder", "verify", "--levels", levels, "--rungs", rungs)
    assert code == 2 and out == ""
    assert err.startswith("error: max_levels and max_rungs_per_gap must be <= 1000")
