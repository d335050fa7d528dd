"""Every JSON reader of the command line, given any JSON value: ``cli.main``
returns 0 or 2 (or 1 from ``arcs validate``, which reports an inadmissible
system that way) and never raises.

Two strategies feed each reader: any JSON value as the whole document, and a
valid document with one value anywhere in it, or the whole of it, replaced by
any JSON value, so that the readers' inner checks are reached too.  A file
nested too deeply for ``json.load`` exits 2 as well.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import capture

from dehnfill.arcs import refined_matching, system_to_json
from dehnfill.monodromy import DegeneracyLocus, action_from_json
from dehnfill.tracks import build_boundary_track, track_to_json

# What json.load gives back: NaN and the infinities included, which Python's
# json module writes and reads although JSON has no literal for them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)

MONODROMY = {
    "schema": "monodromy_boundary_v1",
    "circles": [{"id": "A", "stable_sings": 4}, {"id": "B", "stable_sings": 2}],
    "permutation": {"A": "A", "B": "B"},
    "shifts": {"A": 3, "B": 1},
}
# What `arcs refine` writes for MONODROMY, an admissible system.
ARC_SYSTEM = system_to_json(refined_matching(action_from_json(MONODROMY)))
# What `track build --locus 4,1 --orbit-length 1` writes.
TRACK = track_to_json(build_boundary_track(DegeneracyLocus(4, 1), 1))
CONFIG = {"name": "mine", "phase": 1, "lower_out": "1/8", "lower_in": "5/8", "upper_nudge": "1/16"}

# Each reader's command, less the file, its valid document and its exit codes.
READERS = [
    (("arcs", "refine", "--input"), MONODROMY, {0, 2}),
    (("arcs", "validate", "--input"), ARC_SYSTEM, {0, 1, 2}),
    (("track", "slopes", "--input"), TRACK, {0, 2}),
    (("track", "build", "--locus", "6,1", "--orbit-length", "1", "--config"), CONFIG, {0, 2}),
]


def value_paths(doc, prefix=()):
    """The key paths of every value in ``doc``, ``doc`` itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def mutations(doc):
    return st.builds(replaced, st.just(doc), st.sampled_from(list(value_paths(doc))), json_values)


def run_reader(argv, doc):
    return run_text(argv, json.dumps(doc))


def run_text(argv, text):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        return capture(argv + (path,))
    finally:
        os.remove(path)


def test_the_valid_documents_are_read():
    for argv, doc, _ in READERS:
        code, out, err = run_reader(argv, doc)
        assert code == 0 and err == "", (argv, err)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(READERS), json_values)
def test_any_json_value_exits_cleanly(reader, doc):
    argv, _, codes = reader
    code, _, err = run_reader(argv, doc)
    assert code in codes, (argv, doc, err)
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_any_value_inside_a_document_exits_cleanly(data):
    argv, doc, codes = data.draw(st.sampled_from(READERS))
    doc = data.draw(mutations(doc))
    code, _, err = run_reader(argv, doc)
    assert code in codes, (argv, doc, err)
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err


def test_deeply_nested_input_exits_two():
    # json.load raises RecursionError on 200,000 nested arrays, which json
    # itself cannot write.
    text = "[" * 200_000 + "]" * 200_000
    for argv, _, _ in READERS:
        code, out, err = run_text(argv, text)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.endswith(": JSON nested too deeply to read\n"), err
