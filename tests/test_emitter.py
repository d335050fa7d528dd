"""``cli._dumps`` against its oracle, ``json.dumps(doc, indent=2)``.

The CLI writes every JSON document with ``_dumps``; the stdlib is kept here
as the oracle, byte for byte, on generated trees of every JSON type.
"""

import contextlib
import enum
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dehnfill import cli
from dehnfill.cli import _dumps

# Quotes, backslashes, control characters, DEL, a line separator, non-ASCII
# characters in the BMP, lone surrogates, and characters outside the BMP,
# which JSON escapes as surrogate pairs.
AWKWARD = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\u2028\xe9\xff\uffff\U0001f600\ud800\U0010fc00\udfff'

strings = st.text(st.sampled_from(AWKWARD) | st.characters(exclude_categories=()))
scalars = st.none() | st.booleans() | st.integers() | strings
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=40,
)


@settings(deadline=None)
@given(trees)
@example([])
@example({})
@example([[], {}, [[{}]], {"": {"": []}}, ()])
@example({"k": (1, [True, False, None], {})})
@example([2**64, -(2**64), 10**400, -(10**400), 0])
@example("\U00010000 \udc00\ud800 \x00 \\ \" \u2028")
def test_dumps_is_json_dumps_with_indent_2(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--locus", "6,1", "--orbit-length", "3"]
        + ["--slope=2/3", "--slope=-5/7", "--slope=inf"],
        ["census", "verify"],
        ["track", "build", "--locus", "6,1", "--orbit-length", "3"],
    ],
)
def test_dumps_writes_command_documents_as_json_dumps_does(monkeypatch, argv):
    """The documents the commands hand to the emitter, with their own types."""
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda doc, args: docs.append(doc))
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    (doc,) = docs
    assert _dumps(doc) == json.dumps(doc, indent=2)


class Kind(enum.StrEnum):
    ARC = "arc"


class Sign(enum.IntEnum):
    PLUS = 1


@pytest.mark.parametrize(
    "doc",
    [
        1.0,
        float("nan"),
        {"ok": [0, 0.5]},
        {1, 2},
        [frozenset()],
        {True: 1},
        {"a": {1: "b"}},
        {None: 0},
        Fraction(1, 3),
        {"x": Fraction(2)},
        b"bytes",
        # A str or int subclass is not written as a str or an int, in a
        # container or at the top.
        Kind.ARC,
        {"kind": Kind.ARC},
        ["x", Kind.ARC],
        (Kind.ARC,),
        Sign.PLUS,
        {"sign": Sign.PLUS},
        [0, Sign.PLUS],
    ],
)
def test_dumps_refuses_what_json_would_coerce_or_reject(doc):
    with pytest.raises(TypeError):
        _dumps(doc)
