"""The library promises no floating point anywhere.  Every module under
``src/dehnfill`` is parsed and checked for float literals, ``float(...)``
calls and true division; the only divisions allowed are the pinned ones
whose dividend is a ``Fraction``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehnfill"

# (module, source text) of each true division of a Fraction.
FRACTION_DIVISIONS = []


def float_uses(text):
    """(kind, source text) of each float literal, ``float`` call and true
    division in a module's source."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(("float literal", node))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(("float call", node))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(("true division", node))
    return [(kind, ast.get_source_segment(text, node)) for kind, node in found]


def test_checker_sees_each_kind():
    text = "x = 0.5\ny = float(3)\nz = 1 / 2\nz /= 2\nw = 7 // 2\n"
    assert sorted(float_uses(text)) == [
        ("float call", "float(3)"),
        ("float literal", "0.5"),
        ("true division", "1 / 2"),
        ("true division", "z /= 2"),
    ]


def test_no_floating_point_in_library():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    divisions = []
    others = []
    for path in modules:
        for kind, source in float_uses(path.read_text(encoding="utf-8")):
            if kind == "true division":
                divisions.append((path.name, source))
            else:
                others.append((path.name, kind, source))
    assert others == []
    assert sorted(divisions) == sorted(FRACTION_DIVISIONS)
