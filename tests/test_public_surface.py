"""The library's public surface is the command line, what the library's own
code uses, and the functions that the README's "Library API" section lists.
Every module under ``src/dehnfill`` is parsed, and each name in its
``__all__`` must be loaded by some other code there or be on that list, so
that no public function lives on for its own tests alone.  Every JSON schema
that the library writes is part of that surface too, and the README must name
it."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dehnfill"


def public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def loads(tree):
    """(name, owner, source) of each load in a module's code: a bare name, or
    an attribute of a sibling module taken with ``from . import``.  The owner
    is the top-level function or class the load sits in, else ``None``.  The
    source is the sibling module the name is bound from, by ``from .module
    import name`` or as that module's attribute, else ``None`` for a name of
    the module's own."""
    bound = {}  # local name -> (sibling module, name there); None: the module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = None if node.module is None else (node.module, alias.name)
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                source, name = bound.get(node.id) or (None, node.id)
                found.add((name, owner, source))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and bound[node.value.id] is None
            ):
                found.add((node.attr, owner, node.value.id))
    return found


def unused_public_names(sources):
    """``(module, name)`` of each name in a module's ``__all__`` that no code
    outside the name's own definition loads; ``sources`` maps module names to
    source text.  Another module's load counts only when it binds the name
    from the defining module."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {
        (name, module, owner, source)
        for module, tree in trees.items()
        for name, owner, source in loads(tree)
    }
    return [
        (module, name)
        for module, tree in sorted(trees.items())
        for name in public_names(tree)
        if not any(
            n == name and (src == module if m != module else src is None and o != name)
            for n, m, o, src in used
        )
    ]


def library_api():
    """``(module, name)`` of each row of the README's "Library API" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)\.(\w+)", section, re.MULTILINE))


def library_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_checker_sees_loads_only_outside_the_definition():
    sources = {
        "a": (
            '"""used_in_docstring is named here only."""\n'
            '__all__ = ["used_in_docstring", "recursive", "called", "by_module"]\n'
            "def used_in_docstring():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def called():\n    pass\n"
            "def by_module():\n    pass\n"
        ),
        "b": "from . import a\nfrom .a import called\nx = called()\ny = a.by_module()\n",
        # Same-named loads that are not bound from ``a`` do not count.
        "c": (
            "from . import b\n"
            "def f(used_in_docstring):\n    return used_in_docstring, b.recursive\n"
        ),
    }
    assert unused_public_names(sources) == [("a", "used_in_docstring"), ("a", "recursive")]


def test_every_public_name_is_used_or_listed():
    unlisted = set(unused_public_names(library_sources())) - library_api()
    assert sorted(unlisted) == []


def test_the_list_names_public_functions():
    public = {
        (module, name)
        for module, text in library_sources().items()
        for name in public_names(ast.parse(text))
    }
    assert sorted(library_api() - public) == []


def definitions(tree):
    """``(name, is_member, first_line, last_line)`` of each function, class,
    method and property of a module, dunders aside; a member is a definition
    in a class body."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((child.name, in_class, child.lineno, child.end_lineno))
                visit(child, isinstance(child, ast.ClassDef))
            else:
                visit(child, in_class)

    visit(tree, False)
    return found


def names_used(tree):
    """``(name, line, as_member)`` of each name that a module names: a bare
    name or an imported one, and as a member an attribute or an identifier
    string, which ``getattr`` may take."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            yield node.value, node.lineno, True


def dead_definitions(library, others):
    """``(module, name)`` of each definition in ``library`` (module names to
    source text) that is not in its module's ``__all__`` and that no code in
    ``library`` or ``others`` names outside the definition itself.  A method
    or property is named only as a member."""
    library = {module: ast.parse(text) for module, text in library.items()}
    trees = {**library, **{module: ast.parse(text) for module, text in others.items()}}
    used = [
        (name, module, line, as_member)
        for module, tree in trees.items()
        for name, line, as_member in names_used(tree)
    ]
    return [
        (module, name)
        for module, tree in sorted(library.items())
        for name, is_member, first, last in definitions(tree)
        if name not in public_names(tree)
        and not any(
            n == name and (as_member or not is_member) and not (m == module and first <= ln <= last)
            for n, m, ln, as_member in used
        )
    ]


def test_checker_finds_dead_definitions():
    sources = {
        "a": (
            '__all__ = ["public"]\n'
            "def public():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def called():\n    pass\n"
            "def by_name():\n    pass\n"
            "class A:\n"
            "    def __init__(self):\n        self.used\n"
            "    @property\n    def used(self):\n        pass\n"
            "    @property\n    def by_bare_name(self):\n        pass\n"
            "    def recursive_method(self):\n        self.recursive_method()\n"
        ),
        "b": "from .a import called\nby_bare_name = 1\nx = getattr(A(), 'by_name')\n",
    }
    assert dead_definitions({"a": sources["a"]}, {"b": sources["b"]}) == [
        ("a", "recursive"),
        ("a", "by_bare_name"),
        ("a", "recursive_method"),
    ]


def test_every_definition_is_named_elsewhere():
    others = {
        "perfbench/" + path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    }
    assert dead_definitions(library_sources(), others) == []


def schemas(tree):
    """The string values of the ``"schema"`` keys of a module's dict displays."""
    return {
        value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant)
        and key.value == "schema"
        and isinstance(value, ast.Constant)
        and isinstance(value.value, str)
    }


def test_checker_sees_schema_values():
    text = 'a = {"schema": "x_v1", "n": 1}\nb = {**a, "schema": "y_v1"}\nc = {"k": "schema"}\n'
    assert schemas(ast.parse(text)) == {"x_v1", "y_v1"}


def test_the_readme_names_every_schema():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    written = set().union(*(schemas(ast.parse(text)) for text in library_sources().values()))
    assert len(written) >= 9
    assert sorted(name for name in written if "`%s`" % name not in readme) == []
