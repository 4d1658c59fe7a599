"""Source checks: no invariant check in the package may vanish under
python -O, so the package has no assert statements and raises no
AssertionError (the CLI would also print those as tracebacks); and every
function, class and method the package defines is named somewhere in
the package, the tests or the benchmark."""

import ast
import pathlib

import alcalc

SOURCES = sorted(pathlib.Path(alcalc.__file__).parent.glob("*.py"))


def _assertions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_sources_found():
    assert len(SOURCES) >= 14


def test_no_assertions_in_package():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _assertions(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_detector_sees_both_forms():
    src = "assert x\nraise AssertionError('a')\nraise AssertionError\nraise ValueError('b')\n"
    assert [what for _, what in _assertions(ast.parse(src))] == [
        "assert statement",
        "raise AssertionError",
        "raise AssertionError",
    ]


ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERRING = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def _unreferenced(defining, referring):
    names = {name for path in referring for name in _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))}
    return [
        f"{path.name}:{line} {name}"
        for path in defining
        for line, name in sorted(_definitions(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        if name not in names
    ]


def test_every_definition_is_referenced():
    # a function, class or method that nothing names is dead code; special
    # methods are named by the language itself
    assert len(REFERRING) > len(SOURCES)
    assert _unreferenced(SOURCES, REFERRING) == []


def test_reference_detector(tmp_path):
    defining = tmp_path / "mod.py"
    defining.write_text(
        "class Used:\n    def __init__(self): pass\n    def dead(self): pass\n"
        "def called(): pass\ndef imported(): pass\ndef _orphan(): pass\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text("from mod import imported as other\nUsed().x\ncalled()\n", encoding="utf-8")
    assert _unreferenced([defining], [defining, user]) == ["mod.py:3 dead", "mod.py:6 _orphan"]
