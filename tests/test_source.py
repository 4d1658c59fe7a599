"""Source checks: no invariant check in the package may vanish under
python -O, so the package has no assert statements and raises no
AssertionError (the CLI would also print those as tracebacks)."""

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
