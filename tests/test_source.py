"""Source checks: no invariant check in the package may vanish under
python -O, so the package has no assert statements and raises no
AssertionError (the CLI would also print those as tracebacks); and every
function, class and method the package defines is reached from what the
package is for: its module-level code (the CLI's handler table), the
paper's acceptance criteria (tests/test_acceptance.py), or a traced
metric of the benchmark (perfbench/run.py).  A name used only by other
tests, or only by definitions that are not reached, is not a use: a
helper that only tests reach belongs under tests/."""

import ast
import pathlib

import pytest

import alcalc

SOURCES = sorted(pathlib.Path(alcalc.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


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
        for line, what in _assertions(_parse(path))
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
# the tables of perfbench/run.py whose strings name traced functions
STEM_TABLES = ("CALLS", "SECONDS", "SUMS", "ALIAS")


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _special(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not _special(node.name):
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


def _stem_tables(tree):
    """{table: names} for the module-level stem tables: every dotted part
    of every string constant assigned to them ("chartsolve.ChartSystem.solve"
    names ChartSystem and solve)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in STEM_TABLES:
                    out[target.id] = {
                        part
                        for sub in ast.walk(node.value)
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                        for part in sub.value.split(".")
                    }
    return out


def _package_graph(tree):
    """(roots, uses) of one package module.  Roots are the names used by
    module-level statements other than definitions and imports; uses maps
    a definition's name (or an import's local alias) to the names its body
    uses.  A class owns its bases, decorators, fields and special methods;
    an ordinary method is a definition of its own, reached when its name
    is."""
    roots, uses = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname:
                    uses.setdefault(alias.asname, set()).add(alias.name.rsplit(".", 1)[-1])
            continue
        if not isinstance(node, DEFINITIONS):
            roots.update(_references(node))
            continue
        own = uses.setdefault(node.name, set())
        if not isinstance(node, ast.ClassDef):
            own.update(_references(node))
            continue
        for part in node.bases + node.keywords + node.decorator_list:
            own.update(_references(part))
        for item in node.body:
            if isinstance(item, DEFINITIONS) and not _special(item.name):
                uses.setdefault(item.name, set()).update(_references(item))
            else:
                own.update(_references(item))
    return roots, uses


def _unreferenced(root):
    """Definitions under root/src that are not reached from the package's
    module-level code, tests/test_acceptance.py or a stem table of
    perfbench/run.py.  Names are matched without scopes, so a name that is
    reached keeps every definition of that name."""
    defining = sorted((root / "src").rglob("*.py"))
    tables = _stem_tables(_parse(root / "perfbench" / "run.py"))
    if sorted(tables) != sorted(STEM_TABLES):
        raise ValueError(f"perfbench/run.py defines stem tables {sorted(tables)}, expected {sorted(STEM_TABLES)}")
    live = set().union(*tables.values()) | set(_references(_parse(root / "tests" / "test_acceptance.py")))
    uses = {}
    for path in defining:
        roots, module_uses = _package_graph(_parse(path))
        live |= roots
        for name, used in module_uses.items():
            uses.setdefault(name, set()).update(used)
    todo = list(live)
    while todo:
        for name in uses.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    return [
        f"{path.name}:{line} {name}"
        for path in defining
        for line, name in sorted(_definitions(_parse(path)))
        if name not in live
    ]


def test_every_definition_is_referenced():
    # a function, class or method that no report, acceptance criterion or
    # benchmark metric reaches is dead code, even when a test calls it;
    # special methods are reached with their class
    assert _unreferenced(ROOT) == []


def test_reference_detector(tmp_path):
    for sub in ("src/pkg", "tests", "perfbench"):
        (tmp_path / sub).mkdir(parents=True)
    (tmp_path / "src/pkg/mod.py").write_text(
        "class Used:\n    def __init__(self): pass\n    def dead(self): pass\n"
        "def called(): pass\ndef imported(): pass\ndef _orphan(): pass\n"
        "def accepted(): pass\ndef traced(): pass\nclass Aliased:\n    def solve(self): pass\n"
        "def tested_only(): pass\ndef chained(): pass\ndef dead_caller(): chained()\n"
        "ROOT_TABLE = {'k': called}\n",
        encoding="utf-8",
    )
    (tmp_path / "src/pkg/user.py").write_text(
        "from mod import dead_caller, imported as other\ndef f():\n    other()\n    return Used().x\nf()\n", encoding="utf-8"
    )
    (tmp_path / "tests/test_acceptance.py").write_text("from pkg.mod import accepted\n", encoding="utf-8")
    (tmp_path / "tests/test_mod.py").write_text("from pkg.mod import tested_only, dead\n", encoding="utf-8")
    (tmp_path / "perfbench/run.py").write_text(
        'ALIAS = {"mod.solve": "mod.Aliased.solve"}\nCALLS = ("mod.traced",)\nSECONDS = ()\nSUMS = {}\n'
        'OTHER = ("mod.tested_only",)\n',
        encoding="utf-8",
    )
    # a name used only by a test other than the acceptance criteria, by a
    # benchmark string outside the stem tables, by an import or by a
    # definition that is itself not reached does not keep a definition
    assert _unreferenced(tmp_path) == [
        "mod.py:3 dead",
        "mod.py:6 _orphan",
        "mod.py:11 tested_only",
        "mod.py:12 chained",
        "mod.py:13 dead_caller",
    ]
    (tmp_path / "perfbench/run.py").write_text('CALLS = ("mod.traced",)\n', encoding="utf-8")
    with pytest.raises(ValueError, match="stem tables"):
        _unreferenced(tmp_path)
