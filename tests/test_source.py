"""Checks on the library's source text."""

import ast
import pathlib
import re

import procover


def test_no_assert_in_library():
    """Invariants raise named errors: ``assert`` is stripped under ``python -O``."""
    found = []
    for path in sorted(pathlib.Path(procover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_top_level_name_is_used():
    """Every top-level function and class of the library, and every method
    of a top-level class other than a dunder, is referenced in ``src/``,
    ``tests/`` or ``benchmarks/`` besides its own definition."""
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "procover"
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "tests", "benchmarks")
             for path in sorted((root / folder).rglob("*.py"))]
    defs = (ast.FunctionDef, ast.ClassDef)
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = []
        for node in tree.body:
            if isinstance(node, defs):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += ["%s.%s" % (node.name, item.name) for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")]
        for name in names:
            word = re.compile(r"\b%s\b" % re.escape(name.split(".")[-1]))
            if sum(len(word.findall(text)) for text in texts) < 2:
                unused.append("%s:%s" % (path.name, name))
    assert unused == []


def test_tower_action_and_congruence_errors_carry_a_witness():
    """Every ``raise TowerError/ActionError/CongruenceError(...)`` in the
    library passes ``witness=``, so the exit-1 report always has one."""
    classes = {"TowerError", "ActionError", "CongruenceError"}
    raised, missing = 0, []
    for path in sorted(pathlib.Path(procover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in classes:
                continue
            raised += 1
            if "witness" not in {k.arg for k in node.exc.keywords}:
                missing.append("%s:%d" % (path.name, node.lineno))
    assert raised > 20
    assert missing == []
