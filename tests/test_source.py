"""Checks on the library's source text."""

import ast
import pathlib

import procover


def test_no_assert_in_library():
    """Invariants raise named errors: ``assert`` is stripped under ``python -O``."""
    found = []
    for path in sorted(pathlib.Path(procover.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
