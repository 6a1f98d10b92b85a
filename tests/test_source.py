"""Checks on the library source itself."""

import ast
from pathlib import Path

import idealkit

SRC = Path(idealkit.__file__).parent


def test_library_has_no_assert_statements():
    # invariants must be raised errors so that they survive `python -O`
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
