"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import orbke

SRC = Path(orbke.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
