"""Checks on the library's own source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ybrack"


def test_the_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 10
    assert not found, f"assert statements in src/ybrack: {', '.join(found)}"
