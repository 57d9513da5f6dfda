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


def _is_functools_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_the_library_caches_only_the_incidence_tables_and_the_witness_map():
    # the rack tables are cheap and read once per command, or by a cached table
    cached = sorted(node.name for path in sorted(SRC.glob("*.py"))
                    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
                    if isinstance(node, ast.FunctionDef)
                    and any(_is_functools_cache(d) for d in node.decorator_list))
    assert cached == ["build_witness_map", "class_coordinates", "pair_mask", "position_data"]


def test_the_layout_generic_matrix_methods_are_defined_once():
    # every ring layout keeps rows and columns on its last two axes, so Ring defines
    # these from each family's from_int_matrix, mat_mul and mat_sub
    tree = ast.parse((SRC / "rings.py").read_text(encoding="utf-8"))
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for name in ("zeros", "eye", "shape", "mat_kron", "first_difference"):
        assert defined.count(name) == 1, (name, defined.count(name))
