"""Static checks of the package source, parsed with ast (the project configures no linter)."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glzi"


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_defines_a_name_twice(path):
    # a second definition silently replaces the first, which is then dead code
    names = Counter(_top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert [name for name, count in names.items() if count > 1] == []
