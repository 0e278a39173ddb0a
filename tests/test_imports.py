"""Every name a module imports is used in it, so a stale import fails
tier-1 without a linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/xnesim", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_imported_names_are_used(path):
    tree = ast.parse(path.read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []
