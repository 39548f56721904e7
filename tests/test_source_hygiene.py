"""Source hygiene: no module under ``src/repro`` imports a name it never uses.

No linter ships with the project, so this is the unused-import check in
stdlib ``ast``: every name an ``import`` statement binds in a module must
occur at least once more in that module's text.  Package ``__init__``
modules are skipped (their imports are re-exports), as are ``__future__``
imports (they bind nothing).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound_names(tree: ast.AST):
    """Yield ``(line, name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    text = path.read_text(encoding="utf-8")
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for line, name in _bound_names(ast.parse(text))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) == 1
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
