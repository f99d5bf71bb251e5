"""Every name a `vqf` module or a test module imports is used in that module.

An AST scan, because no lint tool is a dependency.  `__init__.py` only
re-exports, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vqf"
MODULES = sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Dict\nx: List[int] = []\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Dict")]
