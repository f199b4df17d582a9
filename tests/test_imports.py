"""Every module of the package uses every name it imports.

Checked with the standard library's ast module alone, so it runs wherever
the suite does.  ``__init__.py`` is exempt: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

import reclab

MODULES = sorted(p for p in Path(reclab.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n") == [
        "d (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
