"""Every module of the package imports what it uses, once, at its top level.

The source checks use the standard library's ast module alone, so they run
wherever the suite does.  ``__init__.py`` is held to the same rules: it is
a docstring, so ``import reclab`` loads no submodule, and every name is
imported from the module that defines it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reclab

PACKAGE = Path(reclab.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


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


def _imports_package(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "reclab"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "reclab" for a in node.names)


def local_package_imports(source: str) -> list[int]:
    """Lines of imports from the package that are not top-level statements."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(n.lineno for n in ast.walk(tree) if _imports_package(n) and id(n) not in top)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.z(e)\n") == [
        "d (line 2)",
        "os (line 1)",
    ]


def test_detects_a_local_package_import():
    source = (
        "from . import a\nimport os\n"
        "def f():\n    from .b import c\n    import json\n    import reclab.cli\n"
        "    from reclab import d\n    return c\n"
    )
    assert local_package_imports(source) == [4, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_the_package_at_top_level(path):
    assert local_package_imports(path.read_text(encoding="utf-8")) == []


def test_bare_import_loads_no_submodule():
    """In a fresh interpreter ``import reclab`` adds no ``reclab.*`` module,
    and ``import reclab.cli`` adds every module of the package."""
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(k for k in sys.modules if k.startswith('reclab.'))\n"
        "import reclab\n"
        "bare = loaded()\n"
        "import reclab.cli\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout
    bare, with_cli = json.loads(out)
    assert bare == []
    assert with_cli == sorted(f"reclab.{p.stem}" for p in MODULES if p.stem != "__init__")
