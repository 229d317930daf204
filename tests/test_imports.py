"""Every imported name is used by the module that imports it.

An ``ast`` scan over the package and the tests.  ``from __future__``
imports are skipped, as is any import statement whose first line carries
``# noqa: F401`` (a deliberate re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    list((ROOT / "src" / "greenfan").glob("*.py")) + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never references, in file order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_skipped_imports():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path as osp\n"
        "from re import (  # noqa: F401\n"
        "    sub,\n"
        ")\n"
        "from math import gcd, lcm\n"
        "print(json.dumps(gcd(4, 6)))\n"
    )
    assert unused_imports(source) == ["osp", "lcm"]


def imported_modules(source: str) -> set[str]:
    """The top-level modules ``source`` imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_package_module_imports_dataclasses():
    """``dataclasses`` loads ``inspect``, which every CLI start would pay for.

    Static, because the modules an interpreter's ``site`` loads vary.
    """
    package = sorted((ROOT / "src" / "greenfan").glob("*.py"))
    assert [p.name for p in package if "dataclasses" in imported_modules(p.read_text())] == []


def test_the_module_scan_sees_every_import_form():
    source = (
        "import dataclasses as dc, os.path\n"
        "from json.decoder import JSONDecodeError\n"
        "from . import exchange\n"
        "def f():\n"
        "    from fractions import Fraction\n"
    )
    assert imported_modules(source) == {"dataclasses", "os", "json", "fractions"}
