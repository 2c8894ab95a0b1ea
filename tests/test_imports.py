"""Every package module uses each name it imports.

`__init__.py` is skipped: importing a name there is how it is exported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mmdist"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a.b import c, d as e\nc(e)\n"
    assert unused_imports(source) == [(2, "os")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {
        p.name: unused
        for p in modules
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}
