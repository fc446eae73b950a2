"""Source hygiene: every module-level import in the package is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scissorlab"


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no Name node in the module references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math\nfrom json import dumps, loads\n"
              "print(os.sep, dumps)\n")
    assert unused_imports(source) == ["line 3: math", "line 4: loads"]


def test_no_unused_imports():
    # __init__.py imports in order to re-export
    assert (PACKAGE / "cli.py").is_file()
    stale = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: found for name, found in stale.items() if found} == {}
