"""Source hygiene: every module-level import in the package is used, every
module-level private function or class is referenced, every module-level
constant is read, and the names the package exports but never uses itself
are a pinned set."""

import ast
from pathlib import Path

import pytest

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


def referenced_names(tree: ast.AST) -> set[str]:
    """Every Name and attribute name the tree refers to."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no Name or attribute
    in any of the modules refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.lineno, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        used |= referenced_names(tree)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in used]


def test_scanner_flags_only_orphaned_privates():
    sources = {
        "a.py": ("from b import _shared\n"
                 "def _local():\n    return _shared()\n"
                 "class _Orphan:\n    pass\n"
                 "def public():\n    return _local()\n"),
        "b.py": ("def _shared():\n    return 1\n"
                 "def _stale():\n    return 2\n"
                 "def _through_attr():\n    return 3\n"
                 "import b\nb._through_attr()\n"),
    }
    assert orphaned_privates(sources) == ["a.py line 4: _Orphan",
                                          "b.py line 3: _stale"]


def test_no_orphaned_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli.py" in sources
    assert orphaned_privates(sources) == []


def exported_but_unused(sources: dict[str, str]) -> set[str]:
    """Names ``__init__.py`` re-exports that no other module refers to by a
    Name or attribute: public API whose only callers are outside the
    package."""
    init = ast.parse(sources["__init__.py"])
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set().union(*(referenced_names(ast.parse(source))
                         for module, source in sources.items()
                         if module != "__init__.py"))
    return exported - used


def test_scanner_flags_only_unused_exports():
    sources = {
        "__init__.py": "from .a import kept, spare\nfrom .b import via\n",
        "a.py": "def kept():\n    return 1\ndef spare():\n    return 2\n",
        "b.py": "import a\ndef via():\n    return a.kept()\n",
    }
    assert exported_but_unused(sources) == {"spare", "via"}


#: exported names no package module uses; each is public API that tests,
#: perfbench or users call.  Growing this set orphans another public name:
#: use it inside the package or stop exporting it instead
UNUSED_EXPORTS = {
    "apply_phase", "build_resource", "click_weights", "fidelity",
    "mean_photon_number", "mutual_info_bound", "quadrature_pdf",
    "resize_mode", "sample_homodyne", "trace_distance", "vacuum_state",
    "write_samples_csv",
}


def test_unused_exports_pinned():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert exported_but_unused(sources) == UNUSED_EXPORTS


def module_constants(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name a module-level assignment binds."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        defined += [(node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name)]
    return defined


def unread_constants(sources: dict[str, str], module: str) -> list[str]:
    """Module-level names the module assigns that no other module refers
    to by a Name or attribute."""
    used = set().union(*(referenced_names(ast.parse(source))
                         for name, source in sources.items()
                         if name != module))
    return [f"{module} line {line}: {name}"
            for line, name in module_constants(sources[module])
            if name not in used]


def dead_constants(sources: dict[str, str], module: str) -> list[str]:
    """Module-level names the module assigns that no module reads: no
    Name loads them, no attribute names them and no import takes them
    (a re-export is public API, pinned above), assignments aside.
    Dunder names such as ``__version__`` are metadata, read from outside."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module} line {line}: {name}"
            for line, name in module_constants(sources[module])
            if name not in read and not name.startswith("__")]


def test_scanner_flags_only_unread_constants():
    sources = {
        "numerics.py": ("TOL = 1e-8\nTRACE_TOL = 1e-12\nCAP: int = 10\n"
                        "print(TRACE_TOL)\n"),
        "a.py": "from numerics import TOL, TRACE_TOL\nprint(TOL)\n",
        "b.py": "import numerics\nnumerics.CAP\n",
    }
    assert unread_constants(sources, "numerics.py") == [
        "numerics.py line 2: TRACE_TOL"]


def test_every_numerics_constant_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_constants(sources, "numerics.py") == []


def test_scanner_flags_only_dead_constants():
    sources = {
        "a.py": ("_TABLE = [1, 2]\n_LAYOUT: int = 3\n_SPARE = 4\n"
                 "_SPARE = 5\nLIMIT = 6\nPRESET = 7\n__version__ = '1'\n"
                 "print(_TABLE)\n"),
        "b.py": "import a\na._LAYOUT\n",
        "__init__.py": "from .a import PRESET\n",
    }
    assert dead_constants(sources, "a.py") == ["a.py line 3: _SPARE",
                                               "a.py line 4: _SPARE",
                                               "a.py line 5: LIMIT"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py")))
def test_every_module_constant_is_read(module):
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_constants(sources, module) == []
