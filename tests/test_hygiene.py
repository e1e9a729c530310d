"""Source hygiene: every name a library module imports is used there, and
every module-level private function is referenced by some module."""

import ast
from pathlib import Path

import pytest

import poincarelab

SRC = Path(poincarelab.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that nothing else in the module
    reads; ``from __future__`` imports are exempt."""
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
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_names():
    src = ("import os\nimport numpy as np\nfrom x import a, b\n"
           "from __future__ import annotations\nprint(np.pi, a)\n")
    assert unused_imports(src) == [(1, "os"), (3, "b")]


def unused_private_functions(sources):
    """(module, name) of each module-level ``_name`` function that no
    module in ``sources`` (module name -> source text) reads by name or as
    an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((m, name) for m, name in defined if name not in used)


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in MODULES}
    assert unused_private_functions(sources) == []


def test_detector_flags_unreferenced_private_functions():
    sources = {"a.py": "def _used():\n    pass\n\n\ndef _stale():\n"
                       "    pass\n\n\ndef __dunder__():\n    pass\n",
               "b.py": "from . import a\na._used()\n"}
    assert unused_private_functions(sources) == [("a.py", "_stale")]
