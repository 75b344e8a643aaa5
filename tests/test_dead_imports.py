"""No hashmac module imports a name it never uses, unless the benchmark traces it there.

`perfbench/spans.py` wraps a function at each module that imports it, so a
module may keep a name it never calls as long as a `SITES` entry names that
(module, name) pair.  Any other unused import is dead code.  The package's
`__init__` is left out: its imports are the package's exports.  This test
only reads src/hashmac/ and perfbench/.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hashmac"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _traced_sites():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, attr) for module, attr, _ in spans.SITES}


def unused_imports(source: str) -> set[str]:
    """Names bound by an import statement that no other node of the module reads."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":  # from __future__ import annotations
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


def test_unused_imports_finds_a_dead_name():
    src = "import os\nfrom math import pi, tau\nimport numpy.linalg\nprint(pi, numpy)\n"
    assert unused_imports(src) == {"os", "tau"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_unused_import_is_a_traced_site(path):
    module = f"hashmac.{path.stem}"
    traced = _traced_sites()
    dead = sorted(n for n in unused_imports(path.read_text()) if (module, n) not in traced)
    assert not dead, f"{module} imports but never uses {dead}"
