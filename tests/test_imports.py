"""Every name a module of src/nlcx imports is used in that module.

A stdlib ast scan: a name counts as used where it is read anywhere in the
module, also inside a quoted annotation.  The package's __init__ (its
names are re-exports) and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nlcx"


def _annotation_names(tree):
    """Names read inside string annotations such as -> "Field"."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    expr = ast.parse(sub.value, mode="eval")
                    yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree))
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport os.path\n"
              "from math import comb, floor as fl\nfrom typing import Optional\n"
              "def f(x: 'Optional[int]') -> int:\n    return comb(sys.maxsize, 2)\n")
    assert unused_imports(source) == ["fl", "os"]


def test_no_unused_imports_in_the_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert found and not any(found.values()), {k: v for k, v in found.items() if v}
