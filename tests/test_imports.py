"""Every name a module of src/nlcx imports is used in that module,
starting the CLI imports no module that only some commands need, and the
field and solver modules keep their layers: finite_field imports no
module of the package, packed only finite_field, span only those two,
and the packed-vector format is defined in packed alone.

A stdlib ast scan: a name counts as used where it is read anywhere in the
module, also inside a quoted annotation.  The package's __init__ (its
names are re-exports) and `from __future__` imports are exempt.
"""

import ast
import os
import subprocess
import sys
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


def internal_imports(source: str) -> set[str]:
    """The modules of the package a module imports, relative or as nlcx.<name>."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["nlcx" if node.level else "", node.module]))
            dotted += [f"{base}.{a.name}" for a in node.names]
    return {parts[1] for parts in (d.split(".") for d in dotted)
            if parts[0] == "nlcx" and len(parts) > 1}


def test_checker_finds_internal_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport nlcx.cli\n"
              "from . import complexity as cx\nfrom .packed import PackedVectors\n"
              "from nlcx.span import _SpanSystem\n")
    assert internal_imports(source) == {"cli", "complexity", "packed", "span"}


# the package modules each of these may import
LAYERS = {"finite_field": set(), "packed": {"finite_field"},
          "span": {"finite_field", "packed"}}


def test_field_and_solver_modules_import_only_the_layers_below():
    found = {name: internal_imports((SRC / f"{name}.py").read_text()) - allowed
             for name, allowed in LAYERS.items()}
    assert not any(found.values()), found


PACKED_FORMAT = {"_slot_rule", "PackedVectors", "BasisValues", "basis_values"}


def _top_level_names(source: str) -> set[str]:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_the_packed_vector_format_is_defined_in_packed_only():
    where = {path.stem: _top_level_names(path.read_text()) & PACKED_FORMAT
             for path in sorted(SRC.glob("*.py"))}
    assert {name: defs for name, defs in where.items() if defs} == {"packed": PACKED_FORMAT}


# imported on first use only: dataclasses and inspect by nothing in the
# package, fractions (with decimal) by the bounds, json by JSON output,
# concurrent.futures and multiprocessing by more than one worker
FIRST_USE_ONLY = {"dataclasses", "inspect", "fractions", "decimal", "json",
                  "concurrent.futures", "multiprocessing"}


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                          "print('\\n'.join(sys.modules))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_start_up_imports_nothing_it_may_not_need():
    # against a bare interpreter's modules: site may preload some of these
    bare = _modules_after("")
    started = _modules_after("import nlcx, nlcx.cli\n"
                             "from nlcx.finite_field import field_of_order\n"
                             "field_of_order(25)")
    assert "nlcx.cli" in started
    assert sorted((started - bare) & FIRST_USE_ONLY) == []
