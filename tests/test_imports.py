"""Every module of the package, every script and every test module uses
each name it imports.

No linter ships with the project, so this is its unused-import check, on
the standard library's ast alone.  A name counts as used when it is read
anywhere in the module or listed in the module's __all__.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/hives/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never uses, in sorted order."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from itertools import chain, product\n"
              "from typing import Sequence\n"
              "__all__ = ['product']\n"
              "def f(rows: Sequence[int]) -> int:\n"
              "    return os.path.sep\n")
    assert unused_imports(source) == ["chain", "regex"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
