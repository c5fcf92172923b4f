"""No module of ncquad imports a name that its code never uses.

Each ``ncquad/*.py`` except ``__init__.py``, whose imports are the
package's exports, is parsed with ``ast``.  Every name an ``import`` or
``from ... import`` binds must be read somewhere in the module, as a
name or as the base of an attribute; a name read only inside a string
annotation does not count.  ``from __future__`` imports bind nothing,
and neither does an explicit re-export, ``from m import X as X``: it
names a module's own export of a name that it does not use itself.
A deletion that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import ncquad

MODULES = sorted(p for p in Path(ncquad.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name != "*" and a.asname != a.name)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from itertools import chain, repeat as rep\nx = chain(os.path.sep)\n")
    assert unused_imports(source) == ["math", "rep"]


def test_an_explicit_re_export_is_not_unused():
    source = ("from itertools import chain as chain, repeat\n"
              "from os import path as sep\n")
    assert unused_imports(source) == ["repeat", "sep"]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"fields.py", "linalg.py", "quintuples.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
