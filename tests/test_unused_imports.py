"""No module imports a name it never uses.

Parses every module under ``src/`` and ``tests/`` and fails on an imported
name that the module never references and that its ``__all__`` does not
list.  Package ``__init__.py`` files are skipped: importing in order to
re-export is their job.  A name counts as referenced when it appears as a
name anywhere in the module's code; inside a string, a quoted annotation
included, it does not (every module postpones annotations, so none needs
quoting).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests")


def _imported(tree: ast.Module):
    """Yield ``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module) -> set:
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path):
    """Yield ``(line, name)`` for each import of ``path`` that nothing uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    for name, line in _imported(tree):
        if name not in used:
            yield line, name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for base in SCANNED:
        for path in sorted((ROOT / base).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            module = path.relative_to(ROOT).as_posix()
            unused += [f"{module}:{line} {name}" for line, name in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_scanner_sees_an_unused_import_and_only_that(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import collections.abc as cabc\n"
        "from typing import Dict, List, Optional as Opt\n"
        "from itertools import chain, count\n"
        "from functools import reduce\n"
        "__all__ = ['reduce']\n"
        "def f(x: Dict, y: Opt[List]) -> cabc.Sized:\n"
        "    return os.path.join(x, 'json chain')\n",
        encoding="utf-8",
    )
    assert list(_unused_imports(planted)) == [(2, "json"), (6, "chain"), (6, "count")]
