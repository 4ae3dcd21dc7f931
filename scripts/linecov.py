#!/usr/bin/env python3
"""Statement coverage of ``src/repro`` by the tier-1 tests, stdlib only.

Runs the tier-1 suite in this process under a ``sys.settrace`` /
``threading.settrace`` tracer and prints, per module and overall, how many
function-body statements ran, then every ``raise`` statement and ``warn``
call that never ran.  The tracer follows only code objects whose file lies
under ``src/repro``; every other frame costs it one call.

A statement is one simple statement inside a function or method body
(docstrings excluded), or the header of an ``if``, ``while``, ``for`` or
``with`` there; module- and class-level code is not counted.  A statement
ran when a line event fired on any of its lines (on its header for a
compound statement).

Subprocesses that the tests start, such as the smokes and the service
gateway, are not traced, so their code counts as missed unless an
in-process test runs it too.  The whole run takes about three times as
long as plain tier-1, which is why CI measures its floor with coverage.py
instead.

The standard library's ``python -m trace --count --missing --summary
--ignore-dir=<stdlib> --module pytest`` does not replace this script.  It
caches whether to ignore a file by the file's base name, so once it has
ignored ``_pytest/runner.py`` and ``http/client.py`` it also ignores
``repro/experiments/runner.py`` and ``repro/service/client.py``: over
tier-1 on CPython 3.11 its report left out both modules.  It is also
slower: its hook splits the file name of every frame entered, where this
one does a dictionary lookup, and its tier-1 run took 508 s against 233 s
for this script, back to back on the same 2-core VM.

Usage::

    python scripts/linecov.py                             # the whole tier-1 suite
    python scripts/linecov.py -- tests/test_coalesce.py   # pytest arguments
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "repro"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_HEADERS = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith)
_BLOCKS = ("body", "orelse", "finalbody")

#: A statement: (first line, last line, is a raise or a warning).
Statement = Tuple[int, int, bool]


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_refusal(node: ast.stmt) -> bool:
    """A ``raise`` statement, or a call of ``warn`` / ``warnings.warn``."""
    if isinstance(node, ast.Raise):
        return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name == "warn"
    return False


def _block_statements(body: List[ast.stmt], out: List[Statement]) -> None:
    for node in body:
        if _is_docstring(node) and node is body[0]:
            continue
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                _block_statements(handler.body, out)
        elif isinstance(node, _HEADERS):
            out.append((node.lineno, max(node.lineno, node.body[0].lineno - 1), False))
        elif isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            # The definition itself runs where it is nested; its body is
            # collected by ``statements``.
            out.append((node.lineno, node.lineno, False))
            continue
        else:
            out.append((node.lineno, node.end_lineno, _is_refusal(node)))
            continue
        for block in _BLOCKS:
            _block_statements(getattr(node, block, []), out)


def statements(path: Path) -> List[Statement]:
    """Every function-body statement of the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out: List[Statement] = []
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            _block_statements(node.body, out)
    return sorted(set(out))


def trace_tests(pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest in-process under the tracer; return its status and the hits."""
    prefix = str(PACKAGE) + os.sep
    hits: Dict[str, Set[int]] = defaultdict(set)
    followed: Dict[object, bool] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        code = frame.f_code
        follow = followed.get(code)
        if follow is None:
            follow = followed[code] = code.co_filename.startswith(prefix)
        return local if follow else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments passed to pytest (after --)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(SOURCE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")])
    )
    status, hits = trace_tests(args.pytest_args)

    total_run = total = 0
    missed: List[str] = []
    print(f"\n{'module':<40} {'run':>6} {'total':>6} {'pct':>7}")
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = hits.get(str(path), set())
        found = statements(path)
        if not found:
            continue
        executed = 0
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, last, refusal in found:
            if any(line in ran for line in range(first, last + 1)):
                executed += 1
            elif refusal:
                where = f"{path.relative_to(ROOT).as_posix()}:{first}"
                missed.append(f"{where}: {lines[first - 1].strip()}")
        total_run += executed
        total += len(found)
        name = path.relative_to(PACKAGE).as_posix()
        print(f"{name:<40} {executed:>6} {len(found):>6} {100.0 * executed / len(found):>6.1f}%")
    print(f"{'total':<40} {total_run:>6} {total:>6} {100.0 * total_run / max(total, 1):>6.1f}%")
    print("note: code run only in subprocesses (the smokes, the service gateway) is not traced")
    print(f"\nraise and warn statements that never ran ({len(missed)}):")
    for entry in missed:
        print(f"  {entry}")
    if status:
        print(f"\npytest exited with status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
