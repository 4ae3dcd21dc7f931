"""Every public definition in ``src/`` has a caller other than the tests.

A definition is a top-level function or class of a module under
``src/repro/`` whose name does not start with ``_``, or such a method of a
top-level class (dunders start with ``_``, so none is scanned).  It counts
as reached when its name is used as a name (``ast.Name``) or an attribute
name (``ast.Attribute``) in

* a module of ``src/`` other than a package ``__init__.py``, outside the
  definition itself and outside every definition the scan flags: a
  re-export is not a caller, nor is a recursive call, nor a caller that
  only the tests reach;
* a module of ``benchmarks/``, ``examples/`` or ``scripts/``;
* a module of ``perfbench/`` other than its ``test_*.py``.

An import is not a use; only the uses of the imported name count.  Nothing
under ``tests/`` counts.  The scan repeats until it flags nothing new, so a
chain of definitions that only the tests start is flagged whole.  A
definition that nothing reaches fails the guard unless ``ALLOWLIST`` gives
a reason to keep it; what an allowlisted definition uses is flagged too.
Qualified names are relative to the ``repro`` package.

Matching is by name only, so what it misses is known: any same-named name
or attribute elsewhere hides a definition (every ``.copy()`` reaches
``DynamicGraph.copy``).  A call through ``getattr`` with a built name is
not seen at all, which would flag its target; the gateway's ``_cmd_*``
handlers, reached that way, are private and not scanned.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Public definitions that only the tests reach, each kept for a reason.
ALLOWLIST: Dict[str, str] = {
    "graphs.dynamic_graph.DynamicGraph.check_consistency": (
        "the structural oracle the tests check every graph mutation against "
        "(41 calls in 15 test files)"
    ),
    "baselines.exact.brute_force_maximum_independent_set": (
        "the exponential reference the tests check the exact solver against"
    ),
    "core.verification.is_independent_set": (
        "reached in src/ only from the brute-force reference above; the "
        "tests check solutions with it"
    ),
    "core.bounds.theorem2_size_lower_bound": (
        "Theorem 2's size bound, pinned by tests/test_bounds.py; the "
        "per-instance quality certificate planned in ROADMAP.md reports it"
    ),
    "core.bounds.theorem3_worst_case_ratio": (
        "Theorem 3's worst-case ratio, pinned by tests/test_bounds.py beside "
        "the worst-case families it describes"
    ),
    "core.bounds.lemma2_expected_tight2_bound": (
        "Lemma 2's bound on the expected |I_2(v)|, pinned by "
        "tests/test_bounds.py; ROADMAP.md plans to compare it with "
        "measured_tight2_sizes on the power-law workloads"
    ),
    "core.bounds.measured_tight2_sizes": (
        "the measured side of Lemma 2, pinned by tests/test_bounds.py; "
        "ROADMAP.md plans to report it beside the bound"
    ),
    "experiments.fetch.fetch_dataset": (
        "the README's SHA-256-verified download of a real SNAP dataset, "
        "which needs the network"
    ),
    "experiments.fetch.snap_temporal_stream": (
        "the README's entry point for a real SNAP temporal dataset, which "
        "needs a download"
    ),
    "resilience.durable.recording": (
        "the hook through which tests/crashsim.py records every durable write"
    ),
    "resilience.faults.active": (
        "the fault-injection hook that the resilience tests check install "
        "and uninstall through"
    ),
    "service.client.ServiceClient.health": (
        "the client side of the gateway's health command, a README example"
    ),
    "service.client.ServiceClient.next_event": (
        "the client side of the gateway's subscribe events"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """Yield ``(name, line)`` for every use of a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified suffix, node)`` for each public definition."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def unreached(package: Path, callers: Iterable[Path]) -> List[Tuple[str, Path, int]]:
    """``(qualified name, path, line)`` of each definition in ``package`` that
    neither any of ``callers`` nor a use in its sibling modules reaches,
    counting no use inside a definition this scan flags."""
    outside = {name for path in callers for name, _line in _names(_parse(path))}
    candidates = []
    # Per module and line, the public definitions whose lines hold it.
    enclosing: Dict[Path, Dict[int, List[str]]] = {}
    inside: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in sorted(package.rglob("*.py")):
        tree = _parse(path)
        parts = path.relative_to(package).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        spans = enclosing[path] = defaultdict(list)
        for suffix, node in _definitions(tree):
            qualified = f"{module}.{suffix}" if module else suffix
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            for line in range(first, node.end_lineno + 1):
                spans[line].append(qualified)
            if node.name not in outside:
                candidates.append((qualified, node.name, path, node.lineno))
        if path.name != "__init__.py":
            for name, line in _names(tree):
                inside[name].append((path, line))
    flagged: Set[str] = set()
    while True:
        found = [
            (qualified, path, line)
            for qualified, name, path, line in candidates
            if not any(
                qualified not in enclosing[where][at]
                and flagged.isdisjoint(enclosing[where][at])
                for where, at in inside[name]
            )
        ]
        if len(found) == len(flagged):
            return found
        flagged = {qualified for qualified, _path, _line in found}


def _callers() -> List[Path]:
    """The modules outside ``src/`` whose names count as callers."""
    paths = [
        path
        for base in ("benchmarks", "examples", "scripts")
        for path in (ROOT / base).rglob("*.py")
    ]
    paths += [
        path
        for path in (ROOT / "perfbench").rglob("*.py")
        if not path.name.startswith("test_")
    ]
    return sorted(paths)


@pytest.fixture(scope="module")
def flagged():
    return unreached(PACKAGE, _callers())


def test_every_public_definition_has_a_caller_outside_the_tests(flagged):
    orphans = [
        f"{path.relative_to(ROOT).as_posix()}:{line} {name}"
        for name, path, line in flagged
        if name not in ALLOWLIST
    ]
    assert not orphans, (
        "public definitions that only the tests reach (delete them, make them "
        "private, or allowlist them with a reason):\n" + "\n".join(orphans)
    )


def test_every_allowlist_entry_names_a_definition_the_scan_flags(flagged):
    stale = sorted(set(ALLOWLIST) - {name for name, _path, _line in flagged})
    assert not stale, "allowlist entries the scan does not flag:\n" + "\n".join(stale)
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_scanner_flags_test_only_definitions_and_only_those(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.shapes import Square, area, only_tested\n", encoding="utf-8"
    )
    (package / "shapes.py").write_text(
        "def area(side):\n"
        "    return side * side\n"
        "\n"
        "def only_tested(n):\n"
        "    return only_tested(n - 1) if n else base_case()\n"
        "\n"
        "def base_case():\n"
        "    return 0\n"
        "\n"
        "def _private():\n"
        "    return 0\n"
        "\n"
        "class Square:\n"
        "    def __init__(self, side):\n"
        "        self.side = side\n"
        "\n"
        "    def grow(self):\n"
        "        return Square(self.side + 1)\n"
        "\n"
        "    def test_only_method(self):\n"
        "        return self.side\n",
        encoding="utf-8",
    )
    (package / "report.py").write_text(
        "from pkg.shapes import area, only_tested\n"
        "\n"
        "def describe(square):\n"
        "    return area(square.side)\n",
        encoding="utf-8",
    )
    script = tmp_path / "script.py"
    script.write_text(
        "from pkg import Square\nfrom pkg.report import describe\n"
        "print(describe(Square(2).grow()))\n",
        encoding="utf-8",
    )
    test_module = tmp_path / "test_shapes.py"
    test_module.write_text(
        "from pkg import Square, only_tested\n"
        "def test_it():\n"
        "    assert only_tested(3) == 0 and Square(1).test_only_method() == 1\n",
        encoding="utf-8",
    )
    shapes = package / "shapes.py"
    # An import is not a use, and base_case has only a test-only caller.
    assert unreached(package, [script]) == [
        ("shapes.only_tested", shapes, 4),
        ("shapes.base_case", shapes, 7),
        ("shapes.Square.test_only_method", shapes, 20),
    ]
    assert [name for name, _path, _line in unreached(package, [script, test_module])] == []
