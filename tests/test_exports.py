"""Every name the package and its subpackages export resolves, lazily.

A deletion that leaves its name in an ``__all__`` would otherwise fail only
at a user's ``from repro.x import *``.  Every package resolves its exports
on first use through a module ``__getattr__`` (``repro._exports``), so the
checks read every name with ``getattr`` rather than looking in the module
dict, and compare it with the object its defining module holds, as the
package's ``__init__`` declares it.  The gateway's import closure is
checked in a fresh interpreter: serving a tenant must not load the
experiment harness, the generators or the client.
"""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)

#: Modules ``python -m repro.service`` has no use for (a package stands
#: for its submodules too).
GATEWAY_NEVER_LOADS = (
    "repro.experiments.figures",
    "repro.experiments.fetch",
    "repro.experiments.tables",
    "repro.experiments.datasets",
    "repro.experiments.reporting",
    "repro.workloads.temporal",
    "repro.updates.streams",
    "repro.generators",
    "repro.graphs.properties",
    "repro.core.bounds",
    "repro.service.client",
    "urllib.request",
    "http.client",
)


def _origins(module) -> Dict[str, str]:
    """Exported name -> defining module, as the package ``__init__`` declares it."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports":
            declared = ast.literal_eval(node.args[1])
            return {name: origin for origin, names in declared.items() for name in names}
    raise AssertionError(f"{module.__name__} declares no lazy exports")


def test_every_subpackage_is_checked():
    assert len(PACKAGES) == 10


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    origins = _origins(module)
    assert set(module.__all__) - {"__version__"} == set(origins)
    strays = [
        name
        for name, origin in origins.items()
        if getattr(module, name) is not getattr(importlib.import_module(origin), name)
    ]
    assert strays == []


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(
        AttributeError, match=f"^module '{package}' has no attribute 'no_such_name'$"
    ):
        getattr(module, "no_such_name")


def test_star_import_binds_every_export():
    namespace: Dict[str, object] = {}
    exec("from repro.core import *", namespace)
    assert set(importlib.import_module("repro.core").__all__) <= set(namespace)


def test_the_gateway_loads_none_of_what_it_does_not_serve_with():
    script = "import sys, repro.service.__main__\nprint('\\n'.join(sys.modules))\n"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "repro.service.gateway" in loaded
    assert sorted(
        name
        for name in loaded
        if any(name == unwanted or name.startswith(unwanted + ".")
               for unwanted in GATEWAY_NEVER_LOADS)
    ) == []
