"""Every name the package and its subpackages export resolves.

A deletion that leaves its name in an ``__all__`` would otherwise fail only
at a user's ``from repro.x import *``.  ``repro.resilience`` resolves its
supervisor names lazily through a module ``__getattr__``, so the check
reads every name with ``getattr`` rather than looking in the module dict.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


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
