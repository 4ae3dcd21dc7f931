"""Package exports resolved on first use (PEP 562).

Every ``repro`` package ``__init__`` names the module that defines each of
its public names instead of importing them, and
:func:`_lazy_exports` gives it the module-level ``__getattr__`` that
imports a name's module on its first lookup.  Importing one module of a
package therefore loads only what that module needs: a process that runs
the service gateway never loads the figure harness, the dataset fetcher or
the graph generators just because their package was on the import path.

``from repro.x import Y``, ``repro.x.Y``, ``__all__``, ``dir()`` and
``from repro.x import *`` all keep working; a resolved name is cached in
the package's namespace, so later lookups cost a dictionary probe.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def _lazy_exports(
    package: str, origins: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``origins`` maps each defining module (its absolute name) to the names
    the package exports from it; ``__all__`` lists them in that order.
    Call it from the package's ``__init__`` while the package is being
    imported.
    """
    module_of = {name: origin for origin, names in origins.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            origin = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(origin), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | module_of.keys())

    return list(module_of), __getattr__, __dir__
