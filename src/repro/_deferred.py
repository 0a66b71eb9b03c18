"""Deferred package exports: names a package lists but loads on first use.

A package ``__init__`` imports eagerly only the modules the scheduling
and ``run_batch`` path runs, and hands the rest of its public names to
:func:`deferred_exports`::

    __getattr__ = deferred_exports(globals(), {
        "repro.obs.history": ("HistoryStore", "metric_trends"),
    })

The returned function is the package's module-level ``__getattr__``
(PEP 562).  Python calls it only for a name the package's globals lack;
it imports the defining module, stores the value in those globals and
returns it, so every later lookup is an ordinary global read.
``from package import name`` and ``from package import *`` go through
it too.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable


def deferred_exports(
    namespace: dict, sources: Dict[str, Iterable[str]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` for a package whose globals are ``namespace``.

    ``sources`` maps each defining module's full name to the names the
    package exports from it.
    """
    owners = {name: module for module, names in sources.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
