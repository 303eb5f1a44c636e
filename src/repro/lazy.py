"""Lazy package namespaces (PEP 562).

A package built with :func:`attach` names each public object once, with
the submodule that defines it. The first access to a name imports that
submodule and caches the object in the package, so importing one
submodule runs none of its siblings: a service client loads the wire
protocol without the simulator behind it.
"""

from __future__ import annotations

import importlib
import sys


def attach(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names live in the modules ``exports`` maps to them. A module is
    named relative to the package (``".sweep"``, ``"..errors"``)."""
    origin = {name: module for module, names in exports.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__, list(origin)
