"""Lazy package exports (PEP 562), shared by every package root that has them.

A package root lists each public name with the submodule that defines
it and resolves the name on first access, so importing the package loads
none of those submodules:

    _EXPORTS = {"CampaignRunner": ".runner", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A name that maps to a submodule of the same name (``"calibration":
".calibration"``) resolves to that submodule.
"""

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict):
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(target, package)
        value = module if module.__name__ == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value  # later lookups skip this hook
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
