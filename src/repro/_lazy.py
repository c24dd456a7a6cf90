"""Package surfaces that import what they export on first use (PEP 562).

A package's ``__init__`` only names its public attributes and the modules
defining them, so importing one submodule -- a cluster worker imports the
runtime alone -- does not import the rest of the package with it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_surface(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, whose public names
    ``exports`` maps to the modules defining them.

    A name is imported when it is first read and then kept in the package's
    namespace, so later reads are plain attribute lookups.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
