"""The user-facing DIABLO API: ``@diablo.jit``, typed signatures, unified config.

Import the package under the ``diablo`` alias and decorate plain imperative
functions::

    import repro.api as diablo
    from repro.api import Matrix, Vector

    @diablo.jit
    def pagerank(E: Matrix, N: int, num_steps: int):
        P: Vector = Vector()
        ...
        return P

    ranks = pagerank(adjacency, 100, 10)          # compiled once, then cached
    print(diablo.cache_info())                    # hits grow on repeated calls

    with diablo.options(executor_mode="cluster", num_partitions=16):
        ranks = pagerank(adjacency, 100, 10)      # same translation, new runtime

    with diablo.options(spill_threshold_bytes=64 << 20):
        ranks = pagerank(adjacency, 100, 10)      # out-of-core shuffles past 64 MiB

The pieces:

* :func:`jit` / :class:`JitFunction` -- the decorator (``repro.api.jit``);
* :func:`check` -- the whole-pipeline static checker (``diablo.check(fn)``
  returns a :class:`~repro.analysis.diagnostics.DiagnosticReport` without
  executing anything; ``strict=True`` in the config or decorator promotes
  its warnings to compile errors);
* :class:`DiabloConfig`, :func:`configure`, :func:`options`,
  :func:`current_config` -- unified configuration with scoped overrides;
* :func:`cache_info` / :func:`cache_clear` -- the shared compilation cache;
* ``Vector`` / ``Matrix`` / ``Map`` / ``Bag`` / ``Dataset`` -- parameter
  annotations that become declared input types.

The classic :class:`repro.Diablo` facade remains available and is now a thin
compatibility layer over these same pieces.
"""

from __future__ import annotations

from repro.api.check import check
from repro.api.config import (
    DiabloConfig,
    configure,
    current_config,
    options,
    reset_config,
)
from repro.api.jit import (
    GLOBAL_COMPILATION_CACHE,
    JitFunction,
    cache_clear,
    cache_info,
    jit,
)
from repro.api.types import (
    ANNOTATION_NAMESPACE,
    ArrayAnnotation,
    Bag,
    BagAnnotation,
    Map,
    Matrix,
    Vector,
    annotation_info,
)
from repro.runtime.dataset import Dataset
from repro.translate.cache import CacheInfo, CompilationCache

__all__ = [
    "jit",
    "JitFunction",
    "check",
    "DiabloConfig",
    "configure",
    "options",
    "current_config",
    "reset_config",
    "cache_info",
    "cache_clear",
    "CacheInfo",
    "CompilationCache",
    "GLOBAL_COMPILATION_CACHE",
    "Vector",
    "Matrix",
    "Map",
    "Bag",
    "Dataset",
    "ArrayAnnotation",
    "BagAnnotation",
    "ANNOTATION_NAMESPACE",
    "annotation_info",
]
