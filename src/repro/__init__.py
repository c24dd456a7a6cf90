"""DIABLO reproduction: translation of array-based loops to distributed data-parallel programs.

This package reproduces the system described in Fegaras & Noor,
"Translation of Array-Based Loops to Distributed Data-Parallel Programs"
(VLDB 2020): an imperative, array-based loop language; the Definition 3.1
parallelization restrictions; the Figure 2 translation to monoid
comprehensions; the Section 3.6 / Section 4 comprehension optimizations; and a
local DISC (Spark-like) runtime that executes the generated dataflow.

Quickstart (classic facade)::

    from repro import Diablo, DistributedContext

    with Diablo(DistributedContext(num_partitions=4)) as diablo:
        program = diablo.compile('''
            var sum: double = 0.0;
            for v in V do
                if (v < 100) sum += v;
        ''')
        result = program.run(V=[1.0, 250.0, 40.0])
        assert result["sum"] == 41.0

Quickstart (jit API)::

    import repro.api as diablo

    @diablo.jit
    def conditional_sum(V):
        total: float = 0.0
        for v in V:
            if v < 100:
                total += v
        return total

    assert conditional_sum([1.0, 250.0, 40.0]) == 41.0

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the system map.
"""

from __future__ import annotations

from repro._lazy import lazy_surface

__version__ = "1.1.0"

#: Public name -> the module defining it, imported when the name is first read.
_EXPORTS = {
    "Diablo": "repro.facade",
    "CompiledProgram": "repro.facade",
    "DiabloCompiler": "repro.translate.translator",
    "DiabloConfig": "repro.api",
    "DistributedContext": "repro.runtime.context",
    "Dataset": "repro.runtime.dataset",
    "Interpreter": "repro.loop_lang.interpreter",
    "interpret_program": "repro.loop_lang.interpreter",
    "parse_program": "repro.loop_lang.parser",
    "from_python_function": "repro.loop_lang.python_frontend",
    "from_python_source": "repro.loop_lang.python_frontend",
    "jit": "repro.api",
    "options": "repro.api",
    "configure": "repro.api",
    "current_config": "repro.api",
    "Vector": "repro.api",
    "Matrix": "repro.api",
    "Map": "repro.api",
    "Bag": "repro.api",
    "CacheInfo": "repro.translate.cache",
    "FunctionRegistry": "repro.functions",
    "MonoidRegistry": "repro.comprehension.monoids",
    "Monoid": "repro.comprehension.monoids",
    "ArgMin": "repro.comprehension.monoids",
    "Avg": "repro.comprehension.monoids",
    "argmin_monoid": "repro.comprehension.monoids",
    "avg_monoid": "repro.comprehension.monoids",
    "ProgramResult": "repro.algebra.runner",
    "TranslationResult": "repro.translate.translator",
    "ast": "repro.loop_lang",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
