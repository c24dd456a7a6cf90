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

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.algebra.runner import ProgramResult, ProgramRunner
from repro.api import (
    Bag,
    DiabloConfig,
    Map,
    Matrix,
    Vector,
    configure,
    current_config,
    jit,
    options,
)
from repro.comprehension.monoids import (
    ArgMin,
    Avg,
    Monoid,
    MonoidRegistry,
    argmin_monoid,
    avg_monoid,
)
from repro.functions import FunctionRegistry
from repro.loop_lang import ast
from repro.loop_lang.interpreter import Interpreter, interpret_program
from repro.loop_lang.parser import parse_program
from repro.loop_lang.python_frontend import from_python_function, from_python_source
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.translate.cache import CacheInfo
from repro.translate.translator import DiabloCompiler, TranslationResult

__version__ = "1.1.0"

__all__ = [
    "Diablo",
    "CompiledProgram",
    "DiabloCompiler",
    "DiabloConfig",
    "DistributedContext",
    "Dataset",
    "Interpreter",
    "interpret_program",
    "parse_program",
    "from_python_function",
    "from_python_source",
    "jit",
    "options",
    "configure",
    "current_config",
    "Vector",
    "Matrix",
    "Map",
    "Bag",
    "CacheInfo",
    "FunctionRegistry",
    "MonoidRegistry",
    "Monoid",
    "ArgMin",
    "Avg",
    "argmin_monoid",
    "avg_monoid",
    "ProgramResult",
    "TranslationResult",
    "ast",
]


@dataclass
class CompiledProgram:
    """A loop program translated to DISC target code, ready to run.

    Produced by :meth:`Diablo.compile`; call :meth:`run` with the program's
    input variables (arrays as dicts / lists / Datasets, scalars as plain
    values).
    """

    translation: TranslationResult
    runner: ProgramRunner

    @property
    def target(self):
        """The generated target code (bulk assignments over comprehensions)."""
        return self.translation.target

    def run(self, **inputs: Any) -> ProgramResult:
        """Execute the translated program over the given inputs."""
        return self.runner.run(self.translation.target, inputs)

    def explain(self) -> str:
        """A textual summary of the generated target code."""
        return str(self.translation.target)


class Diablo:
    """The classic facade, now a thin compatibility layer over :mod:`repro.api`.

    Configuration is consolidated in :class:`DiabloConfig`: when ``context``
    is omitted one is built from the active configuration (honouring
    ``with repro.options(...)`` scopes), and the compiler options default to
    the configuration's values.  Explicit arguments win over the config.
    Translations go through the compiler's keyed compilation cache, so
    re-compiling the same source is free (see :meth:`cache_info`).

    Args:
        context: the distributed context to execute on (built from ``config``
            when omitted).
        functions: scalar function registry shared by compilation and
            execution (register program-specific helpers here).
        monoids: commutative monoid registry (register custom ⊕ operators
            here, e.g. KMeans' arg-min / average monoids).
        check_restrictions: reject programs violating Definition 3.1
            (None = take from ``config``).
        optimize: apply the Section 3.6 / Section 4 rewrites
            (None = take from ``config``).
        config: the unified configuration (default: the active
            :func:`repro.api.current_config`).
        outputs: the variables callers read from the results of the
            programs this facade compiles (None: every variable).  When
            they are named, an array a loop body assigns and reads once,
            and that is not among them, may be fused into its reader: it is
            then never materialised and is not in the result.
    """

    def __init__(
        self,
        context: DistributedContext | None = None,
        functions: FunctionRegistry | None = None,
        monoids: MonoidRegistry | None = None,
        check_restrictions: bool | None = None,
        optimize: bool | None = None,
        config: DiabloConfig | None = None,
        outputs: Iterable[str] | None = None,
    ):
        base = config or current_config()
        overrides: dict[str, bool] = {}
        if check_restrictions is not None:
            overrides["check_restrictions"] = check_restrictions
        if optimize is not None:
            overrides["optimize"] = optimize
        self.config = base.replace(**overrides) if overrides else base
        self.context = context if context is not None else self.config.make_context()
        self.functions = functions or FunctionRegistry()
        self.monoids = monoids or MonoidRegistry()
        self.compiler = DiabloCompiler(monoids=self.monoids, **self.config.compiler_options())
        self.runner = ProgramRunner(self.context, self.functions, self.monoids)
        self.outputs = None if outputs is None else tuple(outputs)

    def compile(self, source: str | ast.Program | Callable) -> CompiledProgram:
        """Translate a loop program (text, AST, or Python function) to DISC code."""
        translation = self.compiler.compile(source, outputs=self.outputs)
        return CompiledProgram(translation, self.runner)

    def run(self, source: str | ast.Program | Callable, **inputs: Any) -> ProgramResult:
        """Compile and immediately run a loop program."""
        return self.compile(source).run(**inputs)

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of this facade's compilation cache."""
        return self.compiler.cache_info()

    def cache_clear(self) -> None:
        """Drop every cached translation of this facade's compiler."""
        self.compiler.cache_clear()

    def shutdown(self) -> None:
        """Release the runtime's resources (see :meth:`DistributedContext.shutdown`)."""
        self.context.shutdown()

    def __enter__(self) -> "Diablo":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    def register_function(self, name: str, function: Callable[..., Any]) -> None:
        """Register a scalar function usable from loop programs."""
        self.functions.register(name, function)

    def register_monoid(self, monoid: Monoid) -> None:
        """Register a commutative monoid usable in incremental updates."""
        self.monoids.register(monoid)

    def interpret(self, source: str | ast.Program, env: dict[str, Any] | None = None) -> dict[str, Any]:
        """Run the *sequential* reference interpreter (the correctness oracle)."""
        return interpret_program(source, env, functions=self.functions, monoids=self.monoids)
