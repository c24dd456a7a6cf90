"""The DIABLO compiler driver.

``DiabloCompiler`` chains every stage of the paper's pipeline:

1. parse the loop-language source (or accept an already-built AST, or a Python
   function via the :mod:`repro.loop_lang.python_frontend`);
2. canonicalize ``d := d ⊕ e`` into incremental updates;
3. check the Definition 3.1 restrictions (Section 3.2);
4. apply the Figure 2 translation rules, producing target code whose
   right-hand sides are monoid comprehensions;
5. normalize the comprehensions (Rule 2) and apply the Section 3.6 / Section 4
   optimizations.

The result is a :class:`repro.translate.target.TargetProgram`, which the DISC
algebra compiler (:mod:`repro.algebra`) turns into executable dataflow plans.
"""

from __future__ import annotations

import inspect
import textwrap
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.analysis.restrictions import RestrictionChecker
from repro.comprehension import ir
from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.comprehension.normalize import normalize
from repro.comprehension.optimize import Optimizer, OptimizerStats
from repro.loop_lang import ast
from repro.loop_lang.parser import parse_program
from repro.loop_lang.python_frontend import from_python_function
from repro.translate.cache import CacheInfo, CompilationCache
from repro.translate.canonicalize import canonicalize_increments
from repro.translate.facts import mentioned_names
from repro.translate.rules import TranslationRules
from repro.translate.target import TargetAssign, TargetProgram, TargetStatement, TargetWhile, VariableInfo


@dataclass
class TranslationResult:
    """The output of one compiler run.

    Attributes:
        target: the translated target program.
        source: the (canonicalized) loop-language program that was translated.
        optimizer_stats: how many Section 3.6 / Section 4 rewrites fired.
        translation_seconds: wall-clock time spent in the compiler (the number
            reported in the Table 1 reproduction).
    """

    target: TargetProgram
    source: ast.Program
    optimizer_stats: OptimizerStats
    translation_seconds: float = 0.0


class DiabloCompiler:
    """Translates loop-based programs to DISC target code.

    Args:
        monoids: commutative monoid registry (``+``, ``*``, ``&&``, ... plus
            any user-registered operators such as KMeans' ``^`` / ``^^``).
        check_restrictions: when True (the default) programs violating
            Definition 3.1 are rejected with :class:`RestrictionError`.
        optimize: when False the Section 3.6 / Section 4 rewrites are skipped
            (used by the ablation benchmarks).
        strict: when True the full static-diagnostics suite (type/shape
            inference and plan lint; see :mod:`repro.analysis`) runs after
            translation with warnings promoted to errors, and any finding
            raises :class:`~repro.errors.StaticCheckError`.
        cache: the compilation cache consulted by :meth:`compile` (a private
            one is created when omitted; the jit API passes a shared cache so
            every decorated function draws from one pool).
    """

    def __init__(
        self,
        monoids: MonoidRegistry | None = None,
        check_restrictions: bool = True,
        optimize: bool = True,
        enable_range_elimination: bool = True,
        enable_group_by_elimination: bool = True,
        strict: bool = False,
        cache: CompilationCache | None = None,
    ):
        self.monoids = monoids or DEFAULT_MONOIDS
        self.check_restrictions = check_restrictions
        self.optimize = optimize
        self.strict = strict
        self.enable_range_elimination = enable_range_elimination
        self.enable_group_by_elimination = enable_group_by_elimination
        self.cache = cache if cache is not None else CompilationCache()

    # -- public API -----------------------------------------------------------

    def compile(
        self,
        source: str | ast.Program | Callable,
        input_types: Mapping[str, VariableInfo] | None = None,
    ) -> TranslationResult:
        """Compile loop-language source text, a program AST or a Python function.

        Args:
            source: the program to translate.
            input_types: declared :class:`VariableInfo` for free (input)
                variables -- e.g. from jit parameter annotations -- which
                override kind inference for those names.
        """
        key = self._cache_key(source, input_types)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = self._translate(source, input_types)
        if key is not None:
            self.cache.put(key, result)
        return result

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the compilation cache."""
        return self.cache.info()

    def cache_clear(self) -> None:
        """Drop every cached translation."""
        self.cache.clear()

    def _translate(
        self,
        source: str | ast.Program | Callable,
        input_types: Mapping[str, VariableInfo] | None = None,
    ) -> TranslationResult:
        started = time.perf_counter()
        program = self._to_program(source)
        program = canonicalize_increments(program, self.monoids)
        if self.check_restrictions:
            RestrictionChecker(self.monoids).require(program)
        variables = infer_variables(program, input_types)
        fresh = ir.NameGenerator()
        rules = TranslationRules(variables, fresh)
        statements: list[TargetStatement] = []
        for stmt in program.statements:
            statements.extend(rules.statement(stmt, []))
        optimizer = Optimizer(
            array_variables={n for n, v in variables.items() if v.is_collection},
            enable_range_elimination=self.enable_range_elimination,
            enable_group_by_elimination=self.enable_group_by_elimination,
        )
        optimized = tuple(self._optimize_statement(s, optimizer, fresh) for s in statements)
        if self.optimize:
            optimized = merge_into_fresh(optimized, optimizer)
        elapsed = time.perf_counter() - started
        target = TargetProgram(optimized, variables)
        if self.strict:
            self._enforce_strict(target)
        return TranslationResult(
            target=target,
            source=program,
            optimizer_stats=optimizer.stats,
            translation_seconds=elapsed,
        )

    # -- helpers ---------------------------------------------------------------

    def _enforce_strict(self, target: TargetProgram) -> None:
        """Strict mode: static diagnostics (warnings promoted) block compilation."""
        # Imported lazily: repro.analysis imports translate modules.
        from repro.analysis.plan_lint import lint_target
        from repro.analysis.typecheck import check_types
        from repro.errors import StaticCheckError

        findings = [d.promote() for d in check_types(target, self.monoids)]
        findings += [d.promote() for d in lint_target(target)]
        errors = [d for d in findings if d.severity.name == "ERROR"]
        if errors:
            details = "\n".join(d.render() for d in errors)
            raise StaticCheckError(
                f"strict mode: {len(errors)} static finding(s) block compilation:\n{details}",
                errors,
            )

    def _cache_key(
        self,
        source: str | ast.Program | Callable,
        input_types: Mapping[str, VariableInfo] | None,
    ) -> Hashable | None:
        """The cache key for a compile call, or None when the call is uncacheable.

        Keys combine the source (text or hashable program AST), the declared
        input types, the compiler options and the registered monoid symbols,
        so compilers with different configurations never share entries.
        """
        source_key: Hashable
        if isinstance(source, (str, ast.Program)):
            source_key = source
        elif callable(source):
            try:
                source_key = textwrap.dedent(inspect.getsource(source))
            except (OSError, TypeError):
                return None
        else:
            return None
        types_key: tuple = ()
        if input_types:
            types_key = tuple(
                (name, info.kind, info.declared_type)
                for name, info in sorted(input_types.items(), key=lambda item: item[0])
            )
        options_key = (
            self.check_restrictions,
            self.optimize,
            self.strict,
            self.enable_range_elimination,
            self.enable_group_by_elimination,
            # Registry identity + mutation version: replacing a monoid under
            # an existing symbol must not serve a stale translation.
            self.monoids.fingerprint(),
        )
        key = (source_key, types_key, options_key)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    @staticmethod
    def _to_program(source: str | ast.Program | Callable) -> ast.Program:
        if isinstance(source, ast.Program):
            return source
        if isinstance(source, str):
            return parse_program(source)
        if callable(source):
            return from_python_function(source)
        raise TypeError(f"cannot compile object of type {type(source).__name__}")

    def _optimize_statement(
        self, statement: TargetStatement, optimizer: Optimizer, fresh: ir.NameGenerator
    ) -> TargetStatement:
        if isinstance(statement, TargetAssign):
            term = normalize(statement.term, fresh)
            if self.optimize:
                term = optimizer.optimize(term, fresh)
            return TargetAssign(statement.variable, term, statement.scalar, origin=statement.origin)
        if isinstance(statement, TargetWhile):
            condition = normalize(statement.condition, fresh)
            if self.optimize:
                condition = optimizer.optimize(condition, fresh)
            body = tuple(self._optimize_statement(s, optimizer, fresh) for s in statement.body)
            return TargetWhile(condition, body)
        raise TypeError(f"unknown target statement {statement!r}")


# ---------------------------------------------------------------------------
# Merge into a fresh array
# ---------------------------------------------------------------------------


def _is_empty_constructor(term: ir.Term) -> bool:
    """``{ v | let a = vector(), let (k, v) = ((), a) }``: Equation 14a over an
    empty constructor, as emitted for ``var X: ... = vector()``."""
    match term:
        case ir.Comprehension(
            ir.CVar(value),
            (
                ir.LetBinding(ir.PVar(made), ir.CCall("vector" | "matrix" | "map", ())),
                ir.LetBinding(
                    ir.PTuple((ir.PVar(), ir.PVar(unpacked))),
                    ir.CTuple((ir.CTuple(()), ir.CVar(used))),
                ),
            ),
        ) if unpacked == value and used == made:
            return True
    return False


def merge_into_fresh(
    statements: tuple[TargetStatement, ...], optimizer: Optimizer
) -> tuple[TargetStatement, ...]:
    """Rewrite ``X := X ⊳ S`` / ``X := X ⊳⊕ S`` into a fresh X to ``X := S``.

    Within one straight-line block (a ``while`` body is its own block), X is
    *fresh* from an empty-constructor assignment until a statement reads or
    assigns it; a ``while`` statement ends the freshness of every variable
    it mentions.  Merging S into an empty array yields S itself when S's
    keys are unique (:meth:`Optimizer.keys_are_unique`), so the merge -- a
    coGroup against an empty side -- and the now-dead constructor go.
    """
    out: list[TargetStatement | None] = []
    fresh: dict[str, int] = {}  # variable -> position of its constructor in out
    for statement in statements:
        if isinstance(statement, TargetWhile):
            statement = TargetWhile(statement.condition, merge_into_fresh(statement.body, optimizer))
        else:
            term = statement.term
            name = statement.variable
            if (
                name in fresh
                and isinstance(term, (ir.Merge, ir.MergeWith))
                and term.left == ir.CVar(name)
                and name not in ir.free_variables(term.right)
                and optimizer.keys_are_unique(term.right)
            ):
                out[fresh[name]] = None
                statement = TargetAssign(name, term.right, origin=statement.origin)
                optimizer.stats.fresh_merges += 1
        for name in mentioned_names(statement):
            fresh.pop(name, None)
        if isinstance(statement, TargetAssign) and statement.scalar and _is_empty_constructor(statement.term):
            fresh[statement.variable] = len(out)
        out.append(statement)
    return tuple(s for s in out if s is not None)


# ---------------------------------------------------------------------------
# Variable inference
# ---------------------------------------------------------------------------


def infer_variables(
    program: ast.Program,
    input_types: Mapping[str, VariableInfo] | None = None,
) -> dict[str, VariableInfo]:
    """Classify every program variable as array, collection or scalar.

    * Variables declared with ``var v: vector[...] / matrix[...] / map[...]``
      are arrays; other declarations are scalars.
    * Free variables (inputs) with an entry in ``input_types`` (e.g. from jit
      parameter annotations) use the declared kind and type instead of
      inference; a declared scalar/collection that the program indexes is
      still promoted to an array.
    * Remaining free variables indexed with ``[...]`` anywhere are arrays;
      free variables traversed with ``for x in V`` are collections; all other
      free variables are scalars.
    * Loop index variables and traversal element variables are bound by their
      loops and are not program variables at all.
    """
    declared: dict[str, VariableInfo] = {}
    bound: set[str] = set()
    indexed: set[str] = set()
    traversed: set[str] = set()
    referenced: set[str] = set()

    def visit_expr(expr: ast.Expr) -> None:
        for node in ast.walk_expressions(expr):
            if isinstance(node, ast.Var):
                referenced.add(node.name)
            elif isinstance(node, ast.Index) and isinstance(node.array, ast.Var):
                indexed.add(node.array.name)

    def visit(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            kind = "array" if ast.is_array_type(stmt.type) else "scalar"
            if isinstance(stmt.type, ast.ParametricType) and stmt.type.constructor == "bag":
                kind = "collection"
            declared[stmt.name] = VariableInfo(stmt.name, kind, stmt.type, is_input=False)
            visit_expr(stmt.init)
        elif isinstance(stmt, (ast.Assign, ast.IncrementalUpdate)):
            visit_expr(stmt.destination)
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.ForRange):
            bound.add(stmt.variable)
            visit_expr(stmt.lower)
            visit_expr(stmt.upper)
            visit(stmt.body)
        elif isinstance(stmt, ast.ForIn):
            bound.add(stmt.variable)
            if isinstance(stmt.source, ast.Var):
                traversed.add(stmt.source.name)
            visit_expr(stmt.source)
            visit(stmt.body)
        elif isinstance(stmt, ast.While):
            visit_expr(stmt.condition)
            visit(stmt.body)
        elif isinstance(stmt, ast.If):
            visit_expr(stmt.condition)
            visit(stmt.then_branch)
            if stmt.else_branch is not None:
                visit(stmt.else_branch)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                visit(inner)

    for stmt in program.statements:
        visit(stmt)

    declared_inputs = dict(input_types or {})
    variables: dict[str, VariableInfo] = dict(declared)
    for name in sorted(referenced | indexed | traversed | set(declared_inputs)):
        if name in variables or name in bound:
            continue
        declared_info = declared_inputs.get(name)
        if declared_info is not None:
            kind = declared_info.kind
            if name in indexed and kind != "array":
                kind = "array"
            elif name in traversed and kind == "scalar":
                kind = "collection"
            variables[name] = VariableInfo(name, kind, declared_info.declared_type, is_input=True)
            continue
        if name in indexed:
            kind = "array"
        elif name in traversed:
            kind = "collection"
        else:
            kind = "scalar"
        variables[name] = VariableInfo(name, kind, None, is_input=True)
    # A declared scalar that is nevertheless indexed is really an array (the
    # declaration may have used an opaque type).
    for name in indexed:
        info = variables.get(name)
        if info is not None and info.kind == "scalar":
            variables[name] = VariableInfo(name, "array", info.declared_type, info.is_input)
    return variables
