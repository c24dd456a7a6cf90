"""The DIABLO compiler driver.

``DiabloCompiler`` chains every stage of the paper's pipeline:

1. parse the loop-language source (or accept an already-built AST, or a Python
   function via the :mod:`repro.loop_lang.python_frontend`);
2. canonicalize ``d := d ⊕ e`` into incremental updates;
3. check the Definition 3.1 restrictions (Section 3.2);
4. apply the Figure 2 translation rules, producing target code whose
   right-hand sides are monoid comprehensions;
5. normalize the comprehensions (Rule 2) and apply the Section 3.6 / Section 4
   optimizations;
6. rewrite across statements: merges into fresh arrays, loop-body fusion
   (initialise-then-increment, read-once intermediates) and shared scans.

The result is a :class:`repro.translate.target.TargetProgram`, which the DISC
algebra compiler (:mod:`repro.algebra`) turns into executable dataflow plans.
"""

from __future__ import annotations

import inspect
import textwrap
import time
from dataclasses import dataclass
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, NamedTuple

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
from repro.translate.facts import assigned_names, independent, keys_within, mentioned_names, uses
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
        strict: bool = False,
        cache: CompilationCache | None = None,
    ):
        self.monoids = monoids or DEFAULT_MONOIDS
        self.check_restrictions = check_restrictions
        self.optimize = optimize
        self.strict = strict
        self.cache = cache if cache is not None else CompilationCache()

    # -- public API -----------------------------------------------------------

    def compile(
        self,
        source: str | ast.Program | Callable,
        input_types: Mapping[str, VariableInfo] | None = None,
        outputs: Iterable[str] | None = None,
    ) -> TranslationResult:
        """Compile loop-language source text, a program AST or a Python function.

        Args:
            source: the program to translate.
            input_types: declared :class:`VariableInfo` for free (input)
                variables -- e.g. from jit parameter annotations -- which
                override kind inference for those names.
            outputs: the variables the caller reads once the program ends
                (None: every variable).  Only when they are named may an
                array a loop body reads once be inlined into its reader
                (:func:`inline_read_once`) and so be missing from the result.
        """
        kept = None if outputs is None else frozenset(outputs)
        key = self._cache_key(source, input_types, kept)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        result = self._translate(source, input_types, kept)
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
        outputs: AbstractSet[str] | None = None,
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
        optimizer = Optimizer(array_variables={n for n, v in variables.items() if v.is_collection})
        optimized = tuple(self._optimize_statement(s, optimizer, fresh) for s in statements)
        if self.optimize:
            optimized = merge_into_fresh(optimized, optimizer)
            optimized = fold_increments(optimized, optimizer)
            if outputs is not None:
                optimized = inline_read_once(optimized, optimizer, fresh, variables, outputs)
            optimized = share_scans(optimized, optimizer, fresh)
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
        outputs: frozenset[str] | None,
    ) -> Hashable | None:
        """The cache key for a compile call, or None when the call is uncacheable.

        Keys combine the source (text or hashable program AST), the declared
        input types, the declared outputs, the compiler options and the
        registered monoid symbols, so compilers with different
        configurations never share entries.
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
            # Registry identity + mutation version: replacing a monoid under
            # an existing symbol must not serve a stale translation.
            self.monoids.fingerprint(),
        )
        key = (source_key, types_key, outputs, options_key)
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
    """``{ a | let a = vector() }``: Equation 14a over an empty constructor,
    as ``var X: ... = vector()`` normalizes."""
    match term:
        case ir.Comprehension(
            ir.CVar(value),
            (ir.LetBinding(ir.PVar(made), ir.CCall("vector" | "matrix" | "map", ())),),
        ) if made == value:
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
# Loop-body fusion: initialise-then-increment, read-once intermediates
# ---------------------------------------------------------------------------


def _with_rule(statement: TargetAssign, term: ir.Term, rule: str) -> TargetAssign:
    """``statement`` computing ``term``, with ``rule`` added to its trace line."""
    rules = rule if statement.rule is None else f"{statement.rule}; {rule}"
    return TargetAssign(statement.variable, term, statement.scalar, origin=statement.origin, rule=rules)


def _folded(initialise: TargetStatement, increment: TargetAssign) -> ir.Term | None:
    """``A ⊳ (S0 ⊳⊕ S1)`` for ``A := A ⊳ S0`` followed by ``A := A ⊳⊕ S1``,
    or None when the pair is not of that shape or the rewrite is unproved."""
    if not isinstance(initialise, TargetAssign) or initialise.scalar or increment.scalar:
        return None
    name = increment.variable
    match initialise.term, increment.term:
        case ir.Merge(ir.CVar(left), initial), ir.MergeWith(op, ir.CVar(again), increase) if (
            initialise.variable == left == again == name
            and name not in ir.free_variables(increase)
            and keys_within(increase, initial)
        ):
            return ir.Merge(ir.CVar(name), ir.MergeWith(op, initial, increase))
    return None


def fold_increments(
    statements: tuple[TargetStatement, ...], optimizer: Optimizer
) -> tuple[TargetStatement, ...]:
    """Rewrite ``A := A ⊳ S0; A := A ⊳⊕ S1`` to ``A := A ⊳ (S0 ⊳⊕ S1)``.

    Within one block (a ``while`` body is its own), when S1 does not read A
    and every key S1 produces is one S0 produces
    (:func:`~repro.translate.facts.keys_within`).  A key of S1 then gets
    ``S0[k] ⊕ S1[k]`` -- the same operands of the same ⊕ as the two merges
    -- any other key of S0 its S0 value, and any other key of A keeps its
    value, so the result is bit-identical.  A is merged once instead of
    twice, and S1's result meets S0 without being merged into A first.
    """
    out: list[TargetStatement] = []
    for statement in statements:
        if isinstance(statement, TargetWhile):
            out.append(TargetWhile(statement.condition, fold_increments(statement.body, optimizer)))
            continue
        term = _folded(out[-1], statement) if out else None
        if term is None:
            out.append(statement)
            continue
        rule = f"increment folded into its initialisation (<|{statement.term.op})"
        out[-1] = _with_rule(out[-1], term, rule)
        optimizer.stats.folded_increments += 1
    return tuple(out)


def _invariant_first(comp: ir.Comprehension, variant: AbstractSet[str]) -> ir.Comprehension:
    """``comp`` with each generator over a ``variant`` name moved after the
    qualifiers before the first group-by that do not depend on it.

    Every qualifier that reads what such a generator binds -- directly or
    through another moved qualifier -- moves with it, in its order, so a
    qualifier only ever moves to where every name it reads is bound.  The
    rows are the same bag in another order, so a later group-by folds the
    same values, though a ⊕ that is not exact (``+`` over doubles) may
    round differently than before.  Joins over loop-invariant domains come
    first, where the loop-invariant cache can keep them.
    """
    qualifiers = comp.qualifiers
    end = next((p for p, q in enumerate(qualifiers) if isinstance(q, ir.GroupBy)), len(qualifiers))
    names = ir.qualifier_variables(qualifiers)
    if len(names) != len(set(names)):
        return comp
    stay: list[ir.Qualifier] = []
    moved: list[ir.Qualifier] = []
    dependent: set[str] = set()
    for qualifier in qualifiers[:end]:
        reads = {name for term in qualifier.terms() for name in ir.free_variables(term)}
        if reads & dependent or (isinstance(qualifier, ir.Generator) and reads & variant):
            moved.append(qualifier)
            dependent.update(qualifier.bound_variables())
        else:
            stay.append(qualifier)
    return ir.Comprehension(comp.head, (*stay, *moved, *qualifiers[end:]))


def _inlined(
    term: ir.Term, name: str, definition: ir.Term, fresh: ir.NameGenerator, variant: AbstractSet[str]
) -> ir.Term | None:
    """``term`` with ``definition`` in place of its generator over ``name``,
    unnested and with loop-invariant generators first; None when the
    generator is not in a comprehension ``term`` is or merges, or Rule 2
    would leave ``definition`` nested."""
    if isinstance(term, (ir.Merge, ir.MergeWith)):
        left = _inlined(term.left, name, definition, fresh, variant)
        right = None if left is not None else _inlined(term.right, name, definition, fresh, variant)
        if left is None and right is None:
            return None
        sides = (left or term.left, right or term.right)
        return ir.Merge(*sides) if isinstance(term, ir.Merge) else ir.MergeWith(term.op, *sides)
    if not isinstance(term, ir.Comprehension):
        return None
    qualifiers = list(term.qualifiers)
    for position, qualifier in enumerate(qualifiers):
        if not (isinstance(qualifier, ir.Generator) and qualifier.domain == ir.CVar(name)):
            continue
        nested = isinstance(definition, ir.Comprehension) and any(
            isinstance(q, ir.GroupBy) for q in definition.qualifiers
        )
        captured = ir.free_variables(definition) & set(ir.qualifier_variables(term.qualifiers))
        if (nested and position > 0) or captured:
            return None
        qualifiers[position] = ir.Generator(qualifier.pattern, definition)
        fused = normalize(ir.Comprehension(term.head, tuple(qualifiers)), fresh)
        return _invariant_first(fused, variant) if isinstance(fused, ir.Comprehension) else fused
    return None


def inline_read_once(
    statements: tuple[TargetStatement, ...],
    optimizer: Optimizer,
    fresh: ir.NameGenerator,
    variables: Mapping[str, VariableInfo],
    outputs: AbstractSet[str],
) -> tuple[TargetStatement, ...]:
    """Inline each array a ``while`` body assigns and reads once into its reader.

    An array X qualifies when a ``while`` body assigns it ``X := S``, S has
    unique keys (:meth:`Optimizer.keys_are_unique`), X is not one of the
    ``outputs`` the caller reads when the program ends, and the whole
    program assigns X there only and reads it once
    (:func:`~repro.translate.facts.uses`): in a later statement of the same
    body, with no statement in between assigning a variable S reads.  So X
    is declared in the body, is not carried across iterations, and neither
    the loop condition, nor anything after the loop, nor the caller reads
    it.  S replaces X's generator in the reader, Rule 2 unnests it, and the
    generators over domains the body does not assign go first
    (:func:`_invariant_first`): X is never materialised, and a join among
    loop-invariant arrays becomes a side the loop-invariant cache keeps for
    every iteration.
    """
    if not any(isinstance(statement, TargetWhile) for statement in statements):
        return statements
    counts = uses(statements)

    def inline(body: tuple[TargetStatement, ...]) -> tuple[TargetStatement, ...]:
        variant = assigned_names(body)
        out = [TargetWhile(s.condition, inline(s.body)) if isinstance(s, TargetWhile) else s for s in body]
        position = 0
        while position < len(out):
            rewritten = inline_at(out, position, variant)
            if rewritten is None:
                position += 1
            else:
                out = rewritten
        return tuple(out)

    def inline_at(
        body: list[TargetStatement], position: int, variant: AbstractSet[str]
    ) -> list[TargetStatement] | None:
        definition = body[position]
        if not isinstance(definition, TargetAssign) or definition.scalar:
            return None
        name, term = definition.variable, definition.term
        info = variables.get(name)
        if info is None or info.is_input or not info.is_array or name in outputs or counts[name] != 2:
            return None
        reader = next((p for p in range(position + 1, len(body)) if name in mentioned_names(body[p])), None)
        if reader is None or not optimizer.keys_are_unique(term):
            return None
        target = body[reader]
        if not isinstance(target, TargetAssign):
            return None
        if assigned_names(body[position + 1 : reader]) & ir.free_variables(term):
            return None
        fused = _inlined(target.term, name, term, fresh, variant)
        if fused is None:
            return None
        optimizer.stats.inlined_intermediates += 1
        body[reader] = _with_rule(target, fused, f"read-once {name} inlined")
        return body[:position] + body[position + 1 :]

    return tuple(
        TargetWhile(s.condition, inline(s.body)) if isinstance(s, TargetWhile) else s for s in statements
    )


# ---------------------------------------------------------------------------
# Shared scans
# ---------------------------------------------------------------------------


class _Fold(NamedTuple):
    """The parts of a scalar fold statement (see :func:`_scalar_fold`)."""

    source: str
    pattern: ir.Pattern
    lets: tuple[ir.Qualifier, ...]
    head: ir.Term
    op: str
    #: ``let z = ⊕/w``'s pattern and the qualifiers after it.
    unpack: ir.Pattern
    rest: tuple[ir.Qualifier, ...]


def _scalar_fold(statement: TargetStatement) -> _Fold | None:
    """``{v | let w = {h | p <- X, let…}, let z = ⊕/w, …}``: a scalar
    ``x ⊕= h`` over the variable X with a let-only body, as Figure 2 and the
    constant-key group-by elimination leave it."""
    if not (isinstance(statement, TargetAssign) and statement.scalar):
        return None
    match statement.term:
        case ir.Comprehension(
            head,
            (
                ir.LetBinding(
                    ir.PVar(bag), ir.Comprehension(inner, (ir.Generator(pattern, ir.CVar(source)), *lets))
                ),
                ir.LetBinding(ir.PVar() as unpack, ir.Aggregate(str() as op, ir.CVar(folded))),
                *rest,
            ),
        ) if (
            folded == bag
            and all(isinstance(let, ir.LetBinding) for let in lets)
            and bag not in ir.free_variables(ir.Comprehension(head, tuple(rest)))
        ):
            return _Fold(source, pattern, tuple(lets), inner, op, unpack, tuple(rest))
    return None


def _renaming(pattern: ir.Pattern, onto: ir.Pattern) -> dict[str, ir.Term] | None:
    """The substitution under which ``pattern``'s variables read what
    ``onto`` binds, or None when the two do not destructure alike."""
    if isinstance(pattern, ir.PWildcard) and isinstance(onto, (ir.PWildcard, ir.PVar)):
        return {}
    if isinstance(pattern, ir.PVar) and isinstance(onto, ir.PVar):
        return {pattern.name: ir.CVar(onto.name)}
    if (
        isinstance(pattern, ir.PTuple)
        and isinstance(onto, ir.PTuple)
        and len(pattern.elements) == len(onto.elements)
    ):
        mapping: dict[str, ir.Term] = {}
        for element, target in zip(pattern.elements, onto.elements, strict=True):
            inner = _renaming(element, target)
            if inner is None:
                return None
            mapping.update(inner)
        return mapping
    return None


def _scope(fold: _Fold) -> tuple[set[str], set[str]]:
    """The names ``fold``'s body binds, and the outer names it reads."""
    bound = {name for let in fold.lets for name in let.bound_variables()}
    reads = ir.free_variables(ir.Comprehension(fold.head, fold.lets)) - set(fold.pattern.variables())
    return bound, reads


def _joins(run: list[tuple[TargetAssign, _Fold]], statement: TargetAssign, fold: _Fold) -> bool:
    """Whether ``statement`` can share the scan of ``run``: the same source,
    a pattern that destructures alike, no name one body binds that another
    body (or the shared pattern) would capture, and no dependence on the
    others' results."""
    base = run[0][1]
    if fold.source != base.source or _renaming(fold.pattern, base.pattern) is None:
        return False
    bound, reads = _scope(fold)
    patterns = set(base.pattern.variables()) | set(fold.pattern.variables())
    for _, other in run:
        other_bound, other_reads = _scope(other)
        if bound & (other_bound | other_reads | patterns) or reads & (other_bound | patterns):
            return False
    return independent([member for member, _ in run] + [statement])


def _shared_scan(
    run: list[tuple[TargetAssign, _Fold]], fresh: ir.NameGenerator
) -> list[TargetStatement]:
    """``scan$N := (⊕1,…,⊕n)/{(h1,…,hn) | p <- X, lets1, …, letsn}`` and the
    run's statements, each reading its own component of ``scan$N``."""
    base = run[0][1]
    heads: list[ir.Term] = []
    lets: list[ir.Qualifier] = []
    for _, fold in run:
        mapping = _renaming(fold.pattern, base.pattern) or {}
        heads.append(ir.substitute_term(fold.head, mapping))
        lets.extend(ir.substitute_qualifier(let, mapping) for let in fold.lets)
    ops = tuple(fold.op for _, fold in run)
    scan, bag, value = fresh.fresh("scan"), fresh.fresh("w"), fresh.fresh("z")
    folded = ir.Comprehension(
        ir.CVar(value),
        (
            ir.LetBinding(
                ir.PVar(bag),
                ir.Comprehension(
                    ir.CTuple(tuple(heads)), (ir.Generator(base.pattern, ir.CVar(base.source)), *lets)
                ),
            ),
            ir.LetBinding(ir.PVar(value), ir.Aggregate(ops, ir.CVar(bag))),
        ),
    )
    members = ", ".join(statement.variable for statement, _ in run)
    rule = f"shared scan of {base.source}: {members} {ir.op_text(ops)}"
    out: list[TargetStatement] = [TargetAssign(scan, folded, scalar=True, rule=rule)]
    for position, (statement, fold) in enumerate(run, 1):
        component = ir.CProject(ir.CVar(scan), f"_{position}")
        term = ir.Comprehension(statement.term.head, (ir.LetBinding(fold.unpack, component), *fold.rest))
        out.append(TargetAssign(statement.variable, term, scalar=True, origin=statement.origin))
    return out


def share_scans(
    statements: tuple[TargetStatement, ...], optimizer: Optimizer, fresh: ir.NameGenerator
) -> tuple[TargetStatement, ...]:
    """Run consecutive scalar folds over one source as one scan.

    Within one block (a ``while`` body is its own), a maximal run of scalar
    folds (:func:`_scalar_fold`) over the same variable, none reading what
    another assigns (:func:`~repro.translate.facts.independent`), becomes a
    fresh scalar ``scan$N`` folding the tuple of their heads with the tuple
    of their monoids -- itself a monoid -- computed where the run starts;
    each statement then takes its component where it used to fold.  Every
    component is the same left fold, over the same records in the same
    order, from the same identity, so the results are bit-identical; the
    source is scanned once instead of once per statement.
    """
    out: list[TargetStatement] = []
    run: list[tuple[TargetAssign, _Fold]] = []

    def flush() -> None:
        if len(run) > 1:
            out.extend(_shared_scan(run, fresh))
            optimizer.stats.shared_scans += 1
        else:
            out.extend(statement for statement, _ in run)
        run.clear()

    for statement in statements:
        if isinstance(statement, TargetWhile):
            flush()
            out.append(TargetWhile(statement.condition, share_scans(statement.body, optimizer, fresh)))
            continue
        fold = _scalar_fold(statement)
        if run and (fold is None or not _joins(run, statement, fold)):
            flush()
        if fold is None:
            out.append(statement)
        else:
            run.append((statement, fold))
    flush()
    return tuple(out)


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
