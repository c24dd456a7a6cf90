"""Lowering comprehension terms to columnar batch kernels.

The term evaluator builds each narrow plan node from a term (bind a generator
element, filter on a condition term, project the head).  This module inspects
that term and, when it is pure scalar arithmetic/comparison over row
variables, driver bindings and constants, produces the matching vectorized
record function from :mod:`repro.runtime.columnar`.  The kernels for plan
nodes come without an ``oracle``: when the planner keeps a node as its own
stage it attaches the generated one-step function
(:mod:`repro.algebra.codegen`) as the record path, so record-at-a-time
execution is the same code the unbatched plan runs.  A kernel resolves its
driver scalars through the comprehension's :class:`~repro.algebra.codegen.Bindings`
(the binding snapshot, then the live environment), as the generated code does.

Every function here returns ``None`` when the term falls outside the
vectorizable fragment (projections, comprehensions, unregistered calls, ...).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comprehension import ir
from repro.runtime import columnar

#: Constant types a :class:`~repro.runtime.columnar.Lit` may hold.
_SCALAR_TYPES = (bool, int, float, str)


def lower_term(
    term: ir.Term, row_names: frozenset[str], functions: Any = None
) -> columnar.Expr | None:
    """A scalar term as a batch expression; None outside the fragment.

    Variables bound by the current row become :class:`Col` reads; everything
    else becomes a :class:`Ref` resolved against the driver scope at batch
    time (so cached plan nodes see updated loop scalars).  ``functions`` is
    the program's scalar-function registry: a :class:`~repro.runtime.columnar.Call`
    is only emitted when the registered implementation *is* the builtin the
    batch kernel mirrors.
    """
    if isinstance(term, ir.CVar):
        if term.name in row_names:
            return columnar.Col((term.name,))
        return columnar.Ref(term.name)
    if isinstance(term, ir.CConst):
        if type(term.value) in _SCALAR_TYPES:
            return columnar.Lit(term.value)
        return None
    if isinstance(term, ir.CBinOp) and term.op in columnar.SUPPORTED_BINOPS:
        left = lower_term(term.left, row_names, functions)
        right = lower_term(term.right, row_names, functions)
        if left is not None and right is not None:
            return columnar.BinOp(term.op, left, right)
        return None
    if isinstance(term, ir.CUnaryOp) and term.op in columnar.SUPPORTED_UNOPS:
        operand = lower_term(term.operand, row_names, functions)
        if operand is not None:
            return columnar.UnOp(term.op, operand)
        return None
    if isinstance(term, ir.CCall):
        impl = columnar.VECTOR_CALL_IMPLS.get(term.function)
        if impl is None or functions is None or functions.get(term.function) is not impl:
            return None
        if term.function == "abs" and len(term.arguments) != 1:
            return None
        if term.function in ("min", "max") and len(term.arguments) < 2:
            # One argument means the builtin iterates a bag, not scalars.
            return None
        args = [lower_term(argument, row_names, functions) for argument in term.arguments]
        if any(argument is None for argument in args):
            return None
        return columnar.Call(term.function, args)
    return None


def lower_output(
    term: ir.Term, row_names: frozenset[str], functions: Any = None
) -> Any | None:
    """A head/key term as an output spec (tuples allowed at any depth)."""
    if isinstance(term, ir.CTuple):
        specs = []
        for element in term.elements:
            spec = lower_output(element, row_names, functions)
            if spec is None:
                return None
            specs.append(spec)
        return columnar.OutTuple(specs)
    return lower_term(term, row_names, functions)


def pattern_spec(pattern: ir.Pattern) -> tuple[Any, ...] | None:
    """A binding pattern as the picklable spec ``VectorizedBind`` consumes."""
    if isinstance(pattern, ir.PVar):
        return ("var", pattern.name)
    if isinstance(pattern, ir.PWildcard):
        return ("wildcard",)
    if isinstance(pattern, ir.PTuple):
        specs = []
        for element in pattern.elements:
            spec = pattern_spec(element)
            if spec is None:
                return None
            specs.append(spec)
        return ("tuple", tuple(specs))
    return None


def head_map(head: ir.Term, row_names: frozenset[str], bindings: Any) -> columnar.VectorizedMap | None:
    """The head-projection ``map`` as a batch kernel, or None."""
    spec = lower_output(head, row_names, bindings.functions)
    if spec is None:
        return None
    return columnar.VectorizedMap(spec, columnar.ScalarScope(bindings.base, bindings.values))


def row_filter(
    term: ir.Term, row_names: frozenset[str], bindings: Any
) -> columnar.VectorizedFilter | None:
    """A condition qualifier's ``filter`` as a batch kernel, or None."""
    predicate = lower_term(term, row_names, bindings.functions)
    if predicate is None:
        return None
    return columnar.VectorizedFilter(predicate, columnar.ScalarScope(bindings.base, bindings.values))


def bind_map(pattern: ir.Pattern, bindings: Any = None) -> columnar.VectorizedBind | None:
    """The generator-binding ``map`` as a (structural) batch kernel, or None
    (``bindings`` unread: taken last, as by every kernel maker)."""
    spec = pattern_spec(pattern)
    if spec is None:
        return None
    return columnar.VectorizedBind(spec)


def let_map(
    pattern: ir.Pattern, term: ir.Term, row_names: frozenset[str], bindings: Any
) -> columnar.VectorizedLet | None:
    """The let-binding ``map`` as a batch kernel (single fresh variable only)."""
    if not isinstance(pattern, ir.PVar):
        return None
    expr = lower_term(term, row_names, bindings.functions)
    if expr is None:
        return None
    return columnar.VectorizedLet(pattern.name, expr, columnar.ScalarScope(bindings.base, bindings.values))


def key_value_map(
    key_term: ir.Term, value_name: str, row_names: frozenset[str], bindings: Any
) -> columnar.VectorizedMap | None:
    """The reduceByKey keying ``map`` ``row -> (key, row[value])``, or None."""
    key_spec = lower_output(key_term, row_names, bindings.functions)
    if key_spec is None:
        return None
    out = columnar.OutTuple([key_spec, columnar.Col((value_name,))])
    return columnar.VectorizedMap(out, columnar.ScalarScope(bindings.base, bindings.values))


def vector_combine(op: str, fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """Tag a monoid combine with its operator when a fold kernel exists.

    The wrapper delegates ``__call__`` to ``fn`` and *enables* the
    grouped-fold kernel; the planner wraps only under columnar execution,
    because each record-path call through it costs a Python call.
    """
    if op in columnar.VECTOR_COMBINE_OPS:
        return columnar.VectorizedCombine(op, fn)
    return fn
