"""Row-segment code generation: one flat Python loop per narrow plan segment.

The planner hands this module a :class:`Segment` -- how records enter, a run
of ``let``/``filter`` steps, how results leave -- and gets back **one**
per-partition function whose body is straight-line Python: row variables are
mangled locals, lets are assignments, filters are ``continue``, and the exit
is a single ``append`` -- or, where the next operator would only fold what
was appended (``reduceByKey(⊕)``, a scalar ``⊕/``), the fold itself, into a
local dict or a local.  It replaces the closure-per-qualifier composition
(one stage, two dict copies and a tree walk of the term per record and
qualifier) the evaluator used to emit for these chains.

Semantics are those of :meth:`TermEvaluator.evaluate_local`, the reference
the generator is tested against: arithmetic and comparisons are inlined,
``&&``/``||`` short-circuit to ``bool``, and everything with layered
semantics (``/``, monoid operators, projections, ``_update_field``) calls the
shared :mod:`repro.operators` helpers.  A term outside the inlined fragment
(nested comprehensions, ranges, aggregates over real bags) becomes a call to
``evaluate_local`` itself, so it never ends a segment.

Names that are not row variables are driver scalars: they resolve once per
non-empty partition through a :class:`SegmentScope` (the evaluator's
binding snapshot first, then the live program environment) and registered
functions through the function registry.  A name that does not resolve is
simply left unassigned, so the ``ExecutionError`` surfaces where -- and only
if -- a record reaches its use, exactly as with per-record lookups.

Source text depends on the segment's structure alone, so compiled factories
are memoised by the :class:`Segment` itself (in a per-program dict); the
bindings arrive as closure cells.  On the cluster wire the function ships by
value: helpers are module globals here (resolved by reference on the worker)
and :class:`SegmentScope` pickles only the scalars the segment reads.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.comprehension import ir
from repro.errors import ExecutionError
from repro.operators import apply_binary, apply_unary, project_value, update_field  # noqa: F401
from repro.runtime.columnar import ScalarScope
from repro.runtime.stage import FoldedRecords  # noqa: F401

_SEQUENCE = (tuple, list)
_INLINE_BINOPS = frozenset({"+", "-", "*", "%", "<", "<=", ">", ">=", "==", "!="})
_LITERAL_TYPES = (bool, int, str, type(None))
#: The built-in monoid combines a fold exit may spell as the operator itself.
_INLINE_COMBINES = {"+": operator.add, "*": operator.mul}
#: "No accumulator yet" in a generated ``fold_by_key`` loop.
MISSING = object()


class Segment(NamedTuple):
    """The structural description (and memo key) of one generated function.

    ``entry`` says what a record is and which row variables it binds:

    * ``("bind", pattern)`` -- a raw scan element destructured by ``pattern``;
    * ``("row", names)`` -- a dict row with exactly the keys ``names``;
    * ``("cogroup", left_names, pattern)`` -- a join's co-grouped sides
      ``(key, [left rows], [right elements])``: the function is the join's
      *consumer*, a nested loop over the pairs that are never materialised;
    * ``("reduced", pattern, value_name)`` -- a reduced ``(key, aggregate)``;
    * ``("grouped", pattern, lifted)`` -- a grouped ``(key, [rows])``.

    ``steps`` are ``("let", pattern, term)`` / ``("filter", term)``.  ``exit``
    is ``("head", term)``, ``("row",)`` (the dict row, with the keys and
    insertion order the per-qualifier maps produced) or ``("keyed", term,
    payload)`` emitting ``(key, payload)`` for a wide operator, the payload
    being ``"row"``, ``"element"`` (the raw record) or ``("value", name)``.
    The folding exits accumulate inside the loop what the next operator
    would fold anyway: ``("fold_by_key", term, payload, op, inline)`` keeps
    ``acc[key] = acc[key] ⊕ payload`` in a dict and returns its items as
    :class:`~repro.runtime.stage.FoldedRecords` -- keys in first-occurrence
    order, each value the exact left fold of its payloads, i.e. what
    ``apply_combiner(("reduce", ⊕), ...)`` makes of the ``keyed`` output --
    and ``("fold", term, op, inline)`` left-folds ``term`` from the monoid's
    identity and returns ``[result]``.  ``inline`` (see :func:`fold_operator`)
    spells ``⊕`` as the Python operator instead of calling the registry's
    ``combine``.
    """

    entry: tuple
    steps: tuple
    exit: tuple


@dataclass(frozen=True)
class Bindings:
    """What a comprehension's generated functions close over."""

    base: dict[str, Any]
    values: Callable[[], dict[str, Any]]
    functions: Any
    monoids: Any
    evaluate_local: Callable[[ir.Term, dict[str, Any]], Any]


@dataclass
class PreAggregated:
    """A lifted variable already reduced by reduceByKey; ``Aggregate`` over it
    returns the value unchanged."""

    value: Any


class SegmentScope(ScalarScope):
    """A :class:`ScalarScope` that ships only the names its segment reads."""

    def __init__(self, base: dict[str, Any], values_provider: Any, names: tuple[str, ...]):
        super().__init__(base, values_provider)
        self.names = names

    def __reduce__(self) -> tuple:
        found = {}
        for name in self.names:
            try:
                found[name] = self.resolve(name)
            except ExecutionError:
                pass
        return (SegmentScope, (found, None, self.names))


def check_bind(pattern: ir.PTuple, value: Any) -> None:
    """The shape check of a tuple pattern (shared with ``_bind_pattern``)."""
    if not isinstance(value, _SEQUENCE) or len(value) != len(pattern.elements):
        raise ExecutionError(f"cannot bind pattern {pattern} to value {value!r}")


def in_range(value: Any, lower: Any, upper: Any) -> bool:
    return lower <= value <= upper


def fold_operator(op: str, monoids: Any) -> tuple[str, bool]:
    """The ``(op, inline)`` tail of a folding exit: ``inline`` only when the
    registry's combine for ``op`` *is* the built-in ``+`` / ``*``."""
    return op, monoids.get(op).combine is _INLINE_COMBINES.get(op)


def unresolved(error: UnboundLocalError, messages: dict[str, str]) -> BaseException:
    """The ``ExecutionError`` for a scalar or function left unassigned."""
    match = re.search(r"'(\w+)'", str(error))
    message = messages.get(match.group(1)) if match else None
    return ExecutionError(message) if message else error


class _Emitter:
    """Builds the source of one segment function."""

    def __init__(self, segment: Segment):
        self.segment = segment
        #: The loop header(s) and the statements of the innermost loop body.
        self.loops: list[str] = ["for rec in records:"]
        self.body: list[str] = []
        self.consts: list[Any] = []
        self.row: dict[str, str] = {}  # row variable -> local, in row-key order
        self.scalars: dict[str, str] = {}
        self.functions: dict[str, str] = {}
        self.assigned: list[str] = []  # row variables bound past the entry dict
        self.reduced: str | None = None  # row variable known to be PreAggregated
        self.count = 0
        terms = [step[-1] for step in segment.steps]
        if segment.exit[0] != "row":
            terms.append(segment.exit[1])
        self.reads: set[str] = set().union(*(ir.free_variables(term) for term in terms))
        payload = segment.exit[2] if segment.exit[0] in ("keyed", "fold_by_key") else None
        if isinstance(payload, tuple):
            self.reads.add(payload[1])
        #: Exits that rebuild the dict row need every row variable loaded.
        self.needs_row = segment.exit[0] == "row" or payload == "row"

    # -- naming ----------------------------------------------------------------

    def fresh(self, prefix: str, name: str = "") -> str:
        self.count += 1
        return f"{prefix}{self.count}_{re.sub(r'[^0-9A-Za-z]', '_', name)}"

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"consts[{len(self.consts) - 1}]"

    def emit(self, line: str) -> None:
        self.body.append(line)

    def target(self, name: str) -> str:
        """The local a (re)binding of row variable ``name`` assigns."""
        local = self.row.get(name)
        if local is None:
            local = self.row[name] = self.fresh("r", name)
        if name not in self.assigned:
            self.assigned.append(name)
        if name == self.reduced:
            self.reduced = None
        return local

    # -- patterns --------------------------------------------------------------

    def bind(self, pattern: ir.Pattern, expression: str) -> None:
        if isinstance(pattern, ir.PVar):
            self.emit(f"{self.target(pattern.name)} = {expression}")
        elif isinstance(pattern, ir.PWildcard):
            self.emit(f"_ = {expression}")  # still evaluated: it may raise
        elif isinstance(pattern, ir.PTuple):
            if not expression.isidentifier():
                holder = self.fresh("t")
                self.emit(f"{holder} = {expression}")
                expression = holder
            for name in pattern.variables():
                self.target(name)  # row keys take the pattern's depth-first order
            width = len(pattern.elements)
            self.emit(f"if type({expression}) is not tuple or len({expression}) != {width}:")
            self.emit(f"    check_bind({self.const(pattern)}, {expression})")
            nested = []
            parts = []
            for element in pattern.elements:
                if isinstance(element, ir.PVar):
                    parts.append(self.target(element.name))
                elif isinstance(element, ir.PWildcard):
                    parts.append("_")
                else:
                    parts.append(self.fresh("t"))
                    nested.append((element, parts[-1]))
            if parts:
                self.emit(f"{', '.join(parts)}, = {expression}")
            for element, part in nested:
                self.bind(element, part)
        else:
            raise ExecutionError(f"unknown pattern {pattern!r}")

    # -- terms -----------------------------------------------------------------

    def variable(self, name: str) -> str:
        if name in self.row:
            return self.row[name]
        if name not in self.scalars:
            self.scalars[name] = self.fresh("s", name)
        return self.scalars[name]

    def fallback(self, term: ir.Term) -> str:
        """A call to ``evaluate_local`` under the row variables ``term`` reads."""
        names = sorted(name for name in ir.free_variables(term) if name in self.row)
        items = "".join(f", {name!r}: {self.row[name]}" for name in names)
        return f"evaluate_local({self.const(term)}, {{**base{items}}})"

    def expr(self, term: ir.Term) -> str:
        if isinstance(term, ir.CVar):
            return self.variable(term.name)
        if isinstance(term, ir.CConst):
            value = term.value
            literal = type(value) in _LITERAL_TYPES or (
                type(value) is float and value == value and abs(value) != float("inf")
            )
            if literal and not (type(value) is int and value.bit_length() > 256):
                return f"({value!r})"
            return self.const(value)
        if isinstance(term, ir.CTuple):
            return "(" + "".join(f"{self.expr(element)}, " for element in term.elements) + ")"
        if isinstance(term, ir.CRecord):
            return "{" + ", ".join(f"{name!r}: {self.expr(e)}" for name, e in term.fields) + "}"
        if isinstance(term, ir.CProject):
            return self.project(term)
        if isinstance(term, ir.CBinOp):
            left, right = self.expr(term.left), self.expr(term.right)
            if term.op == "&&":
                return f"(bool({left}) and bool({right}))"
            if term.op == "||":
                return f"(bool({left}) or bool({right}))"
            if term.op in _INLINE_BINOPS:
                return f"({left} {term.op} {right})"
            if term.op == "/":
                return f"apply_binary('/', {left}, {right})"
            return f"apply_binary({term.op!r}, {left}, {right}, monoids)"
        if isinstance(term, ir.CUnaryOp):
            operand = self.expr(term.operand)
            if term.op == "-":
                return f"(-{operand})"
            if term.op == "!":
                return f"(not bool({operand}))"
            return f"apply_unary({term.op!r}, {operand})"
        if isinstance(term, ir.CCall):
            if term.function == "_update_field":
                if len(term.arguments) != 3:
                    return self.fallback(term)
                record, attribute, value = (self.expr(argument) for argument in term.arguments)
                return f"update_field({record}, str({attribute}), {value})"
            arguments = [self.expr(argument) for argument in term.arguments]
            if term.function not in self.functions:
                self.functions[term.function] = self.fresh("f", term.function)
            return f"{self.functions[term.function]}({', '.join(arguments)})"
        if isinstance(term, ir.Aggregate):
            operand = term.operand
            if isinstance(operand, ir.CVar) and operand.name == self.reduced:
                return f"{self.row[operand.name]}.value"
            return self.fallback(term)
        if isinstance(term, ir.InRange):
            parts = [self.expr(part) for part in (term.value, term.lower, term.upper)]
            inert = all(
                isinstance(part, ir.CConst) or (isinstance(part, ir.CVar) and part.name in self.row)
                for part in (term.value, term.lower, term.upper)
            )
            if inert:
                return f"({parts[1]} <= {parts[0]} <= {parts[2]})"
            return f"in_range({', '.join(parts)})"
        if isinstance(term, ir.EmptyBag):
            return "[]"
        return self.fallback(term)

    def project(self, term: ir.CProject) -> str:
        """``project_value`` with an exact-type fast path for tuples and dicts."""
        base, attribute = self.expr(term.base), term.attribute
        holder = base if base.isidentifier() else self.fresh("t")
        probe = holder if holder == base else f"({holder} := {base})"
        if re.fullmatch(r"_[1-9][0-9]*", attribute):
            position = int(attribute[1:]) - 1
            fast = f"{holder}[{position}] if type({probe}) is tuple and len({holder}) > {position}"
        else:
            fast = f"{holder}[{attribute!r}] if type({probe}) is dict and {attribute!r} in {holder}"
        return f"({fast} else project_value({holder}, {attribute!r}))"

    # -- entry, steps, exit ------------------------------------------------------

    def load(self, names: tuple[str, ...], source: str) -> list[str]:
        """Unpack the row variables the segment reads out of a dict row."""
        lines = []
        for name in dict.fromkeys(names):
            local = self.row[name] = self.fresh("r", name)
            if name in self.reads:
                lines.append(f"{local} = {source}[{name!r}]")
        return lines

    def entry(self) -> str | None:
        """Emit the record unpacking; returns the dict the row extends, if any."""
        kind = self.segment.entry[0]
        if kind == "bind":
            self.bind(self.segment.entry[1], "rec")
            self.assigned.clear()
            return None
        if kind == "row":
            self.body += self.load(self.segment.entry[1], "rec")
            return "rec"
        if kind == "cogroup":
            # The left row is unpacked once per group member, the right
            # element bound in the inner loop: pair order is the join's.
            _, left_names, pattern = self.segment.entry
            self.loops = [
                "for _, lefts, rights in records:",
                "    for left in lefts:",
                *(f"        {line}" for line in self.load(left_names, "left")),
                "        for element in rights:",
            ]
            self.bind(pattern, "element")
            return "left"
        _, pattern, extra = self.segment.entry
        self.emit("key, value = rec")
        self.bind(pattern, "key")
        if kind == "reduced":
            self.emit(f"{self.target('__aggregate_' + extra)} = value")
            self.emit(f"{self.target(extra)} = PreAggregated(value)")
            self.reduced = extra
        else:
            for name in dict.fromkeys(extra):
                if self.needs_row or name in self.reads:
                    self.emit(f"{self.target(name)} = [member.get({name!r}) for member in value]")
        self.assigned.clear()
        return None

    def row_dict(self, extends: str | None) -> str:
        if extends is None:
            return "{" + ", ".join(f"{name!r}: {local}" for name, local in self.row.items()) + "}"
        if not self.assigned:
            return extends
        items = ", ".join(f"{name!r}: {self.row[name]}" for name in self.assigned)
        return f"{{**{extends}, {items}}}"

    def payload(self, payload: Any, extends: str | None) -> str:
        if payload == "row":
            return self.row_dict(extends)
        if payload == "element":
            return "rec"
        return self.row.get(payload[1], "None")

    def leave(self, extends: str | None) -> tuple[list[str], list[str], str]:
        """Emit the exit.  Returns the statements before and after the
        empty-partition check, and the expression the function returns."""
        exit_ = self.segment.exit
        kind = exit_[0]
        if kind in ("fold", "fold_by_key"):
            op, inline = exit_[-2:]
            combine = f"({{}} {op} {{}})" if inline else "combine({}, {})"
            fetch = [] if inline else [f"combine = monoids.get({op!r}).combine"]
            if kind == "fold":
                self.emit(f"acc = {combine.format('acc', self.expr(exit_[1]))}")
                return [f"acc = monoids.get({op!r}).identity()"], fetch, "[acc]"
            self.emit(f"fold_key = {self.expr(exit_[1])}")
            value = self.payload(exit_[2], extends)
            self.emit("held = get(fold_key, MISSING)")
            self.emit(f"acc[fold_key] = {value} if held is MISSING else {combine.format('held', value)}")
            self.emit("consumed += 1")
            fetch.append("get = acc.get")
            return ["acc = {}", "consumed = 0"], fetch, "FoldedRecords(acc.items(), consumed)"
        if kind == "head":
            item = self.expr(exit_[1])
        elif kind == "row":
            item = self.row_dict(extends)
        else:
            item = f"({self.expr(exit_[1])}, {self.payload(exit_[2], extends)})"
        self.emit(f"append({item})")
        return ["out = []"], ["append = out.append"], "out"

    def source(self) -> str:
        extends = self.entry()
        for step in self.segment.steps:
            if step[0] == "let":
                self.bind(step[1], self.expr(step[2]))
            else:
                self.emit(f"if not {self.expr(step[1])}:")
                self.emit("    continue")
        setup, fetch, result = self.leave(extends)

        lines = [
            "def __segment_factory__(scope, consts, base, functions, monoids, evaluate_local):",
            "    def segment(records):",
            *(f"        {line}" for line in setup),
            "        if not records:",
            f"            return {result}",
            *(f"        {line}" for line in fetch),
        ]
        for name, local in self.scalars.items():
            lines += [
                "        try:",
                f"            {local} = scope.resolve({name!r})",
                "        except ExecutionError:",
                "            pass",
            ]
        for name, local in self.functions.items():
            lines += [f"        if {name!r} in functions:", f"            {local} = functions[{name!r}]"]
        innermost = self.loops[-1]
        indent = " " * (len(innermost) - len(innermost.lstrip()) + 4)
        loop = [*self.loops, *(f"{indent}{line}" for line in self.body)]
        if self.scalars or self.functions:
            messages = {local: f"undefined variable {name!r}" for name, local in self.scalars.items()}
            messages.update((local, f"unknown function {name!r}") for name, local in self.functions.items())
            loop = [
                "try:",
                *(f"    {line}" for line in loop),
                "except UnboundLocalError as error:",
                f"    raise unresolved(error, {self.const(messages)}) from None",
            ]
        lines += [f"        {line}" for line in loop]
        lines += [f"        return {result}", "    return segment", ""]
        return "\n".join(lines)


def generate(segment: Segment, bindings: Bindings, memo: dict[Any, Any]) -> Callable[..., Any]:
    """The per-partition function for ``segment`` under ``bindings``.

    ``memo`` maps segments to their compiled factories, so a segment that
    recurs (loop iterations, repeated runs of one program) compiles once.
    The returned function carries its ``source`` for explain output, its
    ``segment``, and ``retarget(exit)`` -- the same entry and steps leaving
    through another exit, generated on demand under the same bindings and
    memo.  A ``fold_by_key`` function also offers ``unfolded()``, its
    ``keyed`` twin: the runtime's adaptive sampler needs the key stream as
    it was before the fold.
    """
    try:
        compiled = memo.get(segment)
        hashable = True
    except TypeError:  # a term holding an unhashable constant cannot key the memo
        compiled, hashable = None, False
    if compiled is None:
        emitter = _Emitter(segment)
        source = emitter.source()
        namespace: dict[str, Any] = {}
        exec(compile(source, "<generated segment>", "exec"), globals(), namespace)
        compiled = (
            namespace["__segment_factory__"],
            source,
            tuple(emitter.consts),
            tuple(emitter.scalars),
            tuple(emitter.functions),
        )
        if hashable:
            memo[segment] = compiled
    factory, source, consts, scalars, called = compiled
    registry = bindings.functions
    function = factory(
        SegmentScope(bindings.base, bindings.values, scalars),
        consts,
        bindings.base,
        {name: registry.get(name) for name in called if name in registry},
        bindings.monoids,
        bindings.evaluate_local,
    )
    function.source = source
    function.segment = segment
    function.retarget = lambda exit_: generate(segment._replace(exit=exit_), bindings, memo)
    if segment.exit[0] == "fold_by_key":
        function.unfolded = functools.partial(function.retarget, ("keyed", *segment.exit[1:3]))
    return function
