"""Row-segment code generation: one flat Python loop per narrow plan segment.

The planner hands this module a :class:`Segment` -- how records enter, a run
of ``let``/``filter``/``expand`` steps, how results leave -- and gets back
**one** per-partition function whose body is straight-line Python: row
variables are mangled locals, lets are assignments, filters are
``continue``, a generator over a bag (a per-row domain, a driver-local bag,
a product's broadcast side) is a nested ``for``, and the exit is a single
``append`` -- or, where the next operator would only fold what was appended
(``reduceByKey(⊕)``, a scalar ``⊕/``), the fold itself, into a local dict or
a local.  It replaces the closure-per-qualifier composition (one stage, two
dict copies and a tree walk of the term per record and qualifier) the
evaluator used to emit for these chains.

Semantics are those of :meth:`TermEvaluator.evaluate_local`, the reference
the generator is tested against: arithmetic and comparisons are inlined,
``&&``/``||`` short-circuit to ``bool``, and everything with layered
semantics (monoid operators, projections, ``_update_field``, aggregations,
and ``/`` unless an operand is a float, see :meth:`_Emitter.divide`) calls
the shared helpers of :mod:`repro.runtime.segments`.  A
comprehension nested in a term becomes a helper function the segment
defines and calls where the term is evaluated (see :class:`Segment`).  A
term with no local meaning (an array merge, a group-by inside a nested
comprehension) is a :class:`~repro.errors.CompilationError` when the
segment is generated.

Names that are not row variables are driver scalars: they resolve once per
non-empty partition through a :class:`SegmentScope` (the comprehension's
binding snapshot first, then the live program environment) and registered
functions through the function registry.  A name that does not resolve is
simply left unassigned, so the ``ExecutionError`` surfaces where -- and only
if -- a record reaches its use, exactly as with per-record lookups.

Source text depends on the segment's structure alone, so compiled factories
are memoised by the :class:`Segment` itself (in a per-program dict); the
bindings arrive as closure cells.  A generated function closes over data
only -- its scope, constants, functions and monoids -- never over the
evaluator.  Its source runs against :mod:`repro.runtime.segments`, whose
globals are the helpers it names, so on the cluster wire it ships by value
and the worker rebuilds it without this module; its :class:`SegmentScope`
pickles only the scalars the segment reads.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from repro.comprehension import ir
from repro.comprehension.monoids import _logical_and, _logical_or
from repro.errors import CompilationError, ExecutionError
from repro.runtime import segments
from repro.runtime.segments import SegmentScope

_COMPARISONS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_INLINE_BINOPS = _COMPARISONS | {"+", "-", "*", "%"}
_LITERAL_TYPES = (bool, int, str, type(None))
#: The built-in monoid combines a fold exit may spell inline, and how.
_INLINE_COMBINES = {
    "+": (operator.add, "({} + {})"),
    "*": (operator.mul, "({} * {})"),
    "&&": (_logical_and, "(bool({}) and bool({}))"),
    "||": (_logical_or, "(bool({}) or bool({}))"),
}
#: The driver binding holding a positional source's partition start offsets.
OFFSETS = "offsets#"


class Segment(NamedTuple):
    """The structural description (and memo key) of one generated function.

    ``entry`` says what a record is and which row variables it binds:

    * ``("bind", pattern)`` -- a raw scan element destructured by ``pattern``;
    * ``("positional", (i, v))`` -- a plain element of a positional source
      (:meth:`~repro.runtime.context.DistributedContext.indexed`) bound to
      ``v``, ``i`` counted from the partition's offset (the driver binding
      :data:`OFFSETS` indexed by the function's second argument) unless no
      step or exit reads it; ``function.indexed`` says which.  Only a
      nested ``v`` pattern is checked;
    * ``("slots", names)`` -- a *slot row*: the flat tuple of the values of
      ``names`` another generated run emitted.  Every slot row is unpacked
      positionally in a loop header, unchecked: the producer's layout is
      fixed when the plan is lowered;
    * ``("cogroup", left_names, right_names)`` -- a join's co-grouped sides
      ``(key, [left slot rows], [right slot rows])``: the function is the
      join's *consumer*, a nested loop over pairs never materialised;
    * ``("probe", side, unique, left_names, right_names)`` -- the same
      consumer as a broadcast join's probe task, taking the broadcast
      ``side``'s lookup table too: each probe record, then each of its
      matches, the pairs the broadcast join would have built, in their
      order.  The table maps a key to its list of slot rows, or, when
      ``unique`` (no build-side key repeats), to its one slot row, tested
      against ``MISSING`` (a slot row may be falsy).  A probe key equal to
      the previous record's reuses its match (a NaN key is looked up again);
    * ``("product", left_names, pattern, rows)`` -- a no-key product's right
      elements, each paired with every left slot row of the driver list
      ``rows``, or (``rows`` None) cartesian ``(left slot row, element)``;
    * ``("reduced", pattern, value_name)`` -- a reduced ``(key, aggregate)``;
    * ``("grouped", pattern, lifted)`` -- a grouped ``(key, [slot rows])``,
      lifted variable j bound to the list of the members' slot j.

    ``steps`` are ``("let", pattern, term)``, ``("filter", term)`` and
    ``("expand", pattern, source)``, which binds ``pattern`` to each element
    of a bag and runs the remaining steps and the exit in that inner loop.
    A ``source`` naming a variable the row does not bind is a driver list
    (a local bag or a product's broadcast elements, bound late through the
    scope like any driver scalar) iterated as it is; a ``range`` is inlined;
    any other term is evaluated per row to a local bag, which a tuple
    pattern binds whole before its first element goes on.  ``exit``
    is ``("head", term)`` (a slot row is the head of a tuple of variables)
    or ``("keyed", term, payload)`` emitting ``(key, payload)`` for a wide
    operator, the payload being ``("value", name)`` or ``("values",
    names)``, the slot row of those variables.
    The folding exits accumulate inside the loop what the next operator
    would fold anyway: ``("fold_by_key", term, payload, op, inline)`` keeps
    ``acc[key] = acc[key] ⊕ payload`` in a dict and returns its items as
    :class:`~repro.runtime.stage.FoldedRecords` -- keys in first-occurrence
    order, each value the exact left fold of its payloads, i.e. what
    ``apply_combiner(("reduce", ⊕), ...)`` makes of the ``keyed`` output.
    A key of row variables (one, a tuple, or a let of a tuple) some of which
    a loop outside the exit's binds, and which leads with those, is
    factorised over that loop: (B) split across depths, it folds into one
    row dict per value of its outer part, keyed on its inner part, building
    the full key only when a row first sees its inner part; (A) fixed across
    the inner loops, it folds into a local stored once after them.  Either fetches its row or accumulator
    when the first payload reaches the fold, so a key no payload reaches is
    never hashed.  ``("fold", term, op, inline)`` left-folds ``term`` from
    the monoid's identity and returns ``[result]``.  Its product form, a
    tuple ``op`` over a ``CTuple`` term of as many elements (a shared scan's
    ``(⊕1,…,⊕n)/``), keeps one local accumulator per component, folds
    element j into accumulator j and returns ``[(acc0, …)]``: no tuple is
    built per record.
    ``inline`` (see :func:`fold_operator`; a tuple of flags for a product)
    spells ``⊕`` as the Python operator instead of calling the registry's
    ``combine``.

    A nested comprehension other than a singleton ``[e]`` is a helper
    function defined before the record loop and called, with the row locals
    it reads, where its term is evaluated.  Like ``_local_comprehension`` it
    runs one qualifier at a time over the list of all its rows (tuples of
    the locals bound so far), then the head.

    A ``let`` of a variable to a term in the pure inlined fragment (variables,
    constants, tuples, projections, arithmetic and comparisons, ``inRange``,
    ``/`` and unary operators -- never a function call, an aggregation or a
    comprehension) whose source text an earlier such ``let`` already
    computed, with none of the locals it reads rebound since, aliases that
    let's local instead of computing the term again.  So does a flat tuple
    pattern over a tuple of row variables (no shape check), and a pure
    filter already tested is not tested again.  A ``let`` of a tuple of row
    variables that no other line reads is not emitted, and an ``inRange``
    reads a driver scalar first only if no earlier ``inRange`` filter did.

    A variable the entry binds whole, that no step rebinds and that the
    steps and exit project at two positions or more, has its shape tested
    once per record: the steps and exit are emitted twice, under ``if
    type(v) is tuple and len(v) == K`` (K the highest position projected)
    with ``v`` unpacked once and each projection the unpacked local, and as
    the one-branch body in the ``else``.

    A ``let`` of a variable that only the ``filter`` right after it reads
    (no later step and no exit does) is that filter's own test: ``if not
    (term): continue``, with no local stored.  An int literal ``c``, |c| <
    2**53, compared with a variable a ``bind`` or ``positional`` entry binds
    from the record is a local set once per call: ``float(c)`` if that
    variable is a float in ``records[0]`` (behind the entry's shape tests),
    ``c`` otherwise.  Python compares ints, floats, Decimals and Fractions
    exactly and ``float(c) == c``, so each record gets the same bool either
    way; only CPython's float fast path depends on the guess.
    """

    entry: tuple
    steps: tuple
    exit: tuple


@dataclass(frozen=True)
class Bindings:
    """What a comprehension's generated functions close over: the driver
    bindings, the live program environment (the runner only updates it in
    place), and the function and monoid registries."""

    base: dict[str, Any]
    values: dict[str, Any]
    functions: Any
    monoids: Any


def fold_operator(op: str | tuple[str, ...], monoids: Any) -> tuple[Any, Any]:
    """The ``(op, inline)`` tail of a folding exit: ``inline`` only when the
    registry's combine for ``op`` *is* the built-in ``+`` / ``*`` / ``&&`` /
    ``||``.  A product ``op`` gets one ``inline`` flag per component."""
    if isinstance(op, tuple):
        return op, tuple(fold_operator(part, monoids)[1] for part in op)
    inlined = _INLINE_COMBINES.get(op)
    return op, inlined is not None and monoids.get(op).combine is inlined[0]


def _pure(term: ir.Term) -> bool:
    """Whether ``term`` is in the fragment a ``let`` may share (see :class:`Segment`)."""
    if isinstance(term, (ir.CVar, ir.CConst)):
        return True
    if isinstance(term, ir.CProject):
        return _pure(term.base)
    if isinstance(term, ir.CTuple):
        return all(map(_pure, term.elements))
    if isinstance(term, ir.CBinOp):
        return (term.op in _INLINE_BINOPS or term.op == "/") and _pure(term.left) and _pure(term.right)
    if isinstance(term, ir.CUnaryOp):
        return _pure(term.operand)
    if isinstance(term, ir.InRange):
        return all(map(_pure, (term.value, term.lower, term.upper)))
    return False


def _tuple_of(parts: Iterable[str]) -> str:
    """The source of a tuple of the expressions ``parts``."""
    return "(" + "".join(f"{part}, " for part in parts) + ")"


def _mentions(text: str, local: str) -> bool:
    return re.search(rf"\b{re.escape(local)}\b", text) is not None


def live(steps: tuple, exit: tuple) -> set[str]:
    """What a run of ``steps`` then ``exit`` reads before binding it: what its entry must supply."""
    names = ir.free_variables(exit[1])
    if exit[0] in ("keyed", "fold_by_key"):
        names.update(exit[2][1] if exit[2][0] == "values" else exit[2][1:])
    for step in reversed(steps):
        if step[0] != "filter":
            names.difference_update(step[1].variables())
        names |= ir.free_variables(step[-1])
    return names


class _Emitter:
    """Builds the source of one segment function."""

    def __init__(self, segment: Segment):
        self.segment = segment
        #: The loop nest, indented from its outermost ``for``.
        self.lines: list[str] = []
        self.depth = 0
        self.consts: list[Any] = []
        self.row: dict[str, str] = {}  # row variable -> local, in row-key order
        self.depths: dict[str, int] = {}  # row variable -> loop depth its local was bound at
        self.scalars: dict[str, str] = {}
        self.functions: dict[str, str] = {}
        self.reduced: str | None = None  # row variable known to be PreAggregated
        #: Source text of a pure let's term -> the local holding it, that
        #: local's depth and, for a tuple of row variables, their locals and
        #: depths; of a tested pure filter's statement -> ("", depth, ()):
        #: while no local the text reads is rebound.
        self.computed: dict[str, tuple[str, int, tuple]] = {}
        #: Driver scalar locals an earlier ``inRange`` filter read (loop depth only grows).
        self.resolved: set[str] = set()
        #: ``(line, local)`` of each emitted let of a tuple of row variables.
        self.inert: list[tuple[int, str]] = []
        self.count = 0
        #: The names the entry must supply (see :func:`live`).
        self.reads = live(segment.steps, segment.exit)
        #: Whether a positional entry counts positions (see :class:`Segment`).
        self.counted = False
        #: The definitions of the nested comprehensions' helper functions.
        self.helpers: list[str] = []
        #: Leading steps the entry emitted itself (a product's element filters).
        self.hoisted = 0
        #: Loop depth -> the index in ``lines`` of the header that last opened it.
        self.opened: dict[int, int] = {}
        #: In a row-shape fast branch: the entry variable it unpacked, and
        #: the local each of its projected positions was unpacked into.
        self.unpacked: tuple[str, dict[str, str]] | None = None
        #: Entry locals still holding a component of the record -> the test
        #: that it is a float in ``records[0]``.
        self.sniffs: dict[str, str] = {}
        #: ``(sniff, c)`` of each typed comparison literal -> its local.
        self.literals: dict[tuple[str, int], str] = {}

    # -- naming ----------------------------------------------------------------

    def fresh(self, prefix: str, name: str = "") -> str:
        self.count += 1
        return f"{prefix}{self.count}_{re.sub(r'[^0-9A-Za-z]', '_', name)}"

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"consts[{len(self.consts) - 1}]"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def open(self, *headers: str) -> None:
        """Emit loop headers, each nested in the previous one."""
        for header in headers:
            self.opened[self.depth + 1] = len(self.lines)
            self.emit(header)
            self.depth += 1

    def target(self, name: str) -> str:
        """The local a (re)binding of row variable ``name`` assigns.

        A rebinding inside a loop opened after the binding gets a fresh
        local: the loop's later passes still read the outer value.  So does
        one of a local another variable shares (an aliased let), and one of
        a positional entry's element: ``rec``, the record loop's own
        variable, is never assigned."""
        local = self.row.get(name)
        if (
            local is None
            or local == "rec"
            or (self.unpacked is not None and local in self.unpacked[1].values())
            or self.depths.get(name, 0) < self.depth
            or any(held == local for other, held in self.row.items() if other != name)
        ):
            local = self.row[name] = self.fresh("r", name)
            self.depths[name] = self.depth
        self.sniffs.pop(local, None)
        self.computed = {
            text: known
            for text, known in self.computed.items()
            if known[0] != local and not _mentions(text, local)
        }
        if name == self.reduced:
            self.reduced = None
        return local

    # -- patterns --------------------------------------------------------------

    def bind(self, pattern: ir.Pattern, expression: str, target: Callable[[str], str] | None = None) -> None:
        """Emit the binding of ``pattern`` to ``expression``; ``target``
        names the local each variable assigns (default :meth:`target`)."""
        target = target or self.target
        if isinstance(pattern, ir.PVar):
            self.emit(f"{target(pattern.name)} = {expression}")
        elif isinstance(pattern, ir.PWildcard):
            self.emit(f"_ = {expression}")  # still evaluated: it may raise
        elif isinstance(pattern, ir.PTuple):
            if not expression.isidentifier():
                holder = self.fresh("t")
                self.emit(f"{holder} = {expression}")
                expression = holder
            for name in pattern.variables():
                target(name)  # row keys take the pattern's depth-first order
            width = len(pattern.elements)
            self.emit(f"if type({expression}) is not tuple or len({expression}) != {width}:")
            self.emit(f"    check_bind({self.const(pattern)}, {expression})")
            nested = []
            parts = []
            for element in pattern.elements:
                if isinstance(element, ir.PVar):
                    parts.append(target(element.name))
                elif isinstance(element, ir.PWildcard):
                    parts.append("_")
                else:
                    parts.append(self.fresh("t"))
                    nested.append((element, parts[-1]))
            if parts:
                self.emit(f"{', '.join(parts)}, = {expression}")
            for element, part in nested:
                self.bind(element, part, target)
        else:
            raise ExecutionError(f"unknown pattern {pattern!r}")

    # -- terms -----------------------------------------------------------------

    def variable(self, name: str) -> str:
        if name in self.row:
            return self.row[name]
        if name not in self.scalars:
            self.scalars[name] = self.fresh("s", name)
        return self.scalars[name]

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
            return _tuple_of(map(self.expr, term.elements))
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
            if term.op in _COMPARISONS:
                left, right = self.typed(term.left, left, right), self.typed(term.right, right, left)
            if term.op in _INLINE_BINOPS:
                return f"({left} {term.op} {right})"
            if term.op == "/":
                return self.divide(term, left, right)
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
                    raise CompilationError(f"_update_field takes 3 arguments: {term}")
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
            return f"aggregate({term.op!r}, {self.expr(operand)}, monoids)"
        if isinstance(term, ir.InRange):
            operands = (term.value, term.lower, term.upper)
            parts = [self.expr(part) for part in operands]
            if not all(isinstance(part, (ir.CConst, ir.CVar)) for part in operands):
                return f"in_range({', '.join(parts)})"
            # A driver scalar may be unassigned: each is read first, in
            # argument order, as the call would, then the chain (which may
            # skip its upper bound) compares.
            reads = [
                f"{part} is {part} and "
                for arg, part in zip(operands, parts, strict=True)
                if isinstance(arg, ir.CVar) and arg.name not in self.row and part not in self.resolved
            ]
            return f"({''.join(reads)}{parts[1]} <= {parts[0]} <= {parts[2]})"
        if isinstance(term, ir.RangeTerm):
            return f"list({self.range(term)})"
        if isinstance(term, ir.Comprehension):
            return self.comprehension(term)
        if isinstance(term, ir.EmptyBag):
            return "[]"
        raise CompilationError(f"cannot evaluate term {term} locally")

    def typed(self, term: ir.Term, text: str, other: str) -> str:
        """A comparison operand: ``text``, or for an int literal compared
        with an entry local ``other``, the local typed like the data (see
        :class:`Segment`)."""
        sniff = self.sniffs.get(other)
        value = term.value if isinstance(term, ir.CConst) else None
        if sniff is None or type(value) is not int or abs(value) >= 2**53:
            return text
        return self.literals.setdefault((sniff, value), f"k{len(self.literals)}")

    def divide(self, term: ir.CBinOp, left: str, right: str) -> str:
        """``/``, exactly :func:`divide`: plain ``/`` when an operand is a
        float constant, a per-call float check when both are locals (each
        is read more than once), the call otherwise."""
        if any(isinstance(part, ir.CConst) and type(part.value) is float for part in (term.left, term.right)):
            return f"({left} / {right})"
        if left.isidentifier() and right.isidentifier():
            floats = f"type({left}) is float or type({right}) is float"
            return f"({left} / {right} if {floats} else divide({left}, {right}))"
        return f"divide({left}, {right})"

    def range(self, term: ir.RangeTerm) -> str:
        return f"range(int({self.expr(term.lower)}), int({self.expr(term.upper)}) + 1)"

    def comprehension(self, term: ir.Comprehension) -> str:
        """A nested comprehension: ``[head]`` for a singleton, otherwise a
        call of a helper function (see :class:`Segment`)."""
        if not term.qualifiers:
            return f"[{self.expr(term.head)}]"
        if any(isinstance(qualifier, ir.GroupBy) for qualifier in term.qualifiers):
            raise CompilationError(f"group-by inside a locally evaluated comprehension: {term}")
        outer = {name: self.row[name] for name in sorted(ir.free_variables(term)) if name in self.row}
        saved = self.row, self.lines, self.depth, self.reduced, self.opened, self.unpacked
        self.row, self.lines, self.depth, self.opened, self.unpacked = dict(outer), [], 1, {}, None
        bound: dict[str, str] = {}  # variable -> its local, in row-tuple order

        def each_row() -> None:
            self.open(f"for {', '.join(bound.values()) + ',' if bound else '_'} in rows:")

        def row() -> str:
            return f"({', '.join(bound.values())},)" if bound else "()"

        self.emit("rows = [()]")
        for qualifier in term.qualifiers:
            self.emit("kept = []")
            each_row()
            if isinstance(qualifier, ir.Condition):
                self.open(f"if {self.expr(qualifier.term)}:")
            else:
                if isinstance(qualifier, ir.Generator):
                    domain, value = qualifier.domain, self.fresh("e")
                    if isinstance(domain, ir.RangeTerm):
                        self.open(f"for {value} in {self.range(domain)}:")
                    else:
                        self.open(f"for {value} in local_bag({self.expr(domain)}):")
                else:
                    value = self.expr(qualifier.term)
                for name in qualifier.pattern.variables():
                    bound.setdefault(name, self.fresh("r", name))
                self.bind(qualifier.pattern, value, bound.__getitem__)
                self.row.update((name, bound[name]) for name in qualifier.pattern.variables())
                if self.reduced in bound:
                    self.reduced = None
            self.emit(f"kept.append({row()})")
            self.depth = 1
            self.emit("rows = kept")
        self.emit("result = []")
        each_row()
        self.emit(f"result.append({self.expr(term.head)})")
        self.depth = 1
        self.emit("return result")
        helper, parameters = self.fresh("n"), ", ".join(dict.fromkeys(outer.values()))
        self.helpers += [f"def {helper}({parameters}):", *self.lines]
        self.row, self.lines, self.depth, self.reduced, self.opened, self.unpacked = saved
        return f"{helper}({parameters})"

    def project(self, term: ir.CProject) -> str:
        """``project_value`` with an exact-type fast path for tuples and dicts;
        in a row-shape fast branch, the local its position was unpacked into."""
        if self.unpacked and term.base == ir.CVar(self.unpacked[0]) and term.attribute in self.unpacked[1]:
            return self.unpacked[1][term.attribute]
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

    def slots(self, names: tuple[str, ...], depth: int | None = None) -> str:
        """A target unpacking slot rows of ``names``, bound at ``depth``
        (default: the loop about to open, one level deeper)."""
        outer, self.depth = self.depth, self.depth + 1 if depth is None else depth
        targets = [self.target(name) for name in names]
        self.depth = outer
        return f"({', '.join(targets)},)" if targets else "_"

    def entry(self) -> None:
        """Emit the record loop and unpacking."""
        kind = self.segment.entry[0]
        if kind == "cogroup":
            # Pair order is the join's: each left slot row, then each right one.
            self.open("for _, lefts, rights in records:")
            self.open(f"for {self.slots(self.segment.entry[1])} in lefts:")
            self.open(f"for {self.slots(self.segment.entry[2])} in rights:")
        elif kind == "probe":
            # A broadcast join's probe record, then each of its matches, or
            # its one match: a unique table maps a key to its slot row.
            side, unique, left_names, right_names = self.segment.entry[1:]
            probe, matches = ("right", "lefts") if side == "left" else ("left", "rights")
            names = dict(left=left_names, right=right_names)
            self.open(f"for key, {self.slots(names[probe])} in records:")
            # A run of equal keys is looked up once (a NaN key every time).
            self.emit("if key != last:")
            self.emit("    last = key")
            if unique:
                self.emit(f"    {matches} = match(key, MISSING)")
                self.emit(f"if {matches} is MISSING:")
                self.emit("    continue")
                # The match's slots bind in the probe record's loop.
                self.emit(f"{self.slots(names[side], self.depth)} = {matches}")
            else:
                self.emit(f"    {matches} = match(key)")
                self.emit(f"if not {matches}:")
                self.emit("    continue")
                self.open(f"for {self.slots(names[side])} in {matches}:")
        elif kind == "product":
            # The left slot row, then the right element: the product's pair order.
            _, left_names, pattern, rows = self.segment.entry
            if rows is None:
                self.open(f"for {self.slots(left_names)}, element in records:")
            elif set(pattern.variables()).isdisjoint(left_names):
                # Each element is checked, and tested by the leading filters
                # that read no left slot, once -- not once per left row; an
                # empty ``rows`` checks nothing, as the nested form does.
                bag = self.variable(rows)
                self.open(f"for element in records if {bag} else ():")
                self.bind(pattern, "element")
                steps = self.segment.steps
                while (
                    self.hoisted < len(steps)
                    and steps[self.hoisted][0] == "filter"
                    and ir.free_variables(steps[self.hoisted][1]).isdisjoint(left_names)
                ):
                    self.filter(steps[self.hoisted][1])
                    self.hoisted += 1
                self.open(f"for {self.slots(left_names)} in {bag}:")
                return
            else:
                self.open("for element in records:")
                self.open(f"for {self.slots(left_names)} in {self.variable(rows)}:")
            self.bind(pattern, "element")
        elif kind == "positional":
            self.positional(self.segment.entry[1])
        elif kind == "slots":
            self.open(f"for {self.slots(self.segment.entry[1])} in records:")
        elif kind == "bind":
            self.open("for rec in records:")
            self.bind(self.segment.entry[1], "rec")
            self.sniff(self.segment.entry[1], "records[0]")
        else:
            _, pattern, extra = self.segment.entry
            self.open("for rec in records:")
            self.emit("key, value = rec")
            self.bind(pattern, "key")
            if kind == "reduced":
                self.emit(f"{self.target('__aggregate_' + extra)} = value")
                self.emit(f"{self.target(extra)} = PreAggregated(value)")
                self.reduced = extra
            else:
                for position, name in enumerate(extra):
                    if name in self.reads:
                        self.emit(f"{self.target(name)} = [member[{position}] for member in value]")

    def positional(self, pattern: ir.PTuple) -> None:
        """The loop of a ``positional`` entry: the element is ``rec`` (kept
        intact, see :meth:`target`), the position a counter."""
        position, element = pattern.elements
        self.counted = isinstance(position, ir.PVar) and position.name in self.reads
        if self.counted:
            index = self.fresh("r", position.name)
            self.variable(OFFSETS)
            self.open(f"for {index}, rec in enumerate(records, start):")
            self.row[position.name], self.depths[position.name] = index, self.depth
        else:
            self.open("for rec in records:")
        if isinstance(element, ir.PVar):
            self.row[element.name], self.depths[element.name] = "rec", self.depth
        elif isinstance(element, ir.PTuple):
            self.bind(element, "rec")
        self.sniff(element, "records[0]")

    def sniff(self, pattern: ir.Pattern, path: str, guards: tuple[str, ...] = ()) -> None:
        """Note the float test of each entry local ``pattern`` bound from
        ``path`` in ``records[0]``, behind the pattern's own shape tests."""
        if isinstance(pattern, ir.PVar):
            self.sniffs[self.row[pattern.name]] = " and ".join((*guards, f"type({path}) is float"))
        elif isinstance(pattern, ir.PTuple):
            guard = f"type({path}) is tuple and len({path}) == {len(pattern.elements)}"
            for position, element in enumerate(pattern.elements):
                self.sniff(element, f"{path}[{position}]", (*guards, guard))

    def payload(self, payload: Any) -> str:
        if payload[0] == "values":
            return _tuple_of(self.row[name] for name in payload[1])
        return self.row.get(payload[1], "None")

    def leave(self) -> tuple[list[str], list[str], str]:
        """Emit the exit.  Returns the statements before and after the
        empty-partition check, and the expression the function returns."""
        exit_ = self.segment.exit
        kind = exit_[0]
        if kind == "fold":
            term, op, inline = exit_[1:]
            if not isinstance(op, tuple):
                setup, fetch = self.accumulate("acc", "combine", op, inline, self.expr(term))
                return setup, fetch, "[acc]"
            # Every component's term before any combine, as the head tuple was.
            values = []
            for element in term.elements:
                value = self.expr(element)
                inert = isinstance(element, ir.CConst) or (
                    isinstance(element, ir.CVar) and element.name in self.row
                )
                if not inert:
                    holder = self.fresh("t")
                    self.emit(f"{holder} = {value}")
                    value = holder
                values.append(value)
            setup, fetch = [], []
            for position, part in enumerate(zip(op, inline, values, strict=True)):
                lines = self.accumulate(f"acc{position}", f"combine{position}", *part)
                setup += lines[0]
                fetch += lines[1]
            return setup, fetch, "[(" + "".join(f"acc{position}, " for position in range(len(op))) + ")]"
        if kind == "fold_by_key":
            return self.fold_by_key(exit_[1], self.payload(exit_[2]), *exit_[-2:])
        if kind == "head":
            item = self.expr(exit_[1])
        else:
            item = f"({self.expr(exit_[1])}, {self.payload(exit_[2])})"
        self.emit(f"append({item})")
        return ["out = []"], ["append = out.append"], "out"

    def fold_by_key(
        self, term: ir.Term, value: str, op: str, inline: bool
    ) -> tuple[list[str], list[str], str]:
        """The ``fold_by_key`` exit (see :class:`Segment`): flat, or
        factorised over the loops that fix part of the key."""
        combine = _INLINE_COMBINES[op][1] if inline else "combine({}, {})"
        fetch = [] if inline else [f"combine = monoids.get({op!r}).combine"]
        setup, result = ["acc = {}", "consumed = 0"], "FoldedRecords(acc.items(), consumed)"
        parts, key = self.key_parts(term)
        depths = dict(parts)
        outer = [local for local, _ in parts if depths[local] < self.depth]
        inner = [local for local, _ in parts if depths[local] == self.depth]
        # A tuple hashes its parts in order: factorise only a key whose outer
        # parts lead, so that its first unhashable part still raises first.
        if not outer or [local for local, _ in parts[: len(outer)]] != outer:
            self.emit(f"fold_key = {self.expr(term)}")
            self.emit("held = get(fold_key, MISSING)")
            self.emit(f"acc[fold_key] = {value} if held is MISSING else {combine.format('held', value)}")
            self.emit("consumed += 1")
            return setup, [*fetch, "get = acc.get"], result
        # Reset once per pass of the loop that binds the key's last outer part.
        shallow = max(depths[local] for local in outer)
        at = self.opened[shallow + 1]
        self.lines.insert(at, "    " * shallow + ("folding = False" if not inner else "row = None"))
        self.inert = [(line + (line >= at), local) for line, local in self.inert]
        if not inner:
            # The whole key is fixed across the inner loops: fold into a local.
            self.emit("if not folding:")
            self.emit("    folding = True")
            self.emit(f"    fold_key = {key}")
            self.emit("    held = get(fold_key, MISSING)")
            self.emit(f"held = {value} if held is MISSING else {combine.format('held', value)}")
            self.emit("consumed += 1")
            self.lines += ["    " * shallow + "if folding:", "    " * shallow + "    acc[fold_key] = held"]
            return setup, [*fetch, "get = acc.get"], result
        # One row per outer part, fetched at its first product, keyed on the inner part.
        head = outer[0] if len(outer) == 1 else _tuple_of(outer)
        tail = inner[0] if len(inner) == 1 else _tuple_of(inner)
        self.emit("if row is None:")
        self.emit(f"    row = rows_get({head})")
        self.emit("    if row is None:")
        self.emit(f"        row = rows[{head}] = {{}}")
        self.emit("    rget = row.get")
        self.emit(f"held = rget({tail}, MISSING)")
        self.emit("if held is MISSING:")
        self.emit(f"    row[{tail}] = {value}")
        self.emit(f"    push(({key}, row, {tail}))")
        self.emit("else:")
        self.emit(f"    row[{tail}] = {combine.format('held', value)}")
        self.emit("consumed += 1")
        return (
            ["rows = {}", "order = []", "consumed = 0"],
            [*fetch, "rows_get = rows.get", "push = order.append"],
            "FoldedRecords([(k, row[s]) for k, row, s in order], consumed)",
        )

    def key_parts(self, term: ir.Term) -> tuple[tuple[tuple[str, int], ...], str]:
        """The ``(local, depth)`` of each part of a fold key made of row
        variables -- one, a tuple of them, or a let of such a tuple -- and
        the key spelled over those locals; no parts for any other key."""
        if isinstance(term, ir.CVar) and term.name in self.row:
            local = self.row[term.name]
            parts = next((known[2] for known in self.computed.values() if known[0] == local and known[2]), ())
            if not parts:
                return ((local, self.depths.get(term.name, 0)),), local
        elif isinstance(term, ir.CTuple) and all(
            isinstance(element, ir.CVar) and element.name in self.row for element in term.elements
        ):
            parts = tuple((self.row[e.name], self.depths.get(e.name, 0)) for e in term.elements)
        else:
            return (), ""
        return parts, _tuple_of(local for local, _ in parts)

    def accumulate(
        self, acc: str, combine: str, op: str, inline: bool, value: str
    ) -> tuple[list[str], list[str]]:
        """Emit ``acc = acc ⊕ value``; returns the lines that set ``acc`` up
        and the ones that fetch ``combine``."""
        if inline and op in ("&&", "||") and not value.isidentifier():
            # The combine's argument is evaluated whatever the short-circuit does.
            holder = self.fresh("t")
            self.emit(f"{holder} = {value}")
            value = holder
        form = _INLINE_COMBINES[op][1] if inline else f"{combine}({{}}, {{}})"
        self.emit(f"{acc} = {form.format(acc, value)}")
        fetch = [] if inline else [f"{combine} = monoids.get({op!r}).combine"]
        return [f"{acc} = monoids.get({op!r}).identity()"], fetch

    def expand(self, pattern: ir.Pattern, source: ir.Term) -> None:
        """Open the inner loop of an ``expand`` step (see :class:`Segment`)."""
        element = self.fresh("e")
        if isinstance(source, ir.RangeTerm):
            bag = self.range(source)
        elif isinstance(source, ir.CVar) and source.name not in self.row:
            bag = self.variable(source.name)
        else:
            bag = self.fresh("b")
            self.emit(f"{bag} = local_bag({self.expr(source)})")
            if isinstance(pattern, ir.PTuple):
                self.open(f"for {element} in {bag}:")  # bind it whole first
                self.bind(pattern, element)
                self.depth -= 1
        if isinstance(pattern, ir.PVar):
            self.depth += 1  # the variable is bound by the loop about to open
            local = self.target(pattern.name)
            self.depth -= 1
            self.open(f"for {local} in {bag}:")
        else:
            self.open(f"for {element} in {bag}:")
            self.bind(pattern, element)

    def let(self, pattern: ir.Pattern, term: ir.Term) -> None:
        """Emit a ``let`` step, aliasing what was computed before (see
        :class:`Segment`).  The alias is in scope: loop depth only grows."""
        if isinstance(pattern, ir.PTuple) and self.alias(pattern, term):
            return
        if not (isinstance(pattern, ir.PVar) and _pure(term)):
            self.bind(pattern, self.expr(term))
            return
        text, name = self.expr(term), pattern.name
        known = self.computed.get(text)
        if known is None and self.unpacked and text in self.unpacked[1].values():
            # A fast branch's projection: alias the unpacked local, at this depth.
            known = self.computed[text] = (text, self.depth, ())
        if known is None:
            parts = ()
            if isinstance(term, ir.CTuple) and all(
                isinstance(element, ir.CVar) and element.name in self.row for element in term.elements
            ):
                parts = tuple((self.row[e.name], self.depths.get(e.name, 0)) for e in term.elements)
            local = self.target(name)
            if parts:
                self.inert.append((len(self.lines), local))
            self.emit(f"{local} = {text}")
            if not _mentions(text, local):
                self.computed[text] = (local, self.depth, parts)
            return
        self.row[name], self.depths[name] = known[:2]
        self.reduced = None if name == self.reduced else self.reduced

    def alias(self, pattern: ir.PTuple, term: ir.Term) -> bool:
        """Bind a flat tuple ``pattern`` over a variable holding a tuple of
        row locals of its arity to those locals; False for any other let."""
        held = self.row.get(term.name) if isinstance(term, ir.CVar) else None
        parts = next((known[2] for known in self.computed.values() if known[0] == held), ())
        flat = all(isinstance(element, (ir.PVar, ir.PWildcard)) for element in pattern.elements)
        if not parts or len(parts) != len(pattern.elements) or not flat:
            return False
        for element, known in zip(pattern.elements, parts, strict=True):
            if isinstance(element, ir.PVar):
                self.row[element.name], self.depths[element.name] = known
                self.reduced = None if element.name == self.reduced else self.reduced
        return True

    def filter(self, term: ir.Term) -> None:
        """Emit a filter step, unless a pure filter tested it, its scalar
        reads aside (see :class:`Segment`)."""
        test = f"if not {self.expr(term)}:"
        if (key := re.sub(r"(\w+) is \1 and ", "", test)) in self.computed:
            return
        self.emit(test)
        self.emit("    continue")
        if _pure(term):
            self.computed[key] = ("", self.depth, ())
        if isinstance(term, ir.InRange):
            names = {arg.name for arg in term.children() if isinstance(arg, ir.CVar)}
            self.resolved.update(self.scalars[name] for name in names - self.row.keys())

    def fuses(self, at: int) -> bool:
        """Whether step ``at`` is a let only the filter right after it reads."""
        steps = self.segment.steps
        step, after = steps[at], steps[at + 1] if at + 1 < len(steps) else None
        return (
            step[0] == "let"
            and isinstance(step[1], ir.PVar)
            and after == ("filter", ir.CVar(step[1].name))
            and step[1].name not in live(steps[at + 2 :], self.segment.exit)
        )

    def body(self) -> tuple[list[str], list[str], str]:
        """Emit the steps and the exit (see :meth:`leave`)."""
        for at, step in enumerate(self.segment.steps):
            if at < self.hoisted or (at and self.fuses(at - 1)):
                continue  # the entry's, or tested by the let before it
            if self.fuses(at):
                self.filter(step[2])
            elif step[0] == "let":
                self.let(step[1], step[2])
            elif step[0] == "expand":
                self.expand(step[1], step[2])
            else:
                self.filter(step[1])
        return self.leave()

    def shape(self) -> tuple[str, set[str]] | None:
        """The variable a row-shape fast branch unpacks and the positions
        (``_k``) it is projected at: the first one the entry binds whole
        that no step rebinds and that is projected at two positions or
        more."""
        if self.segment.entry[0] not in ("bind", "positional"):
            return None
        steps, exit_ = self.segment.steps, self.segment.exit
        rebound = {name for step in steps if step[0] != "filter" for name in step[1].variables()}
        found: dict[str, set[str]] = {}
        for term in [step[-1] for step in steps] + [exit_[1]]:
            for part in ir.walk_terms(term):
                if (
                    isinstance(part, ir.CProject)
                    and isinstance(part.base, ir.CVar)
                    and re.fullmatch(r"_[1-9][0-9]*", part.attribute)
                ):
                    found.setdefault(part.base.name, set()).add(part.attribute)
        for name in self.segment.entry[1].variables():
            if name not in rebound and len(found.get(name, ())) >= 2:
                return name, found[name]
        return None

    def branches(self, name: str, positions: set[str]) -> tuple[list[str], list[str], str]:
        """Emit the body twice under one test of ``name``'s shape: a fast
        branch that unpacks the tuple once, its projections reading the
        unpacked locals, and the one-branch body as the ``else``.  Each
        starts from the state the entry left: no let or filter one branch
        computed is reused by the other."""
        element, width, depth = self.row[name], max(int(position[1:]) for position in positions), self.depth
        saved = dict(self.row), dict(self.depths), dict(self.computed), set(self.resolved), self.reduced
        sniffs = dict(self.sniffs)
        start = len(self.lines)
        # The fallback first, so that its locals are the one-branch body's.
        exit_ = self.body()
        fallback, self.lines = self.lines[start:], self.lines[:start]
        moved = [(line - start, local) for line, local in self.inert if line >= start]
        self.inert = [(line, local) for line, local in self.inert if line < start]
        self.row, self.depths, self.computed, self.resolved, self.reduced = saved
        self.sniffs = sniffs
        self.depth = depth
        unpacked = {attribute: f"{element}{attribute}" for attribute in positions}
        self.emit(f"if type({element}) is tuple and len({element}) == {width}:")
        self.emit(f"{', '.join(unpacked.get(f'_{k}', '_') for k in range(1, width + 1))} = {element}")
        self.unpacked = name, unpacked
        fast = self.body()
        self.unpacked = None
        if fast == exit_:
            self.lines[start + 1 :] = ["    " + line for line in self.lines[start + 1 :]]
            self.lines.append("    " * depth + "else:")
            fallback = ["    " + line for line in fallback]
        else:
            # An alias bound at another depth changed how the key folds: one branch.
            del self.lines[start:]
            self.inert = [(line, local) for line, local in self.inert if line < start]
        self.inert += [(line + len(self.lines), local) for line, local in moved]
        self.lines += fallback
        return exit_

    def source(self) -> str:
        self.entry()
        shape = self.shape()
        setup, fetch, result = self.branches(*shape) if shape else self.body()
        for line, local in reversed(self.inert):
            if not any(_mentions(text, local) for text in self.lines[:line] + self.lines[line + 1 :]):
                del self.lines[line]
        probe = self.segment.entry[0] == "probe"

        lines = [
            "def __segment_factory__(scope, consts, functions, monoids):",
            f"    def segment(records{', index' if self.counted else ''}{', lookup' if probe else ''}):",
            *(f"        {line}" for line in setup),
            "        if not records:",
            f"            return {result}",
            *(f"        {line}" for line in fetch),
            *(["        match = lookup.get", "        last = MISSING"] if probe else []),
        ]
        for (sniff, c), local in self.literals.items():
            lines.append(f"        {local} = {float(c)!r} if {sniff} else {c!r}")
        for name, local in self.scalars.items():
            lines += [
                "        try:",
                f"            {local} = scope.resolve({name!r})",
                "        except ExecutionError:",
                "            pass",
            ]
        for name, local in self.functions.items():
            lines += [f"        if {name!r} in functions:", f"            {local} = functions[{name!r}]"]
        if self.counted:
            lines.append(f"        start = {self.scalars[OFFSETS]}[index]")
        lines += [f"        {line}" for line in self.helpers]
        loop = self.lines
        if self.scalars or self.functions:
            messages = {local: f"undefined variable {name!r}" for name, local in self.scalars.items()}
            messages.update((local, f"unknown function {name!r}") for name, local in self.functions.items())
            loop = [
                "try:",
                *(f"    {line}" for line in loop),
                # A helper reading an unassigned scalar raises NameError.
                "except NameError as error:",
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
    ``segment``, ``indexed`` (whether it takes the partition index too),
    and ``retarget(exit)`` -- the same entry and steps leaving through
    another exit, generated on demand under the same bindings and memo.  A
    ``fold_by_key`` function also offers ``unfolded()``, its ``keyed`` twin:
    the runtime's adaptive sampler needs the key stream as it was before
    the fold.  A ``positional`` function offers ``paired()``, its ``bind``
    twin over ``(position, element)`` pairs, for the sampler's strided
    sample whose positions are not those of the partition offsets.  A
    ``cogroup`` function offers ``probe(side, unique=False)``, its ``probe``
    twin, called as ``twin(records, lookup=table)`` by a broadcast join's
    probe task.
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
        exec(compile(source, "<generated segment>", "exec"), segments.__dict__, namespace)
        compiled = (
            namespace["__segment_factory__"],
            source,
            tuple(emitter.consts),
            tuple(emitter.scalars),
            tuple(emitter.functions),
            emitter.counted,
        )
        if hashable:
            memo[segment] = compiled
    factory, source, consts, scalars, called, indexed = compiled
    registry = bindings.functions
    function = factory(
        SegmentScope(bindings.base, bindings.values, scalars),
        consts,
        {name: registry.get(name) for name in called if name in registry},
        bindings.monoids,
    )
    function.source = source
    function.segment = segment
    function.indexed = indexed
    function.retarget = lambda exit_: generate(segment._replace(exit=exit_), bindings, memo)
    if segment.exit[0] == "fold_by_key":
        function.unfolded = functools.partial(function.retarget, ("keyed", *segment.exit[1:3]))
    if segment.entry[0] == "positional":
        paired = segment._replace(entry=("bind", segment.entry[1]))
        function.paired = lambda: generate(paired, bindings, memo)
    if segment.entry[0] == "cogroup":
        function.probe = lambda side, unique=False: generate(
            segment._replace(entry=("probe", side, unique, *segment.entry[1:])), bindings, memo
        )
    return function
