"""Abstract syntax tree of the loop-based language (Figure 1 of the paper).

The language distinguishes three syntactic categories:

* **Types** -- basic types (``int``, ``long``, ``double``, ``bool``,
  ``string``), parametric collection types (``vector[t]``, ``matrix[t]``,
  ``map[k, v]``, ``bag[t]``), tuple types and record types.
* **Expressions** -- destinations (L-values), binary/unary operations, tuple
  and record construction, function calls and constants.
* **Statements** -- incremental updates ``d ⊕= e``, plain assignments
  ``d := e``, variable declarations, the two parallelizable ``for`` loops
  (range iteration and collection traversal), sequential ``while`` loops,
  conditionals and statement blocks.

All nodes are immutable dataclasses so they can be hashed, compared
structurally and shared freely between compiler passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.errors import SourceLocation

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """Base class of loop-language types."""


@dataclass(frozen=True)
class BasicType(Type):
    """A scalar type such as ``int``, ``double``, ``bool`` or ``string``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ParametricType(Type):
    """A collection type, e.g. ``vector[double]`` or ``map[string, int]``."""

    constructor: str
    parameters: tuple[Type, ...]

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.parameters)
        return f"{self.constructor}[{params}]"


@dataclass(frozen=True)
class TupleType(Type):
    """A tuple type ``(t1, ..., tn)``."""

    elements: tuple[Type, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.elements) + ")"


@dataclass(frozen=True)
class RecordType(Type):
    """A record type ``<A1: t1, ..., An: tn>``."""

    fields: tuple[tuple[str, Type], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {typ}" for name, typ in self.fields)
        return f"<{inner}>"


INT = BasicType("int")
LONG = BasicType("long")
DOUBLE = BasicType("double")
BOOL = BasicType("bool")
STRING = BasicType("string")

#: Type constructors that denote arrays (indexed collections).  ``vector`` and
#: ``map`` take one index, ``matrix`` takes two.
ARRAY_CONSTRUCTORS = {"vector": 1, "matrix": 2, "map": 1, "array": 1}


def vector_of(element: Type) -> ParametricType:
    """Build the type ``vector[element]``."""
    return ParametricType("vector", (element,))


def matrix_of(element: Type) -> ParametricType:
    """Build the type ``matrix[element]``."""
    return ParametricType("matrix", (element,))


def map_of(key: Type, value: Type) -> ParametricType:
    """Build the type ``map[key, value]``."""
    return ParametricType("map", (key, value))


def bag_of(element: Type) -> ParametricType:
    """Build the type ``bag[element]`` (an unindexed collection)."""
    return ParametricType("bag", (element,))


def is_array_type(typ: Type) -> bool:
    """Return True when ``typ`` denotes an indexed (array-like) collection."""
    return isinstance(typ, ParametricType) and typ.constructor in ARRAY_CONSTRUCTORS


def is_collection_type(typ: Type) -> bool:
    """Return True when ``typ`` is any collection (arrays and bags)."""
    return isinstance(typ, ParametricType)


def array_rank(typ: Type) -> int:
    """Number of index dimensions of an array type (0 for non-arrays)."""
    if not is_array_type(typ):
        return 0
    assert isinstance(typ, ParametricType)
    return ARRAY_CONSTRUCTORS[typ.constructor]


# ---------------------------------------------------------------------------
# Expressions and destinations (L-values)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class of loop-language expressions."""

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (used by generic traversals)."""
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant: int, float, bool or string."""

    value: Union[int, float, bool, str]

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference.  Also a destination (L-value)."""

    name: str
    location: SourceLocation = field(default_factory=SourceLocation, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Project(Expr):
    """A record projection ``d.A``.  Also a destination (L-value)."""

    base: Expr
    attribute: str

    def children(self) -> tuple[Expr, ...]:
        return (self.base,)

    def __str__(self) -> str:
        return f"{self.base}.{self.attribute}"


@dataclass(frozen=True)
class Index(Expr):
    """An array indexing ``v[e1, ..., en]``.  Also a destination (L-value)."""

    array: Expr
    indices: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return (self.array,) + self.indices

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.indices)
        return f"{self.array}[{inner}]"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``e1 ⋆ e2`` for any operator ⋆."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation such as ``-e`` or ``!e``."""

    op: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class TupleExpr(Expr):
    """A tuple construction ``(e1, ..., en)``."""

    elements: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.elements

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


@dataclass(frozen=True)
class RecordExpr(Expr):
    """A record construction ``<A1 = e1, ..., An = en>``."""

    fields: tuple[tuple[str, Expr], ...]

    def children(self) -> tuple[Expr, ...]:
        return tuple(e for _, e in self.fields)

    def __str__(self) -> str:
        inner = ", ".join(f"{name} = {e}" for name, e in self.fields)
        return f"<{inner}>"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a registered scalar function, e.g. ``sqrt(x)``.

    The loop language has no user-defined functions of its own; calls refer to
    functions registered with the compiler/interpreter (math functions, record
    constructors such as ``ArgMin`` in the KMeans program, distance functions,
    and so on).
    """

    function: str
    arguments: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.arguments

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.arguments)
        return f"{self.function}({inner})"


#: The union of expression forms that may appear as an assignment destination.
Destination = (Var, Project, Index)


def is_destination(expr: Expr) -> bool:
    """Return True when ``expr`` is syntactically an L-value.

    An L-value is a variable, a record projection whose base is an L-value, or
    an array indexing whose array is an L-value (Figure 1).
    """
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Project):
        return is_destination(expr.base)
    if isinstance(expr, Index):
        return is_destination(expr.array)
    return False


def destination_root(dest: Expr) -> Var:
    """Return the root variable of an L-value (e.g. ``V`` for ``V[i].A``)."""
    node = dest
    while True:
        if isinstance(node, Var):
            return node
        if isinstance(node, Project):
            node = node.base
        elif isinstance(node, Index):
            node = node.array
        else:
            raise TypeError(f"not a destination: {dest!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class of loop-language statements.

    ``location`` carries the 1-based source position the statement came from
    (set by the parser and the Python frontend, default unknown); it is
    excluded from equality/hash so structural comparisons in rewrites and
    tests ignore provenance.
    """

    location: SourceLocation = field(
        default_factory=SourceLocation, compare=False, repr=False, kw_only=True
    )

    def substatements(self) -> tuple["Stmt", ...]:
        """Direct sub-statements (used by generic traversals)."""
        return ()


@dataclass(frozen=True)
class IncrementalUpdate(Stmt):
    """An incremental update ``d ⊕= e`` for a commutative operation ⊕.

    Equivalent to ``d := d ⊕ e``, but recognized specially by the translator:
    it becomes a group-by over the destination index followed by a ⊕-reduction
    (Section 3.7).
    """

    destination: Expr
    op: str
    value: Expr

    def __str__(self) -> str:
        return f"{self.destination} {self.op}= {self.value};"


@dataclass(frozen=True)
class Assign(Stmt):
    """A plain (non-incremental) assignment ``d := e``."""

    destination: Expr
    value: Expr

    def __str__(self) -> str:
        return f"{self.destination} := {self.value};"


@dataclass(frozen=True)
class VarDecl(Stmt):
    """A variable declaration ``var v: t = e``.

    Declarations cannot appear inside for-loops (Section 3.1).
    """

    name: str
    type: Type
    init: Expr

    def __str__(self) -> str:
        return f"var {self.name}: {self.type} = {self.init};"


@dataclass(frozen=True)
class ForRange(Stmt):
    """A range iteration ``for v = e1, e2 do s`` (bounds are inclusive)."""

    variable: str
    lower: Expr
    upper: Expr
    body: Stmt

    def substatements(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def __str__(self) -> str:
        return f"for {self.variable} = {self.lower}, {self.upper} do {self.body}"


@dataclass(frozen=True)
class ForIn(Stmt):
    """A collection traversal ``for v in e do s``."""

    variable: str
    source: Expr
    body: Stmt

    def substatements(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def __str__(self) -> str:
        return f"for {self.variable} in {self.source} do {self.body}"


@dataclass(frozen=True)
class While(Stmt):
    """A sequential loop ``while (e) s``; never parallelized (Section 3.1)."""

    condition: Expr
    body: Stmt

    def substatements(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def __str__(self) -> str:
        return f"while ({self.condition}) {self.body}"


@dataclass(frozen=True)
class If(Stmt):
    """A conditional ``if (e) s1 [else s2]``."""

    condition: Expr
    then_branch: Stmt
    else_branch: Stmt | None = None

    def substatements(self) -> tuple[Stmt, ...]:
        if self.else_branch is None:
            return (self.then_branch,)
        return (self.then_branch, self.else_branch)

    def __str__(self) -> str:
        text = f"if ({self.condition}) {self.then_branch}"
        if self.else_branch is not None:
            text += f" else {self.else_branch}"
        return text


@dataclass(frozen=True)
class Block(Stmt):
    """A statement block ``{ s1; ...; sn }``."""

    statements: tuple[Stmt, ...]

    def substatements(self) -> tuple[Stmt, ...]:
        return self.statements

    def __str__(self) -> str:
        return "{ " + " ".join(str(s) for s in self.statements) + " }"


@dataclass(frozen=True)
class Program:
    """A complete loop-language program: a sequence of top-level statements."""

    statements: tuple[Stmt, ...]

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.statements)


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------


def walk_expressions(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk_expressions(child)


def walk_statements(stmt: Stmt) -> Iterator[Stmt]:
    """Yield ``stmt`` and every sub-statement, pre-order."""
    yield stmt
    for child in stmt.substatements():
        yield from walk_statements(child)


def statement_expressions(stmt: Stmt) -> Iterator[Expr]:
    """Yield the expressions directly contained in ``stmt`` (not recursive
    into sub-statements)."""
    if isinstance(stmt, IncrementalUpdate):
        yield stmt.destination
        yield stmt.value
    elif isinstance(stmt, Assign):
        yield stmt.destination
        yield stmt.value
    elif isinstance(stmt, VarDecl):
        yield stmt.init
    elif isinstance(stmt, ForRange):
        yield stmt.lower
        yield stmt.upper
    elif isinstance(stmt, ForIn):
        yield stmt.source
    elif isinstance(stmt, While):
        yield stmt.condition
    elif isinstance(stmt, If):
        yield stmt.condition


def free_variables(expr: Expr) -> set[str]:
    """The set of variable names referenced anywhere inside ``expr``."""
    names: set[str] = set()
    for node in walk_expressions(expr):
        if isinstance(node, Var):
            names.add(node.name)
    return names


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace every free variable named in ``mapping`` by its expression.

    The loop language has no variable binders inside expressions, so this is a
    plain structural substitution.
    """
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Project):
        return Project(substitute(expr.base, mapping), expr.attribute)
    if isinstance(expr, Index):
        return Index(
            substitute(expr.array, mapping),
            tuple(substitute(i, mapping) for i in expr.indices),
        )
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, TupleExpr):
        return TupleExpr(tuple(substitute(e, mapping) for e in expr.elements))
    if isinstance(expr, RecordExpr):
        return RecordExpr(tuple((n, substitute(e, mapping)) for n, e in expr.fields))
    if isinstance(expr, Call):
        return Call(expr.function, tuple(substitute(a, mapping) for a in expr.arguments))
    raise TypeError(f"unknown expression node: {expr!r}")


def rename_loop_variable(stmt: Stmt, old: str, new: str) -> Stmt:
    """Rename a loop index variable ``old`` to ``new`` inside ``stmt``.

    Used to guarantee that every for-loop has a distinct loop index variable
    (Section 3.2 requires this before dependence analysis).
    """
    mapping = {old: Var(new)}

    def rename_expr(e: Expr) -> Expr:
        return substitute(e, mapping)

    loc = stmt.location
    if isinstance(stmt, IncrementalUpdate):
        return IncrementalUpdate(
            rename_expr(stmt.destination), stmt.op, rename_expr(stmt.value), location=loc
        )
    if isinstance(stmt, Assign):
        return Assign(rename_expr(stmt.destination), rename_expr(stmt.value), location=loc)
    if isinstance(stmt, VarDecl):
        return VarDecl(stmt.name, stmt.type, rename_expr(stmt.init), location=loc)
    if isinstance(stmt, ForRange):
        if stmt.variable == old:
            # The inner loop rebinds the name; do not rename inside.
            return ForRange(
                stmt.variable, rename_expr(stmt.lower), rename_expr(stmt.upper), stmt.body, location=loc
            )
        return ForRange(
            stmt.variable,
            rename_expr(stmt.lower),
            rename_expr(stmt.upper),
            rename_loop_variable(stmt.body, old, new),
            location=loc,
        )
    if isinstance(stmt, ForIn):
        if stmt.variable == old:
            return ForIn(stmt.variable, rename_expr(stmt.source), stmt.body, location=loc)
        return ForIn(
            stmt.variable, rename_expr(stmt.source), rename_loop_variable(stmt.body, old, new), location=loc
        )
    if isinstance(stmt, While):
        return While(rename_expr(stmt.condition), rename_loop_variable(stmt.body, old, new), location=loc)
    if isinstance(stmt, If):
        else_branch = None
        if stmt.else_branch is not None:
            else_branch = rename_loop_variable(stmt.else_branch, old, new)
        return If(
            rename_expr(stmt.condition),
            rename_loop_variable(stmt.then_branch, old, new),
            else_branch,
            location=loc,
        )
    if isinstance(stmt, Block):
        return Block(tuple(rename_loop_variable(s, old, new) for s in stmt.statements), location=loc)
    raise TypeError(f"unknown statement node: {stmt!r}")


def declared_variables(program: Program) -> dict[str, Type]:
    """Collect ``var`` declarations appearing anywhere in ``program``."""
    declared: dict[str, Type] = {}
    for stmt in program.statements:
        for node in walk_statements(stmt):
            if isinstance(node, VarDecl):
                declared[node.name] = node.type
    return declared


def loop_index_variables(stmt: Stmt) -> set[str]:
    """All loop index variables bound by for-loops inside ``stmt``."""
    names: set[str] = set()
    for node in walk_statements(stmt):
        if isinstance(node, (ForRange, ForIn)):
            names.add(node.variable)
    return names
