"""Readers, writers and aggregators of loop-language statements (Section 3.2).

For any statement ``s`` the paper defines three sets of L-values
(destinations):

* the **aggregators** ``A[s]`` -- L-values incremented in ``s`` (``d ⊕= e``);
* the **writers** ``W[s]`` -- L-values written (but not incremented) in ``s``;
* the **readers** ``R[s]`` -- L-values read in ``s``.

For example, for ``V[W[i]] += n * C[i] * C[i+1]`` (with ``i`` a loop index):
``A = {V[W[i]]}``, ``R = {W[i], n, C[i], C[i+1]}``, ``W = ∅``.

Readers are the *maximal* L-value sub-expressions: ``C[i]`` is one reader, its
parts ``C`` and ``i`` are not counted separately, and loop index variables are
never readers on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.loop_lang import ast


@dataclass
class StatementAccess:
    """The access sets of one atomic statement, together with its position.

    Attributes:
        statement: the atomic statement (assignment, incremental update or
            declaration).
        context: the loop index variables of all enclosing for-loops.
        order: textual order of the statement within the analyzed region
            (used for the "s1 precedes s2" tests of Definition 3.1).
        readers / writers / aggregators: the three L-value sets.
    """

    statement: ast.Stmt
    context: frozenset[str]
    order: int
    readers: list[ast.Expr] = field(default_factory=list)
    writers: list[ast.Expr] = field(default_factory=list)
    aggregators: list[ast.Expr] = field(default_factory=list)


def readers(stmt: ast.Stmt, loop_indexes: frozenset[str] = frozenset()) -> list[ast.Expr]:
    """The L-values read by an atomic statement."""
    collected: list[ast.Expr] = []
    if isinstance(stmt, (ast.Assign, ast.IncrementalUpdate)):
        collected.extend(_lvalues_read(stmt.value, loop_indexes))
        # Reading the destination's indexes also reads the L-values inside them.
        collected.extend(_lvalues_in_destination_indexes(stmt.destination, loop_indexes))
    elif isinstance(stmt, ast.VarDecl):
        collected.extend(_lvalues_read(stmt.init, loop_indexes))
    return collected


def writers(stmt: ast.Stmt, loop_indexes: frozenset[str] = frozenset()) -> list[ast.Expr]:
    """The L-values written (not incremented) by an atomic statement."""
    if isinstance(stmt, ast.Assign):
        return [stmt.destination]
    if isinstance(stmt, ast.VarDecl):
        return [ast.Var(stmt.name)]
    return []


def aggregators(stmt: ast.Stmt, loop_indexes: frozenset[str] = frozenset()) -> list[ast.Expr]:
    """The L-values incremented by an atomic statement."""
    if isinstance(stmt, ast.IncrementalUpdate):
        return [stmt.destination]
    return []


def _lvalues_read(expr: ast.Expr, loop_indexes: frozenset[str]) -> list[ast.Expr]:
    """Maximal L-value sub-expressions of ``expr`` (excluding bare loop indexes)."""
    collected: list[ast.Expr] = []
    _collect_lvalues(expr, loop_indexes, collected)
    return collected


def _collect_lvalues(expr: ast.Expr, loop_indexes: frozenset[str], out: list[ast.Expr]) -> None:
    if isinstance(expr, ast.Var):
        if expr.name not in loop_indexes:
            out.append(expr)
        return
    if isinstance(expr, (ast.Project, ast.Index)) and ast.is_destination(expr):
        out.append(expr)
        # The index expressions themselves may read further L-values
        # (e.g. W[i] inside V[W[i]]).
        if isinstance(expr, ast.Index):
            for index in expr.indices:
                _collect_lvalues(index, loop_indexes, out)
        return
    if isinstance(expr, ast.Const):
        return
    for child in expr.children():
        _collect_lvalues(child, loop_indexes, out)


def _lvalues_in_destination_indexes(dest: ast.Expr, loop_indexes: frozenset[str]) -> list[ast.Expr]:
    """L-values read while computing the indexes of a destination."""
    collected: list[ast.Expr] = []
    node = dest
    while True:
        if isinstance(node, ast.Index):
            for index in node.indices:
                _collect_lvalues(index, loop_indexes, collected)
            node = node.array
        elif isinstance(node, ast.Project):
            node = node.base
        else:
            break
    return collected


def lvalue_root_name(lvalue: ast.Expr) -> str:
    """The root variable name of an L-value (``V`` for ``V[i].A``)."""
    return ast.destination_root(lvalue).name


def lvalue_overlap(d1: ast.Expr, d2: ast.Expr) -> bool:
    """The ``overlap`` relation of Section 3.2.

    Two L-values overlap when they are the same variable, projections of
    overlapping L-values onto the same attribute, or array accesses over the
    same array name.
    """
    if isinstance(d1, ast.Var) and isinstance(d2, ast.Var):
        return d1.name == d2.name
    if isinstance(d1, ast.Project) and isinstance(d2, ast.Project):
        return d1.attribute == d2.attribute and lvalue_overlap(d1.base, d2.base)
    if isinstance(d1, ast.Index) and isinstance(d2, ast.Index):
        return lvalue_root_name(d1) == lvalue_root_name(d2)
    return False


def lvalue_indexes(lvalue: ast.Expr, loop_indexes: frozenset[str]) -> frozenset[str]:
    """``indexes(d)``: the loop index variables used anywhere inside ``d``."""
    used: set[str] = set()
    for node in ast.walk_expressions(lvalue):
        if isinstance(node, ast.Var) and node.name in loop_indexes:
            used.add(node.name)
    return frozenset(used)


def collect_accesses(stmt: ast.Stmt, loop_indexes: frozenset[str] = frozenset()) -> list[StatementAccess]:
    """Collect :class:`StatementAccess` records for every atomic statement in ``stmt``.

    ``loop_indexes`` must contain the loop index variables of the loops
    *enclosing* ``stmt`` (the traversal adds indexes of nested loops as it
    descends).  Statements are numbered in textual order.
    """
    accesses: list[StatementAccess] = []
    counter = [0]

    def visit(node: ast.Stmt, context: frozenset[str]) -> None:
        if isinstance(node, (ast.Assign, ast.IncrementalUpdate, ast.VarDecl)):
            access = StatementAccess(
                statement=node,
                context=context,
                order=counter[0],
                readers=readers(node, context),
                writers=writers(node, context),
                aggregators=aggregators(node, context),
            )
            counter[0] += 1
            accesses.append(access)
        elif isinstance(node, ast.ForRange) or isinstance(node, ast.ForIn):
            visit(node.body, context | {node.variable})
        elif isinstance(node, ast.While):
            visit(node.body, context)
        elif isinstance(node, ast.If):
            visit(node.then_branch, context)
            if node.else_branch is not None:
                visit(node.else_branch, context)
        elif isinstance(node, ast.Block):
            for inner in node.statements:
                visit(inner, context)
        else:
            raise TypeError(f"unknown statement node: {node!r}")

    visit(stmt, loop_indexes)
    return accesses
