"""Sequential reference interpreter for the loop-based language.

The interpreter defines the *ground truth* semantics of a loop program: the
translator of Figure 2 is meaning preserving exactly when the distributed
evaluation of the generated target code produces the same final variable
values as this interpreter (Theorem A.1).  The test suite uses it both as a
correctness oracle and as the "sequential" column of Table 2.

Runtime representation of loop-language values:

* scalars -- plain Python ``int`` / ``float`` / ``bool`` / ``str``;
* sparse vectors, matrices and key-value maps -- Python ``dict`` mapping the
  index (an ``int`` or a tuple of ``int``) to the stored value;
* bags -- Python ``list``;
* tuples -- Python ``tuple``; records -- Python ``dict`` keyed by field name
  (or any object exposing the fields as attributes).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.errors import InterpreterError
from repro.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from repro.loop_lang import ast

#: Safety valve for ``while`` loops so that buggy programs cannot hang tests.
MAX_WHILE_ITERATIONS = 10_000_000


class _Absent(Exception):
    """An absent array entry was read; the message names the read."""


class Interpreter:
    """Evaluates loop-language programs sequentially.

    An absent array entry reads as the translation reads it: as no row.  The
    ``Assign``, ``IncrementalUpdate`` or ``If`` instance whose right-hand
    side, index or condition reads it does not run (an ``If`` runs neither
    branch); ``d := d ⊕ e`` with ⊕ a registered monoid runs as ``d ⊕= e``,
    so an absent ``d`` is ⊕'s identity.  Anywhere else (a ``var``
    initialiser, a ``for`` bound, a ``while`` condition) an absent read is
    an :class:`InterpreterError` naming it.

    Args:
        functions: scalar function registry (defaults to the built-ins).
        monoids: commutative monoid registry (defaults to the built-ins).
        missing_default: ``"skip"`` (the default) for the semantics above;
            ``None`` makes every absent read an :class:`InterpreterError`.
    """

    def __init__(
        self,
        functions: FunctionRegistry | None = None,
        monoids: MonoidRegistry | None = None,
        missing_default: str | None = "skip",
    ):
        self.functions = functions or DEFAULT_FUNCTIONS
        self.monoids = monoids or DEFAULT_MONOIDS
        self.missing_default = missing_default

    # -- public API ----------------------------------------------------------

    def run(self, program: ast.Program, env: dict[str, Any] | None = None) -> dict[str, Any]:
        """Execute ``program`` over a copy of ``env`` and return the final state.

        Array-valued inputs are shallow-copied so callers can reuse them.
        """
        state: dict[str, Any] = {}
        for name, value in (env or {}).items():
            state[name] = dict(value) if isinstance(value, dict) else value
        self._execute_block(program.statements, state)
        return state

    # -- statements ----------------------------------------------------------

    def _execute_block(self, statements: Iterable[ast.Stmt], state: dict[str, Any]) -> None:
        for stmt in statements:
            self._execute(stmt, state)

    def _execute(self, stmt: ast.Stmt, state: dict[str, Any]) -> None:
        try:
            if isinstance(stmt, ast.VarDecl):
                state[stmt.name] = self._evaluate(stmt.init, state)
            elif isinstance(stmt, ast.Assign):
                value, destination = stmt.value, stmt.destination
                if isinstance(value, ast.BinOp) and value.op in self.monoids and value.left == destination:
                    update = ast.IncrementalUpdate(destination, value.op, value.right)
                    self._execute_incremental(update, state)
                else:
                    self._store(destination, self._evaluate(value, state), state)
            elif isinstance(stmt, ast.IncrementalUpdate):
                self._execute_incremental(stmt, state)
            elif isinstance(stmt, ast.ForRange):
                lower = self._int(self._evaluate(stmt.lower, state), "for-loop lower bound")
                upper = self._int(self._evaluate(stmt.upper, state), "for-loop upper bound")
                for value in range(lower, upper + 1):
                    state[stmt.variable] = value
                    self._execute(stmt.body, state)
            elif isinstance(stmt, ast.ForIn):
                collection = self._evaluate(stmt.source, state)
                for element in self._iterate(collection):
                    state[stmt.variable] = element
                    self._execute(stmt.body, state)
            elif isinstance(stmt, ast.While):
                iterations = 0
                while self._truthy(self._evaluate(stmt.condition, state)):
                    self._execute(stmt.body, state)
                    iterations += 1
                    if iterations > MAX_WHILE_ITERATIONS:
                        raise InterpreterError("while loop exceeded the iteration limit")
            elif isinstance(stmt, ast.If):
                if self._truthy(self._evaluate(stmt.condition, state)):
                    self._execute(stmt.then_branch, state)
                elif stmt.else_branch is not None:
                    self._execute(stmt.else_branch, state)
            elif isinstance(stmt, ast.Block):
                self._execute_block(stmt.statements, state)
            else:
                raise InterpreterError(f"unknown statement node: {stmt!r}")
        except _Absent as absent:
            if not isinstance(stmt, (ast.Assign, ast.IncrementalUpdate, ast.If)):
                raise InterpreterError(f"absent entry {absent} read in a {type(stmt).__name__}") from None

    def _execute_incremental(self, stmt: ast.IncrementalUpdate, state: dict[str, Any]) -> None:
        value = self._evaluate(stmt.value, state)
        if stmt.op in self.monoids:
            monoid = self.monoids.get(stmt.op)
            current = self._load_for_update(stmt.destination, state, monoid.identity())
            updated = monoid.combine(current, value)
        else:
            # Non-monoid compound operators (e.g. "-=") still have sequential
            # meaning d := d op e; the translator will reject them separately.
            current = self._load_for_update(stmt.destination, state, 0)
            updated = self._apply_binop(stmt.op, current, value)
        self._store(stmt.destination, updated, state)

    # -- expressions ---------------------------------------------------------

    def _evaluate(self, expr: ast.Expr, state: dict[str, Any]) -> Any:
        if isinstance(expr, ast.Const):
            return expr.value
        if isinstance(expr, ast.Var):
            if expr.name not in state:
                raise InterpreterError(f"undefined variable {expr.name!r}")
            return state[expr.name]
        if isinstance(expr, ast.Project):
            return self._project(self._evaluate(expr.base, state), expr.attribute)
        if isinstance(expr, ast.Index):
            array = self._evaluate(expr.array, state)
            key = self._index_key(expr, state)
            return self._read_index(array, key, expr)
        if isinstance(expr, ast.BinOp):
            return self._evaluate_binop(expr, state)
        if isinstance(expr, ast.UnaryOp):
            operand = self._evaluate(expr.operand, state)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return not self._truthy(operand)
            raise InterpreterError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.TupleExpr):
            return tuple(self._evaluate(e, state) for e in expr.elements)
        if isinstance(expr, ast.RecordExpr):
            return {name: self._evaluate(e, state) for name, e in expr.fields}
        if isinstance(expr, ast.Call):
            if expr.function not in self.functions:
                raise InterpreterError(f"unknown function {expr.function!r}")
            function = self.functions.get(expr.function)
            arguments = [self._evaluate(a, state) for a in expr.arguments]
            return function(*arguments)
        raise InterpreterError(f"unknown expression node: {expr!r}")

    def _evaluate_binop(self, expr: ast.BinOp, state: dict[str, Any]) -> Any:
        if expr.op == "&&":
            return self._truthy(self._evaluate(expr.left, state)) and self._truthy(
                self._evaluate(expr.right, state)
            )
        if expr.op == "||":
            return self._truthy(self._evaluate(expr.left, state)) or self._truthy(
                self._evaluate(expr.right, state)
            )
        left = self._evaluate(expr.left, state)
        right = self._evaluate(expr.right, state)
        return self._apply_binop(expr.op, left, right)

    def _apply_binop(self, op: str, left: Any, right: Any) -> Any:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return left // right if left % right == 0 else left / right
            return left / right
        if op == "%":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op in self.monoids:
            return self.monoids.get(op).combine(left, right)
        raise InterpreterError(f"unknown binary operator {op!r}")

    # -- destinations --------------------------------------------------------

    def _index_key(self, expr: ast.Index, state: dict[str, Any]) -> Any:
        values = [self._evaluate(i, state) for i in expr.indices]
        if len(values) == 1:
            return values[0]
        return tuple(values)

    def _read_index(self, array: Any, key: Any, expr: ast.Index) -> Any:
        if isinstance(array, (list, tuple)):
            # Plain sequences are read-only arrays indexed by position, the
            # same convention the distributed runner uses for list inputs.
            if isinstance(key, int) and 0 <= key < len(array):
                return array[key]
        elif not isinstance(array, dict):
            raise InterpreterError(f"cannot index non-array value in {expr}")
        elif key in array:
            return array[key]
        if self.missing_default is None:
            raise InterpreterError(f"missing array entry {expr.array}[{key!r}]")
        raise _Absent(f"{expr.array}[{key!r}]")

    def _load_for_update(self, dest: ast.Expr, state: dict[str, Any], identity: Any) -> Any:
        """Current value of ``dest`` or ``identity`` if not present."""
        if isinstance(dest, ast.Var):
            if dest.name in state and state[dest.name] is not None:
                return state[dest.name]
            return identity
        if isinstance(dest, ast.Index):
            array = self._evaluate(dest.array, state)
            key = self._index_key(dest, state)
            if isinstance(array, dict) and key in array:
                return array[key]
            return identity
        if isinstance(dest, ast.Project):
            base = self._evaluate(dest.base, state)
            try:
                return self._project(base, dest.attribute)
            except InterpreterError:
                return identity
        raise InterpreterError(f"invalid update destination {dest!r}")

    def _store(self, dest: ast.Expr, value: Any, state: dict[str, Any]) -> None:
        if isinstance(dest, ast.Var):
            state[dest.name] = value
            return
        if isinstance(dest, ast.Index):
            array = self._evaluate(dest.array, state)
            if not isinstance(array, dict):
                raise InterpreterError(f"cannot assign into non-array value in {dest}")
            key = self._index_key(dest, state)
            array[key] = value
            return
        if isinstance(dest, ast.Project):
            base = self._evaluate(dest.base, state)
            if isinstance(base, dict):
                base[dest.attribute] = value
                return
            if dataclasses.is_dataclass(base):
                setattr(base, dest.attribute, value)
                return
            raise InterpreterError(f"cannot assign field {dest.attribute!r} of {base!r}")
        raise InterpreterError(f"invalid assignment destination {dest!r}")

    # -- helpers --------------------------------------------------------------

    def _project(self, value: Any, attribute: str) -> Any:
        if isinstance(value, dict):
            if attribute in value:
                return value[attribute]
            raise InterpreterError(f"record has no field {attribute!r}: {value!r}")
        if isinstance(value, tuple) and attribute.startswith("_"):
            try:
                position = int(attribute[1:]) - 1
            except ValueError as exc:
                raise InterpreterError(f"bad tuple projection {attribute!r}") from exc
            if 0 <= position < len(value):
                return value[position]
            raise InterpreterError(f"tuple projection {attribute!r} out of range for {value!r}")
        if hasattr(value, attribute):
            return getattr(value, attribute)
        raise InterpreterError(f"cannot project field {attribute!r} from {value!r}")

    @staticmethod
    def _iterate(collection: Any) -> Iterable[Any]:
        if isinstance(collection, dict):
            return list(collection.values())
        if isinstance(collection, (list, tuple, set)):
            return list(collection)
        raise InterpreterError(f"cannot iterate over {collection!r}")

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)

    @staticmethod
    def _int(value: Any, what: str) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InterpreterError(f"{what} must be numeric, got {value!r}")
        return int(value)


def interpret_program(
    source_or_program: str | ast.Program,
    env: dict[str, Any] | None = None,
    functions: FunctionRegistry | None = None,
    monoids: MonoidRegistry | None = None,
    missing_default: str | None = "skip",
) -> dict[str, Any]:
    """Parse (if necessary) and interpret a loop program, returning final state."""
    from repro.loop_lang.parser import parse_program

    if isinstance(source_or_program, str):
        program = parse_program(source_or_program)
    else:
        program = source_or_program
    interpreter = Interpreter(functions=functions, monoids=monoids, missing_default=missing_default)
    return interpreter.run(program, env)
