"""Columnar (vectorized) execution of narrow record chains and combiners.

The record-at-a-time engine in :mod:`repro.runtime.stage` calls a Python
function per record; for the arithmetic/comparison record functions the
comprehension compiler lowers (bind a tuple element, filter on ``v < 100``,
project ``(i, m * v)``), almost all of that time is interpreter dispatch.
This module executes such chains one *partition* at a time instead:

* :class:`ColumnarPartition` stores a partition "unzipped" into one array per
  scalar leaf of the record structure (numpy arrays when numpy is importable,
  plain Python lists otherwise), plus a *template* describing how the leaves
  reassemble into records -- ``"*"`` for a scalar leaf, ``("tuple", (...))``
  for tuple records such as ``((i, j), v)``, ``("dict", names, (...))`` for
  the row dicts the comprehension evaluator binds.
* :class:`Expr` trees (:class:`Col` / :class:`Ref` / :class:`Lit` /
  :class:`BinOp` / :class:`UnOp` / :class:`Call`) evaluate a scalar term over
  every record at once, with exactly the semantics of
  :func:`repro.operators.apply_binary` -- including true/integer division and
  modulo (``/`` and ``%`` fall back on zero divisors and on integer ranges
  where numpy's double rounding could diverge) and the pure scalar builtins
  in :data:`VECTOR_CALL_IMPLS` (``abs``/``min``/``max``).
* :class:`VectorizedMap` / :class:`VectorizedFilter` /
  :class:`VectorizedMapValues` / :class:`VectorizedBind` /
  :class:`VectorizedLet` are *callable record functions* that additionally
  carry an ``apply_batch`` kernel, and
  :func:`combine_batch` is the grouped kernel behind vectorized
  ``("reduce", fn)`` / ``("seq", zero, seq_op)`` map-side combiners as well
  as the ``("group",)`` grouped-collect used by high-duplication
  ``group_by_key``.

**The record path is the oracle.**  Every vectorized function holds the
original record-at-a-time closure (``oracle``) and delegates ``__call__`` to
it, so plans built with these functions behave *identically* to the classic
engine unless a caller explicitly opts into ``apply_batch``.  Batch kernels
either produce bit-identical results or raise :class:`ColumnarFallback`
(mixed-type columns, ragged records, integer ranges where numpy's fixed-width
arithmetic could diverge from Python's arbitrary precision, IEEE corner cases
such as NaN / negative zero under ``min``/``max``); the caller then re-runs
the records through the oracle.  Fallback is therefore always safe: kernels
are pure and never mutate their input partition.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.errors import ExecutionError
from repro.operators import apply_binary, apply_unary

try:  # pragma: no cover - exercised both ways by the test suite
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Scalar leaf types a column may hold (each column must be homogeneous --
#: mixing int and float would silently coerce ints on reassembly).
SCALAR_TYPES = (bool, int, float, str)

#: Magnitude bound for integers entering fixed-width arithmetic: any single
#: ``+``/``-``/``*`` of two such operands fits int64 exactly, and converting
#: to float64 (when the other operand is a float) is lossless.
_INT_OP_BOUND = 2**31

#: Binary operators with a batch kernel.  ``/`` and ``%`` vectorize with
#: guards mirroring ``apply_binary``'s mixed int/float semantics: any zero
#: divisor falls back (the record replay raises the canonical
#: ZeroDivisionError), integer division batches only when every pair divides
#: exactly (int result) or none does (float result), and int operands stay
#: inside the exact-arithmetic window so int64/float64 conversions and
#: rounding match CPython's arbitrary-precision results bit for bit.
SUPPORTED_BINOPS = frozenset(
    {"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
)
SUPPORTED_UNOPS = frozenset({"-", "!"})

#: Monoid operators :func:`combine_batch` can fold with a ufunc.
VECTOR_COMBINE_OPS = frozenset({"+", "*", "min", "max"})

#: Pure scalar builtins with a batch kernel.  The values are the exact
#: callables :mod:`repro.functions` registers under these names; the lowering
#: only emits a :class:`Call` when the program's registry entry *is* the
#: matching builtin, so a re-registered function can never diverge from its
#: kernel.
VECTOR_CALL_IMPLS: dict[str, Callable[..., Any]] = {"abs": abs, "min": min, "max": max}


class ColumnarFallback(Exception):
    """A batch kernel cannot (or must not) handle this partition; the caller
    re-runs the segment record-at-a-time."""


# ---------------------------------------------------------------------------
# Templates: the record structure shared by every record of a partition
# ---------------------------------------------------------------------------


def _template_of(value: Any) -> Any:
    """The template of one record, or None when it cannot be columnized."""
    kind = type(value)
    if kind in SCALAR_TYPES:
        return "*"
    if kind is tuple:
        subs = []
        for element in value:
            sub = _template_of(element)
            if sub is None:
                return None
            subs.append(sub)
        return ("tuple", tuple(subs))
    if kind is dict:
        names = []
        subs = []
        for name, element in value.items():
            if type(name) is not str:
                return None
            sub = _template_of(element)
            if sub is None:
                return None
            names.append(name)
            subs.append(sub)
        return ("dict", tuple(names), tuple(subs))
    return None


def _leaf_count(template: Any) -> int:
    if template == "*":
        return 1
    if template[0] == "tuple":
        return sum(_leaf_count(sub) for sub in template[1])
    return sum(_leaf_count(sub) for sub in template[2])


def _resolve(template: Any, path: tuple[Any, ...]) -> tuple[Any, int, int]:
    """Walk ``path`` (tuple positions / dict field names) down ``template``.

    Returns ``(subtemplate, first_leaf, last_leaf + 1)`` -- the slice of the
    flat column list holding the addressed subtree.
    """
    offset = 0
    current = template
    for step in path:
        if current == "*":
            raise ColumnarFallback(f"cannot descend into a scalar leaf with {step!r}")
        if current[0] == "tuple":
            subs = current[1]
            if not isinstance(step, int) or not 0 <= step < len(subs):
                raise ColumnarFallback(f"no tuple position {step!r}")
        else:
            names, subs = current[1], current[2]
            if step not in names:
                raise ColumnarFallback(f"no field {step!r}")
            step = names.index(step)
        for sub in subs[:step]:
            offset += _leaf_count(sub)
        current = subs[step]
    return current, offset, offset + _leaf_count(current)


def _split_columns(template: Any, values: Any, out: list[Any]) -> bool:
    """Decompose records column-wise, appending leaf columns to ``out``.

    Works one structural *level* at a time (``zip(*values)`` unzips a whole
    tuple position in C) instead of flattening record by record, which is
    what keeps columnization cheaper than the record path it replaces.
    Returns False on any shape mismatch (the caller falls back).
    """
    if template == "*":
        column = _build_column(values)
        if column is None:
            return False
        out.append(column)
        return True
    if template[0] == "tuple":
        subs = template[1]
        width = len(subs)
        if any(type(value) is not tuple or len(value) != width for value in values):
            return False
        for sub, part in zip(subs, zip(*values, strict=False), strict=False):
            if not _split_columns(sub, part, out):
                return False
        return True
    names, subs = template[1], template[2]
    width = len(names)
    if any(type(value) is not dict or len(value) != width for value in values):
        return False
    for name, sub in zip(names, subs, strict=False):
        try:
            part = [value[name] for value in values]
        except KeyError:
            return False
        if not _split_columns(sub, part, out):
            return False
    return True


def _build_column(values: list[Any]) -> Any:
    """Pack one homogeneous scalar column into an array; None when mixed.

    Distinct Python types per column are rejected outright (``bool`` is a
    distinct type from ``int`` here, which ``set(map(type, ...))`` gives us
    for free) so reassembled records keep the exact types of the originals.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind not in SCALAR_TYPES:
        return None
    if np is None:
        return list(values)
    if kind is bool:
        return np.array(values, dtype=np.bool_)
    if kind is int:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return None
    if kind is float:
        return np.array(values, dtype=np.float64)
    return np.array(values, dtype=object)


def _column_list(column: Any) -> list[Any]:
    """Back to native Python scalars (``.tolist`` restores bool/int/float/str)."""
    if np is not None and isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


class ColumnarPartition:
    """One partition unzipped into per-leaf columns plus a record template.

    Pickles with the default protocol (templates are tuples of strings;
    columns are numpy arrays or lists), so columnar payloads can cross the
    process-executor boundary like any other partition data.
    """

    def __init__(self, template: Any, columns: list[Any], length: int):
        self.template = template
        self.columns = list(columns)
        self.length = length

    @classmethod
    def from_records(cls, records: list[Any]) -> "ColumnarPartition | None":
        """Columnize a partition; None when its records do not fit a single
        template of homogeneous scalar columns (the caller falls back)."""
        if not records:
            return None
        template = _template_of(records[0])
        if template is None:
            return None
        columns: list[Any] = []
        if not _split_columns(template, records, columns):
            return None
        return cls(template, columns, len(records))

    def to_records(self) -> list[Any]:
        """Reassemble the native record list (exact scalar types restored)."""
        return self._assemble(self.template, 0)

    def _assemble(self, template: Any, base: int) -> list[Any]:
        if template == "*":
            return _column_list(self.columns[base])
        if template[0] == "tuple":
            subs = template[1]
            if not subs:
                return [()] * self.length
            parts = []
            for sub in subs:
                parts.append(self._assemble(sub, base))
                base += _leaf_count(sub)
            return list(zip(*parts, strict=False))
        names, subs = template[1], template[2]
        if not names:
            return [{} for _ in range(self.length)]
        parts = []
        for sub in subs:
            parts.append(self._assemble(sub, base))
            base += _leaf_count(sub)
        return [dict(zip(names, values, strict=False)) for values in zip(*parts, strict=False)]

    def subpart(self, path: tuple[Any, ...]) -> "ColumnarPartition":
        """The subtree at ``path`` as a partition sharing this one's columns."""
        template, start, end = _resolve(self.template, path)
        return ColumnarPartition(template, self.columns[start:end], self.length)

    def leaf(self, path: tuple[Any, ...]) -> Any:
        template, start, _ = _resolve(self.template, path)
        if template != "*":
            raise ColumnarFallback(f"path {path!r} is not a scalar leaf")
        return self.columns[start]

    def compress(self, mask: Any) -> "ColumnarPartition":
        """Keep the records selected by a boolean mask."""
        if np is not None and isinstance(mask, np.ndarray):
            return ColumnarPartition(
                self.template,
                [column[mask] for column in self.columns],
                int(mask.sum()),
            )
        kept = [index for index, keep in enumerate(mask) if keep]
        return ColumnarPartition(
            self.template,
            [[column[index] for index in kept] for column in self.columns],
            len(kept),
        )

    def empty(self) -> "ColumnarPartition":
        return ColumnarPartition(self.template, [column[:0] for column in self.columns], 0)


# ---------------------------------------------------------------------------
# Batch scalar operators (exact apply_binary / apply_unary semantics)
# ---------------------------------------------------------------------------


def _is_column(value: Any) -> bool:
    if np is not None and isinstance(value, np.ndarray):
        return True
    return isinstance(value, list)


def _kind(value: Any) -> str:
    """'b'/'i'/'f'/'s' for a column or scalar operand."""
    if np is not None and isinstance(value, np.ndarray):
        return {"b": "b", "i": "i", "f": "f", "O": "s"}.get(value.dtype.kind, "?")
    kind = type(value)
    return {bool: "b", int: "i", float: "f", str: "s"}.get(kind, "?")


def _guard_int(value: Any) -> None:
    """Refuse integer operands outside the exact-arithmetic window."""
    if np is not None and isinstance(value, np.ndarray):
        if value.dtype.kind == "i" and value.size:
            if value.min() <= -_INT_OP_BOUND or value.max() >= _INT_OP_BOUND:
                raise ColumnarFallback("integer magnitude too large for exact vector arithmetic")
    elif isinstance(value, int) and not isinstance(value, bool):
        if not -_INT_OP_BOUND < value < _INT_OP_BOUND:
            raise ColumnarFallback("integer magnitude too large for exact vector arithmetic")


def _to_bool(value: Any, length: int) -> Any:
    if np is not None and isinstance(value, np.ndarray):
        return value.astype(np.bool_)
    if isinstance(value, list):
        return [bool(element) for element in value]
    return bool(value)


def _broadcast(value: Any, length: int) -> Any:
    """A constant as a full column (used when an output leaf is scalar)."""
    if type(value) not in SCALAR_TYPES:
        raise ColumnarFallback(f"cannot broadcast non-scalar {type(value).__name__}")
    if np is None:
        return [value] * length
    if type(value) is bool:
        return np.full(length, value, dtype=np.bool_)
    if type(value) is int:
        try:
            return np.full(length, value, dtype=np.int64)
        except OverflowError as error:
            raise ColumnarFallback("integer constant exceeds int64") from error
    if type(value) is float:
        return np.full(length, value, dtype=np.float64)
    return np.full(length, value, dtype=object)


_CMP_UFUNCS = {
    "==": "equal",
    "!=": "not_equal",
    "<": "less",
    "<=": "less_equal",
    ">": "greater",
    ">=": "greater_equal",
}


def _elementwise(op: str, left: Any, right: Any, length: int) -> list[Any]:
    """The list-backend (and scalar) path: apply_binary per element."""
    left_values = left if isinstance(left, list) else [left] * length
    right_values = right if isinstance(right, list) else [right] * length
    return [apply_binary(op, a, b) for a, b in zip(left_values, right_values, strict=False)]


def batch_binop(op: str, left: Any, right: Any, length: int) -> Any:
    """Apply one supported binary operator over columns and/or scalars.

    Mirrors :func:`repro.operators.apply_binary` exactly or raises
    :class:`ColumnarFallback`.  ``&&``/``||`` evaluate both operands (the
    record evaluator short-circuits, but every supported operand expression
    is total, so the values agree; an operand that *throws* simply triggers
    the fallback, which replays the record path and its short-circuiting).
    """
    if op not in SUPPORTED_BINOPS:
        raise ColumnarFallback(f"unsupported operator {op!r}")
    if not _is_column(left) and not _is_column(right):
        return apply_binary(op, left, right)
    use_numpy = np is not None and (
        isinstance(left, np.ndarray) or isinstance(right, np.ndarray)
    )
    if not use_numpy:
        return _elementwise(op, left, right, length)

    kinds = {_kind(left), _kind(right)}
    if "?" in kinds:
        raise ColumnarFallback("non-scalar operand")
    if op in ("&&", "||"):
        left_bool = _to_bool(left, length)
        right_bool = _to_bool(right, length)
        return (left_bool & right_bool) if op == "&&" else (left_bool | right_bool)
    if op in ("+", "-", "*"):
        if "b" in kinds:
            # Python bool arithmetic promotes to int (True + True == 2);
            # numpy bool arithmetic saturates.  Never vectorize it.
            raise ColumnarFallback("bool arithmetic")
        _guard_int(left)
        _guard_int(right)
        ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
        with np.errstate(all="ignore"):
            return ufunc(left, right)
    if op in ("/", "%"):
        return _batch_divmod(op, left, right, kinds)
    # Comparisons.  A str operand against a numeric one has Python semantics
    # (== is False, < raises) that numpy's promotion rules do not replicate.
    if "s" in kinds and kinds != {"s"}:
        raise ColumnarFallback("mixed string/number comparison")
    _guard_int(left)
    _guard_int(right)
    with np.errstate(all="ignore"):
        return getattr(np, _CMP_UFUNCS[op])(left, right)


def _batch_divmod(op: str, left: Any, right: Any, kinds: set[str]) -> Any:
    """The ``/`` and ``%`` kernels (numpy backend; at least one ndarray operand).

    ``apply_binary`` gives ``/`` layered semantics: exactly-divisible int
    pairs yield an int quotient, everything else true-divides, and a zero
    divisor raises ZeroDivisionError (for floats too -- ``1.0 / 0.0`` raises
    in Python where IEEE would give inf).  The kernel batches only the cases
    a fixed dtype represents faithfully and falls back on the rest; the
    record replay then reproduces both the canonical values *and* the
    canonical errors.
    """
    if "b" in kinds:
        # Python promotes bools to int (True / True == 1); numpy's bool
        # division semantics differ.  Never vectorize it.
        raise ColumnarFallback("bool arithmetic")
    if "s" in kinds:
        raise ColumnarFallback("string operand in division")
    if _is_column(right):
        has_zero = bool((np.asarray(right) == 0).any())
    else:
        has_zero = right == 0
    if has_zero:
        # Includes -0.0 divisors: Python raises ZeroDivisionError where
        # numpy would produce +/-inf (or 0 for integer columns).
        raise ColumnarFallback("zero divisor")
    if kinds == {"i"}:
        # Keep int64/float64 conversions exact: CPython's int/int true
        # division is correctly rounded from the exact rationals, while
        # numpy converts each int64 to float64 *first* (double rounding
        # beyond 2**53).  Inside the window both agree bit for bit.
        _guard_int(left)
        _guard_int(right)
        if op == "/":
            with np.errstate(all="ignore"):
                remainder = np.mod(left, right)
            exact = remainder == 0
            if bool(np.all(exact)):
                with np.errstate(all="ignore"):
                    return np.floor_divide(left, right)
            if bool(np.any(exact)):
                # Python yields int for the exact pairs and float for the
                # rest; no single dtype holds that column.
                raise ColumnarFallback("mixed exact/inexact integer division")
    with np.errstate(all="ignore"):
        return np.true_divide(left, right) if op == "/" else np.mod(left, right)


def batch_call(function: str, operands: list[Any], length: int) -> Any:
    """Apply one whitelisted scalar builtin (``abs``/``min``/``max``) batchwise.

    Mirrors the Python builtins exactly or raises :class:`ColumnarFallback`:
    ``abs`` keeps int results int (int64's minimum cannot be negated, so it
    falls back); ``min``/``max`` return the *first* extremal argument under
    Python's comparison rules, so mixed dtypes (Python preserves the winning
    operand's type), NaN (Python's result depends on argument order) and
    signed zeros (numpy orders them, Python keeps the first seen) all fall
    back to the record path.
    """
    impl = VECTOR_CALL_IMPLS.get(function)
    if impl is None:
        raise ColumnarFallback(f"no batch kernel for call {function!r}")
    if not any(_is_column(operand) for operand in operands):
        return impl(*operands)
    if np is None or not any(
        isinstance(operand, np.ndarray) for operand in operands
    ):
        columns = [
            operand if isinstance(operand, list) else [operand] * length
            for operand in operands
        ]
        return [impl(*values) for values in zip(*columns, strict=False)]

    kinds = {_kind(operand) for operand in operands}
    if function == "abs":
        (operand,) = operands
        kind = kinds.pop()
        if kind == "i":
            if operand.size and operand.min() == np.iinfo(np.int64).min:
                raise ColumnarFallback("int64 minimum has no exact absolute value")
            return np.abs(operand)
        if kind == "f":
            return np.abs(operand)
        raise ColumnarFallback(f"abs over column kind {kind!r}")
    # min / max with explicit scalar arguments.  A single argument means the
    # builtin iterates it (a bag reduction), which is not this kernel's job.
    if len(operands) < 2:
        raise ColumnarFallback("min/max needs at least two scalar arguments")
    if len(kinds) != 1:
        raise ColumnarFallback("mixed-type min/max")
    kind = kinds.pop()
    if kind not in ("i", "f"):
        raise ColumnarFallback(f"min/max over column kind {kind!r}")
    if kind == "f":
        for operand in operands:
            if _is_column(operand):
                if np.isnan(operand).any():
                    raise ColumnarFallback("NaN under min/max")
                if ((operand == 0.0) & np.signbit(operand)).any():
                    raise ColumnarFallback("negative zero under min/max")
            elif isinstance(operand, float):
                if operand != operand:
                    raise ColumnarFallback("NaN under min/max")
                if operand == 0.0 and math.copysign(1.0, operand) < 0.0:
                    raise ColumnarFallback("negative zero under min/max")
    ufunc = np.minimum if function == "min" else np.maximum
    result = operands[0]
    with np.errstate(all="ignore"):
        for operand in operands[1:]:
            result = ufunc(result, operand)
    return result


def batch_unop(op: str, operand: Any, length: int) -> Any:
    """Apply ``-``/``!`` over a column (apply_unary semantics)."""
    if op not in SUPPORTED_UNOPS:
        raise ColumnarFallback(f"unsupported unary operator {op!r}")
    if not _is_column(operand):
        return apply_unary(op, operand)
    if np is None or not isinstance(operand, np.ndarray):
        return [apply_unary(op, element) for element in operand]
    if op == "!":
        return ~_to_bool(operand, length)
    kind = operand.dtype.kind
    if kind == "b":
        # Python negates bools through int (-True == -1); numpy raises.
        operand = operand.astype(np.int64)
    elif kind == "i":
        if operand.size and operand.min() == np.iinfo(np.int64).min:
            raise ColumnarFallback("int64 minimum cannot be negated exactly")
    elif kind != "f":
        raise ColumnarFallback(f"cannot negate column kind {kind!r}")
    with np.errstate(all="ignore"):
        return -operand


# ---------------------------------------------------------------------------
# Scalar expressions over a partition
# ---------------------------------------------------------------------------


class ScalarScope:
    """Driver-level name resolution for :class:`Ref` nodes.

    Mirrors the evaluator's ``_lookup``: the lowering-time binding snapshot
    ``base`` first, then ``values``, the live program environment dict.  The
    runner updates that dict in place, so a plan node cached across loop
    iterations sees each iteration's scalars -- exactly like the record
    closure it shadows.
    """

    def __init__(self, base: dict[str, Any] | None = None, values: dict[str, Any] | None = None):
        self.base = base or {}
        self.values = values if values is not None else {}

    def resolve(self, name: str) -> Any:
        if name in self.base:
            return self.base[name]
        if name in self.values:
            return self.values[name]
        raise ExecutionError(f"undefined variable {name!r}")


class Expr:
    """A scalar expression evaluable per record or over a whole partition."""

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        raise NotImplementedError

    def record(self, record: Any, scope: ScalarScope) -> Any:
        raise NotImplementedError


class Col(Expr):
    """A record component: a path of tuple positions / dict field names."""

    def __init__(self, path: Iterable[Any]):
        self.path = tuple(path)

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        return part.leaf(self.path)

    def record(self, record: Any, scope: ScalarScope) -> Any:
        value = record
        for step in self.path:
            value = value[step]
        return value

    def __repr__(self) -> str:
        return f"Col({'.'.join(map(str, self.path))})"


class Ref(Expr):
    """A driver-scope scalar (resolved per batch, broadcast per record)."""

    def __init__(self, name: str):
        self.name = name

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        value = scope.resolve(self.name)
        if type(value) not in SCALAR_TYPES:
            raise ColumnarFallback(f"variable {self.name!r} is not a scalar")
        return value

    def record(self, record: Any, scope: ScalarScope) -> Any:
        return scope.resolve(self.name)

    def __repr__(self) -> str:
        return f"Ref({self.name})"


class Lit(Expr):
    """A constant scalar."""

    def __init__(self, value: Any):
        self.value = value

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        return self.value

    def record(self, record: Any, scope: ScalarScope) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class BinOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        return batch_binop(
            self.op, self.left.batch(part, scope), self.right.batch(part, scope), part.length
        )

    def record(self, record: Any, scope: ScalarScope) -> Any:
        return apply_binary(self.op, self.left.record(record, scope), self.right.record(record, scope))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        return batch_unop(self.op, self.operand.batch(part, scope), part.length)

    def record(self, record: Any, scope: ScalarScope) -> Any:
        return apply_unary(self.op, self.operand.record(record, scope))

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


class Call(Expr):
    """A call to a whitelisted pure scalar builtin (``abs``/``min``/``max``).

    Only constructed by the lowering after checking the program's function
    registry still maps ``function`` to the exact builtin in
    :data:`VECTOR_CALL_IMPLS`; the record path applies that same builtin, so
    both paths share one implementation.
    """

    def __init__(self, function: str, args: Iterable[Expr]):
        self.function = function
        self.args = tuple(args)

    def batch(self, part: ColumnarPartition, scope: ScalarScope) -> Any:
        operands = [arg.batch(part, scope) for arg in self.args]
        return batch_call(self.function, operands, part.length)

    def record(self, record: Any, scope: ScalarScope) -> Any:
        impl = VECTOR_CALL_IMPLS[self.function]
        return impl(*(arg.record(record, scope) for arg in self.args))

    def __repr__(self) -> str:
        return f"Call({self.function}, {self.args!r})"


class OutTuple:
    """A tuple-shaped output spec for :class:`VectorizedMap`."""

    def __init__(self, specs: Iterable[Any]):
        self.specs = tuple(specs)

    def __repr__(self) -> str:
        return f"OutTuple{self.specs!r}"


# ---------------------------------------------------------------------------
# Vectorized record functions
# ---------------------------------------------------------------------------


class VectorizedFunction:
    """A record function that also knows how to process a whole partition.

    ``__call__`` *is* the record path: it delegates to ``oracle`` -- the
    original closure this instance annotates -- whenever one was supplied, so
    wrapping a plan function in a vectorized marker never changes classic
    record-at-a-time results.  ``apply_batch`` maps a
    :class:`ColumnarPartition` to a new one (or raises
    :class:`ColumnarFallback`).
    """

    def __init__(self, oracle: Callable[..., Any] | None = None):
        self.oracle = oracle

    def __call__(self, *args: Any) -> Any:
        if self.oracle is not None:
            return self.oracle(*args)
        return self.apply_record(*args)

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        raise NotImplementedError

    def apply_record(self, *args: Any) -> Any:
        raise NotImplementedError


def _build_output(spec: Any, part: ColumnarPartition, scope: ScalarScope) -> tuple[Any, list[Any]]:
    """Evaluate one output spec over a partition: ``(template, columns)``."""
    if isinstance(spec, Col):
        sub = part.subpart(spec.path)
        return sub.template, list(sub.columns)
    if isinstance(spec, OutTuple):
        templates = []
        columns: list[Any] = []
        for element in spec.specs:
            template, element_columns = _build_output(element, part, scope)
            templates.append(template)
            columns.extend(element_columns)
        return ("tuple", tuple(templates)), columns
    column = spec.batch(part, scope)
    if not _is_column(column):
        column = _broadcast(column, part.length)
    return "*", [column]


def _record_output(spec: Any, record: Any, scope: ScalarScope) -> Any:
    """Evaluate one output spec for a single record (the oracle shape)."""
    if isinstance(spec, OutTuple):
        return tuple(_record_output(element, record, scope) for element in spec.specs)
    return spec.record(record, scope)


class VectorizedMap(VectorizedFunction):
    """A ``map`` whose output is built from expressions and spliced columns.

    ``out`` is an :class:`Expr` (scalar output), a :class:`Col` (structural
    passthrough of a whole subtree, scalar or not), or an :class:`OutTuple`
    of such specs (tuple output, e.g. the ``(key, value)`` projections the
    group-by lowering emits).
    """

    def __init__(self, out: Any, scope: ScalarScope | None = None, oracle: Any = None):
        super().__init__(oracle)
        self.out = out
        self.scope = scope or ScalarScope()

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        template, columns = _build_output(self.out, part, self.scope)
        return ColumnarPartition(template, columns, part.length)

    def _build(self, spec: Any, part: ColumnarPartition) -> tuple[Any, list[Any]]:
        return _build_output(spec, part, self.scope)

    def apply_record(self, record: Any) -> Any:
        return self._record_value(self.out, record)

    def _record_value(self, spec: Any, record: Any) -> Any:
        if isinstance(spec, OutTuple):
            return tuple(self._record_value(element, record) for element in spec.specs)
        return spec.record(record, self.scope)


class VectorizedFilter(VectorizedFunction):
    """A ``filter`` whose predicate is an :class:`Expr` (truthiness applies)."""

    def __init__(self, predicate: Expr, scope: ScalarScope | None = None, oracle: Any = None):
        super().__init__(oracle)
        self.predicate = predicate
        self.scope = scope or ScalarScope()

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        mask = self.predicate.batch(part, self.scope)
        if not _is_column(mask):
            return part if bool(mask) else part.empty()
        return part.compress(_to_bool(mask, part.length))

    def apply_record(self, record: Any) -> Any:
        return bool(self.predicate.record(record, self.scope))


class VectorizedMapValues(VectorizedFunction):
    """A ``map_values`` whose value transform is an :class:`Expr` (paths are
    relative to the pair's *value*)."""

    def __init__(self, expr: Expr, scope: ScalarScope | None = None, oracle: Any = None):
        super().__init__(oracle)
        self.expr = expr
        self.scope = scope or ScalarScope()

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        template = part.template
        if template == "*" or template[0] != "tuple" or len(template[1]) != 2:
            raise ColumnarFallback("map_values needs (key, value) records")
        key = part.subpart((0,))
        column = self.expr.batch(part.subpart((1,)), self.scope)
        if not _is_column(column):
            column = _broadcast(column, part.length)
        return ColumnarPartition(
            ("tuple", (key.template, "*")), list(key.columns) + [column], part.length
        )

    def apply_record(self, value: Any) -> Any:
        return self.expr.record(value, self.scope)


class VectorizedBind(VectorizedFunction):
    """The generator-binding ``map``: destructure each element into a row dict.

    ``pattern`` is ``("var", name)``, ``("wildcard",)`` or
    ``("tuple", (sub, ...))`` -- a pickled-down mirror of the comprehension
    pattern syntax.  The batch kernel is purely structural: it re-roots the
    template as a row dict without touching a single value.
    """

    def __init__(self, pattern: tuple[Any, ...], oracle: Any = None):
        super().__init__(oracle)
        self.pattern = pattern

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        names: list[str] = []
        templates: list[Any] = []
        columns: list[Any] = []

        def walk(spec: tuple[Any, ...], template: Any, start: int) -> None:
            kind = spec[0]
            if kind == "wildcard":
                return
            if kind == "var":
                names.append(spec[1])
                templates.append(template)
                columns.extend(part.columns[start : start + _leaf_count(template)])
                return
            if template == "*" or template[0] != "tuple" or len(template[1]) != len(spec[1]):
                raise ColumnarFallback("pattern/record shape mismatch")
            offset = start
            for sub_spec, sub_template in zip(spec[1], template[1], strict=False):
                walk(sub_spec, sub_template, offset)
                offset += _leaf_count(sub_template)

        walk(self.pattern, part.template, 0)
        if len(set(names)) != len(names):
            raise ColumnarFallback("duplicate pattern variable")
        return ColumnarPartition(("dict", tuple(names), tuple(templates)), columns, part.length)

    def apply_record(self, element: Any) -> dict[str, Any]:
        row: dict[str, Any] = {}

        def bind(spec: tuple[Any, ...], value: Any) -> None:
            kind = spec[0]
            if kind == "var":
                row[spec[1]] = value
            elif kind == "tuple":
                if not isinstance(value, (tuple, list)) or len(value) != len(spec[1]):
                    raise ExecutionError(f"cannot bind pattern to value {value!r}")
                for sub, element_value in zip(spec[1], value, strict=False):
                    bind(sub, element_value)

        bind(self.pattern, element)
        return row


class VectorizedLet(VectorizedFunction):
    """The let-binding ``map``: ``row -> {**row, name: expr(row)}``.

    Only single-variable bindings of fresh names over dict rows vectorize;
    the new value is one scalar column appended to the row template, so the
    kernel extends the surrounding segment instead of splitting it.
    """

    def __init__(self, name: str, expr: Expr, scope: ScalarScope | None = None, oracle: Any = None):
        super().__init__(oracle)
        self.name = name
        self.expr = expr
        self.scope = scope or ScalarScope()

    def apply_batch(self, part: ColumnarPartition) -> ColumnarPartition:
        template = part.template
        if template == "*" or template[0] != "dict":
            raise ColumnarFallback("let kernels require dict-shaped rows")
        names, subs = template[1], template[2]
        if self.name in names:
            # Rebinding overwrites in place on the record path; keep that
            # rare case there instead of re-ordering template fields.
            raise ColumnarFallback(f"let rebinds existing field {self.name!r}")
        column = self.expr.batch(part, self.scope)
        if not _is_column(column):
            column = _broadcast(column, part.length)
        return ColumnarPartition(
            ("dict", names + (self.name,), subs + ("*",)),
            list(part.columns) + [column],
            part.length,
        )

    def apply_record(self, row: Any) -> dict[str, Any]:
        return {**row, self.name: self.expr.record(row, self.scope)}


class VectorizedCombine:
    """A key-value combiner carrying its monoid operator symbol.

    Monoid combine functions are plain lambdas with no identity the batch
    kernels could recognise; wrapping them tags the operator while keeping
    ``__call__`` a transparent delegate, so the record path (map-side
    combiners, reduce-side buckets, interpreter oracle comparisons) is
    untouched.
    """

    def __init__(self, op: str, fn: Callable[[Any, Any], Any]):
        self.op = op
        self.fn = fn

    def __call__(self, left: Any, right: Any) -> Any:
        return self.fn(left, right)

    def __repr__(self) -> str:
        return f"VectorizedCombine({self.op!r})"


# ---------------------------------------------------------------------------
# Grouped-fold (combiner) kernels
# ---------------------------------------------------------------------------


def combiner_vectorizable(combiner: tuple[Any, ...]) -> bool:
    """Whether a combiner spec has a batch kernel: a ``("reduce", fn)`` /
    ``("seq", zero, seq_op)`` carrying a foldable :class:`VectorizedCombine`,
    or the adaptive layer's map-side ``("group",)`` collector."""
    kind = combiner[0]
    if kind == "reduce":
        fn = combiner[1]
        return isinstance(fn, VectorizedCombine) and fn.op in VECTOR_COMBINE_OPS
    if kind == "seq":
        _, zero, seq_op = combiner
        return (
            isinstance(seq_op, VectorizedCombine)
            and seq_op.op in VECTOR_COMBINE_OPS
            and type(zero) in (int, float)
        )
    return kind == "group"


_FOLD_UFUNC_NAMES = {"+": "add", "*": "multiply", "min": "minimum", "max": "maximum"}


def _guard_fold(op: str, values: Any, zero: Any = None) -> None:
    """Refuse folds where a ufunc could diverge from a Python left-fold."""
    if values.dtype.kind == "i":
        if op == "*":
            # Products overflow int64 after a handful of elements; there is
            # no cheap mid-fold bound check, so integer products never batch.
            raise ColumnarFallback("integer product fold")
        if values.size and (values.min() <= -_INT_OP_BOUND or values.max() >= _INT_OP_BOUND):
            raise ColumnarFallback("integer magnitude too large for exact vector fold")
    elif op in ("min", "max"):
        # np.minimum/maximum always propagate NaN and order signed zeros;
        # Python's min/max return whichever operand the comparison picks.
        if np.isnan(values).any():
            raise ColumnarFallback("NaN under min/max fold")
        if ((values == 0.0) & np.signbit(values)).any():
            raise ColumnarFallback("negative zero under min/max fold")
    if zero is not None and isinstance(zero, float):
        if zero != zero or (zero == 0.0 and math.copysign(1.0, zero) < 0.0):
            raise ColumnarFallback("NaN/negative-zero seed")


def combine_batch(combiner: tuple[Any, ...], records: list[Any]) -> list[Any]:
    """Vectorized map-side combine: group by key, fold values with a ufunc.

    Grouping runs through a Python dict over the *reassembled* native keys,
    so key identity (``1 == 1.0``, NaN never equalling itself, first-seen
    output order) is exactly the record path's.  Only the fold itself is
    vectorized: ``np.ufunc.at`` is unbuffered and applies the updates in
    record order, making per-key accumulation the same left-fold the dict
    combiner performs.  Raises :class:`ColumnarFallback` whenever exactness
    cannot be guaranteed.
    """
    if np is None:
        raise ColumnarFallback("no numpy backend")
    part = ColumnarPartition.from_records(records)
    if part is None:
        raise ColumnarFallback("records are not columnar")
    kind = combiner[0]
    if kind == "group":
        return _grouped_collect(part)
    template = part.template
    if template == "*" or template[0] != "tuple" or len(template[1]) != 2 or template[1][1] != "*":
        raise ColumnarFallback("combiner needs (key, scalar value) records")
    values = part.columns[-1]
    if values.dtype.kind not in ("i", "f"):
        raise ColumnarFallback("non-numeric value column")

    if kind == "reduce":
        op = combiner[1].op
        zero = None
    else:
        _, zero, seq_op = combiner
        op = seq_op.op
    _guard_fold(op, values, zero)

    keys = part.subpart((0,)).to_records()
    group_of: dict[Any, int] = {}
    ordered_keys: list[Any] = []
    first_position: list[int] = []
    group_ids = np.empty(part.length, dtype=np.int64)
    try:
        for position, key in enumerate(keys):
            group = group_of.get(key)
            if group is None:
                group = group_of[key] = len(ordered_keys)
                ordered_keys.append(key)
                first_position.append(position)
            group_ids[position] = group
    except TypeError as error:  # unhashable key
        raise ColumnarFallback("unhashable key") from error

    ufunc = getattr(np, _FOLD_UFUNC_NAMES[op])
    if kind == "reduce":
        first = np.array(first_position, dtype=np.int64)
        accumulator = values[first]
        rest = np.ones(part.length, dtype=np.bool_)
        rest[first] = False
        with np.errstate(all="ignore"):
            ufunc.at(accumulator, group_ids[rest], values[rest])
    else:
        dtype = np.float64 if (isinstance(zero, float) or values.dtype.kind == "f") else np.int64
        if dtype == np.int64:
            _guard_int(zero)
        accumulator = np.full(len(ordered_keys), zero, dtype=dtype)
        with np.errstate(all="ignore"):
            ufunc.at(accumulator, group_ids, values)
    return list(zip(ordered_keys, accumulator.tolist(), strict=False))


def _grouped_collect(part: ColumnarPartition) -> list[Any]:
    """The ``("group",)`` kernel: collect each key's values in record order.

    Key grouping is fully vectorized for scalar integer keys (the only case
    where ``np.unique`` equality provably coincides with Python dict
    hashing): ``inverse`` ranks are remapped to *first-seen* order and a
    stable argsort gathers each group's values in record order, so the
    result is exactly the record path's ``setdefault(key, []).append(value)``
    dict, item for item.
    """
    template = part.template
    if template == "*" or template[0] != "tuple" or len(template[1]) != 2:
        raise ColumnarFallback("group combiner needs (key, value) records")
    if template[1][0] != "*":
        raise ColumnarFallback("grouped collect needs scalar keys")
    keys_column = part.columns[0]
    if not isinstance(keys_column, np.ndarray) or keys_column.dtype.kind != "i":
        raise ColumnarFallback("grouped collect needs an integer key column")
    unique, first_index, inverse = np.unique(
        keys_column, return_index=True, return_inverse=True
    )
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(unique), dtype=np.int64)
    rank[order] = np.arange(len(unique), dtype=np.int64)
    group_ids = rank[inverse.reshape(-1)]
    ordered_keys = unique[order].tolist()
    permutation = np.argsort(group_ids, kind="stable")
    counts = np.bincount(group_ids, minlength=len(unique))
    value_part = part.subpart((1,))
    if value_part.template == "*":
        ordered_values = value_part.columns[0][permutation].tolist()
    else:
        values = value_part.to_records()
        ordered_values = [values[position] for position in permutation.tolist()]
    groups: list[list[Any]] = []
    start = 0
    for count in counts.tolist():
        groups.append(ordered_values[start : start + count])
        start += count
    return list(zip(ordered_keys, groups, strict=False))
