"""Scalar operator semantics shared by the local evaluators.

Both the sequential loop interpreter and the distributed term evaluator need
to apply the loop-language binary operators to runtime values; keeping the
table here guarantees the two execution paths agree (which the soundness tests
rely on).
"""

from __future__ import annotations

from typing import Any

from repro.comprehension.monoids import MonoidRegistry
from repro.errors import ExecutionError


def apply_binary(op: str, left: Any, right: Any, monoids: MonoidRegistry | None = None) -> Any:
    """Apply a loop-language binary operator to two values.

    Unknown operators fall back to the monoid registry (custom commutative
    operators such as KMeans' ``^`` / ``^^``).
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int) and right != 0 and left % right == 0:
            return left // right
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
    if op == "&&":
        return bool(left) and bool(right)
    if op == "||":
        return bool(left) or bool(right)
    if monoids is not None and op in monoids:
        return monoids.get(op).combine(left, right)
    raise ExecutionError(f"unknown binary operator {op!r}")


def apply_unary(op: str, operand: Any) -> Any:
    """Apply a loop-language unary operator."""
    if op == "-":
        return -operand
    if op == "!":
        return not bool(operand)
    raise ExecutionError(f"unknown unary operator {op!r}")


def project_value(value: Any, attribute: str) -> Any:
    """Project a record field, tuple position (``_k``) or object attribute."""
    if isinstance(value, dict):
        if attribute in value:
            return value[attribute]
        raise ExecutionError(f"record has no field {attribute!r}: {value!r}")
    if isinstance(value, tuple) and attribute.startswith("_"):
        try:
            position = int(attribute[1:]) - 1
        except ValueError as exc:
            raise ExecutionError(f"bad tuple projection {attribute!r}") from exc
        if 0 <= position < len(value):
            return value[position]
        raise ExecutionError(f"tuple projection {attribute!r} out of range for {value!r}")
    if hasattr(value, attribute):
        attr = getattr(value, attribute)
        return attr
    raise ExecutionError(f"cannot project field {attribute!r} from {value!r}")


def update_field(record: Any, attribute: str, value: Any) -> Any:
    """Return a copy of ``record`` with ``attribute`` replaced by ``value``.

    Registered as the ``_update_field`` runtime function used by record-component
    destinations (Equation 14b).
    """
    if isinstance(record, dict):
        updated = dict(record)
        updated[attribute] = value
        return updated
    if isinstance(record, tuple) and attribute.startswith("_"):
        try:
            position = int(attribute[1:]) - 1
        except ValueError as exc:
            raise ExecutionError(f"bad tuple projection {attribute!r}") from exc
        if not 0 <= position < len(record):
            raise ExecutionError(f"tuple projection {attribute!r} out of range for {record!r}")
        items = list(record)
        items[position] = value
        return tuple(items)
    import copy

    clone = copy.copy(record)
    setattr(clone, attribute, value)
    return clone
