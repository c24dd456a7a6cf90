"""The runtime side of generated segment code: the namespace it runs in.

:mod:`repro.algebra.codegen` writes each narrow plan segment as Python
source and executes it against this module's dictionary, so every helper
the emitted text names (``MISSING``, ``FoldedRecords``, ``check_bind``,
``unresolved``, ``divide``, ``apply_binary``, ``project_value``, ...) is a
global here.  A generated function shipped to a cluster worker is rebuilt
against this module too (see :mod:`repro.runtime.cluster.wire`), so a worker
never needs the code generator, nor anything else of the compiler.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError
from repro.operators import apply_binary, apply_unary, divide, project_value, update_field  # noqa: F401
from repro.runtime.stage import FoldedRecords  # noqa: F401

_SEQUENCE = (tuple, list)
#: "No accumulator yet" in a generated ``fold_by_key`` loop.
MISSING = object()


@dataclass
class PreAggregated:
    """A lifted variable already reduced by reduceByKey; ``Aggregate`` over it
    returns the value unchanged."""

    value: Any


class ScalarScope:
    """Driver-level name resolution for a generated function's free names.

    The lowering-time binding snapshot ``base`` first, then ``values``, the
    live program environment dict.  The runner updates that dict in place,
    so a plan node cached across loop iterations sees each iteration's
    scalars.
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


class SegmentScope(ScalarScope):
    """A :class:`ScalarScope` that ships only the names its segment reads."""

    def __init__(self, base: dict[str, Any], values: dict[str, Any] | None, names: tuple[str, ...]):
        super().__init__(base, values)
        self.names = names

    def __reduce__(self) -> tuple:
        found = {}
        for name in self.names:
            try:
                found[name] = self.resolve(name)
            except ExecutionError:
                pass
        return (SegmentScope, (found, None, self.names))


def check_bind(pattern: Any, value: Any) -> None:
    """The shape check of a tuple pattern (shared with ``_bind_pattern``)."""
    if not isinstance(value, _SEQUENCE) or len(value) != len(pattern.elements):
        raise ExecutionError(f"cannot bind pattern {pattern} to value {value!r}")


def in_range(value: Any, lower: Any, upper: Any) -> bool:
    return lower <= value <= upper


def local_bag(value: Any) -> list[Any]:
    """A bag term's value as the list a generator ranges over."""
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, (list, tuple, set)):
        return list(value)
    if _is_dataset(value):
        return value.collect()
    return [value]


def aggregate(op: Any, operand: Any, monoids: Any, fuse: Any = None) -> Any:
    """``op/operand``: a :class:`PreAggregated` value is already reduced; a
    dataset folds inside its tasks (``fuse`` as in ``fold_partitions``), the
    partials in partition order, so nothing is collected."""
    if isinstance(operand, PreAggregated):
        return operand.value
    monoid = monoids.get(op)
    if _is_dataset(operand):
        return monoid.reduce(operand.fold_partitions(monoid.reduce, fuse))
    return monoid.reduce(local_bag(operand))


def _is_dataset(value: Any) -> bool:
    """Whether ``value`` is a driver :class:`~repro.runtime.dataset.Dataset`.

    No dataset exists in a process that has not imported its module -- a
    worker holds stubs in their place -- so a worker never imports it here.
    """
    module = sys.modules.get("repro.runtime.dataset")
    return module is not None and isinstance(value, module.Dataset)


def unresolved(error: NameError, messages: dict[str, str]) -> BaseException:
    """The ``ExecutionError`` for a scalar or function left unassigned."""
    match = re.search(r"'(\w+)'", str(error))
    message = messages.get(match.group(1)) if match else None
    return ExecutionError(message) if message else error
