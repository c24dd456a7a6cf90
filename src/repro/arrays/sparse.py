"""Sparse vectors and matrices as key-value datasets (Section 3.4).

In the paper a sparse vector of type ``vector[T]`` is a bag of type
``{(long, T)}`` and a sparse matrix of type ``matrix[T]`` is a bag of type
``{((long, long), T)}``.  These wrappers give that representation a small,
convenient API on top of the runtime :class:`~repro.runtime.dataset.Dataset`:
element access, the merge operations ⊳ / ⊳⊕, arithmetic helpers used by the
hand-written baselines, and conversions to and from dense Python structures.

Missing entries behave as zero, matching the convention used throughout the
paper's examples (and by the translator's incremental updates).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import ExecutionError
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset


class SparseVector:
    """A sparse vector stored as a Dataset of ``(index, value)`` pairs."""

    def __init__(self, data: Dataset, length: int | None = None):
        self.data = data
        self._length = length

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(
        cls, context: DistributedContext, entries: dict[int, Any], length: int | None = None
    ) -> "SparseVector":
        """Build a vector from an ``{index: value}`` mapping."""
        return cls(context.parallelize_pairs(entries), length)

    @classmethod
    def from_dense(cls, context: DistributedContext, values: Iterable[Any]) -> "SparseVector":
        """Build a vector from a dense sequence (zeros are kept)."""
        values = list(values)
        return cls(context.indexed(values), len(values))

    @classmethod
    def zeros(cls, context: DistributedContext, length: int) -> "SparseVector":
        """An explicitly zero-filled vector of the given length."""
        return cls(context.parallelize_raw([(i, 0.0) for i in range(length)]), length)

    # -- inspection -------------------------------------------------------------

    def __len__(self) -> int:
        if self._length is not None:
            return self._length
        keys = [key for key, _ in self.data.collect()]
        return (max(keys) + 1) if keys else 0

    def nonzero_count(self) -> int:
        """Number of stored entries."""
        return self.data.count()

    def to_dict(self) -> dict[int, Any]:
        """All stored entries as a plain dict."""
        return self.data.collect_as_map()

    def to_dense(self, length: int | None = None) -> list[Any]:
        """A dense list of the vector's values (missing entries become 0)."""
        entries = self.to_dict()
        size = length if length is not None else len(self)
        return [entries.get(i, 0.0) for i in range(size)]

    def get(self, index: int, default: Any = 0.0) -> Any:
        """The value at ``index`` (``default`` when absent)."""
        return self.to_dict().get(index, default)

    # -- operations --------------------------------------------------------------

    def merge(self, other: "SparseVector") -> "SparseVector":
        """The ⊳ merge: entries of ``other`` replace entries of ``self``."""
        return SparseVector(self.data.merge(other.data), self._length)

    def merge_with(self, other: "SparseVector", combine: Callable[[Any, Any], Any]) -> "SparseVector":
        """The ⊳⊕ merge: combine entries present on both sides with ``combine``."""
        return SparseVector(self.data.merge_with(other.data, combine), self._length)

    def map_values(self, function: Callable[[Any], Any]) -> "SparseVector":
        """Apply ``function`` to every stored value."""
        return SparseVector(self.data.map_values(function), self._length)

    def add(self, other: "SparseVector") -> "SparseVector":
        """Element-wise sum (missing entries are zero)."""
        return self.merge_with(other, lambda a, b: a + b)

    def dot(self, other: "SparseVector") -> Any:
        """Inner product of two sparse vectors."""
        joined = self.data.join(other.data)
        products = joined.map(lambda record: record[1][0] * record[1][1])
        return products.fold(0.0, lambda a, b: a + b)

    def sum(self) -> Any:
        """Sum of all stored values."""
        return self.data.values().fold(0.0, lambda a, b: a + b)


class SparseMatrix:
    """A sparse matrix stored as a Dataset of ``((i, j), value)`` pairs."""

    def __init__(self, data: Dataset, shape: tuple[int, int] | None = None):
        self.data = data
        self._shape = shape

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        context: DistributedContext,
        entries: dict[tuple[int, int], Any],
        shape: tuple[int, int] | None = None,
    ) -> "SparseMatrix":
        """Build a matrix from an ``{(i, j): value}`` mapping."""
        return cls(context.parallelize_pairs(entries), shape)

    @classmethod
    def from_dense(cls, context: DistributedContext, rows: list[list[Any]]) -> "SparseMatrix":
        """Build a matrix from nested lists (all entries kept, zeros included)."""
        entries = [((i, j), value) for i, row in enumerate(rows) for j, value in enumerate(row)]
        shape = (len(rows), len(rows[0]) if rows else 0)
        return cls(context.parallelize_raw(entries), shape)

    # -- inspection -------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        if self._shape is not None:
            return self._shape
        entries = self.data.collect()
        if not entries:
            return (0, 0)
        rows = max(key[0] for key, _ in entries) + 1
        columns = max(key[1] for key, _ in entries) + 1
        return (rows, columns)

    def nonzero_count(self) -> int:
        return self.data.count()

    def to_dict(self) -> dict[tuple[int, int], Any]:
        return self.data.collect_as_map()

    def to_dense(self, shape: tuple[int, int] | None = None) -> list[list[Any]]:
        """Nested lists with missing entries filled with 0."""
        entries = self.to_dict()
        rows, columns = shape if shape is not None else self.shape
        return [[entries.get((i, j), 0.0) for j in range(columns)] for i in range(rows)]

    def get(self, i: int, j: int, default: Any = 0.0) -> Any:
        return self.to_dict().get((i, j), default)

    # -- operations ----------------------------------------------------------------------

    def merge(self, other: "SparseMatrix") -> "SparseMatrix":
        """The ⊳ merge: entries of ``other`` replace entries of ``self``."""
        return SparseMatrix(self.data.merge(other.data), self._shape)

    def merge_with(self, other: "SparseMatrix", combine: Callable[[Any, Any], Any]) -> "SparseMatrix":
        """The ⊳⊕ merge."""
        return SparseMatrix(self.data.merge_with(other.data, combine), self._shape)

    def map_values(self, function: Callable[[Any], Any]) -> "SparseMatrix":
        return SparseMatrix(self.data.map_values(function), self._shape)

    def transpose(self) -> "SparseMatrix":
        """Swap row and column indexes."""
        transposed = self.data.map(lambda record: ((record[0][1], record[0][0]), record[1]))
        shape = None if self._shape is None else (self._shape[1], self._shape[0])
        return SparseMatrix(transposed, shape)

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        """Element-wise sum (the hand-written Matrix Addition baseline uses a join)."""
        return self.merge_with(other, lambda a, b: a + b)

    def multiply(self, other: "SparseMatrix") -> "SparseMatrix":
        """Matrix product via the paper's hand-written plan: join on the shared
        dimension, multiply, reduceByKey on the output coordinates."""
        left = self.data.map(lambda record: (record[0][1], (record[0][0], record[1])))
        right = other.data.map(lambda record: (record[0][0], (record[0][1], record[1])))
        joined = left.join(right)
        products = joined.map(
            lambda record: ((record[1][0][0], record[1][1][0]), record[1][0][1] * record[1][1][1])
        )
        result = products.reduce_by_key(lambda a, b: a + b)
        shape = None
        if self._shape is not None and other._shape is not None:
            shape = (self._shape[0], other._shape[1])
        return SparseMatrix(result, shape)

    def row_sums(self) -> SparseVector:
        """Vector of per-row sums."""
        sums = self.data.map(lambda record: (record[0][0], record[1])).reduce_by_key(lambda a, b: a + b)
        rows = None if self._shape is None else self._shape[0]
        return SparseVector(sums, rows)

    def scale(self, factor: float) -> "SparseMatrix":
        return self.map_values(lambda value: value * factor)

    def frobenius_error(self, other: "SparseMatrix") -> float:
        """Square root of the sum of squared entry differences (missing = 0)."""
        import math

        merged = self.data.full_outer_join(other.data)

        def squared(record: Any) -> float:
            _key, (left, right) = record
            a = left if left is not None else 0.0
            b = right if right is not None else 0.0
            return (a - b) * (a - b)

        return math.sqrt(merged.map(squared).fold(0.0, lambda a, b: a + b))


def require_context(dataset: Dataset) -> DistributedContext:
    """The context a dataset belongs to (helper for baseline code)."""
    context = dataset.context
    if context is None:
        raise ExecutionError("dataset has no context")
    return context
