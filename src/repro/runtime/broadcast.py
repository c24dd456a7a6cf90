"""Broadcast variables: read-only values shared with every task.

On a cluster a broadcast ships one copy of a value to each executor instead of
once per task; here it is a thin wrapper that exists so hand-written baseline
programs (e.g. KMeans, which broadcasts the centroids) have the same structure
as their Spark originals and so the metrics can count broadcasts.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")


class Broadcast(Generic[T]):
    """A read-only value addressable from any task via ``.value``."""

    def __init__(self, value: T, broadcast_id: int = 0):
        self._value = value
        self.id = broadcast_id

    @property
    def value(self) -> T:
        return self._value

    def __repr__(self) -> str:
        return f"Broadcast(id={self.id})"
