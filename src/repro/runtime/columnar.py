"""What is left of the retired columnar batch engine: one class nothing calls."""

from __future__ import annotations

from typing import Any


# Nothing calls this class: bench/trace.py's WRAP_TABLE is its only reader,
# and ROADMAP item 0(a) deletes it.
class ColumnarPartition:
    @classmethod
    def from_records(cls, records: list[Any]) -> None:
        raise NotImplementedError

    def to_records(self) -> list[Any]:
        raise NotImplementedError
