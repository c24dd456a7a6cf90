"""Partitioners: how keys are mapped to partitions during a shuffle.

Partitioners are shipped inside shuffle task descriptors to worker processes
(see :mod:`repro.runtime.stage`), so :func:`stable_hash` must produce the same
value for the same key in *every* process.  Python's built-in ``hash`` is
randomized per interpreter run for ``str``/``bytes`` (PYTHONHASHSEED); using it
for bucketing would send the same key to different partitions depending on
which worker hashed it, silently corrupting group-bys and joins.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Iterable, Sequence

#: The hash of every NaN float: ``hash(nan)`` depends on the object's
#: identity since Python 3.10, so two NaNs (or one NaN after a pickle round
#: trip) would otherwise land in different partitions.  0 is what ``hash``
#: returned for NaN before 3.10.
_NAN_HASH = 0

#: Key types for which :func:`stable_hash` is exactly the built-in ``hash``
#: (NaN floats aside): :meth:`HashPartitioner.partition_all` and
#: :func:`_tuple_hash` skip the recursive call for them.
_BUILTIN_HASHED = frozenset((int, float, bool))


def stable_hash(key: Any) -> int:
    """A process-stable hash for shuffle bucketing.

    ``str``/``bytes`` (and containers holding them) are hashed with CRC32 so
    every executor process agrees on placement; numeric types keep the
    built-in ``hash`` so keys that compare equal across types (``1 == 1.0``)
    land in the same partition.  Every NaN float hashes to one constant.
    """
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8", "surrogatepass"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        return _tuple_hash(key)
    if isinstance(key, frozenset):
        # Order-independent combination, like the built-in frozenset hash.
        result = len(key)
        for element in key:
            result ^= stable_hash(element)
        return result
    if key is None:
        # hash(None) is id-based before Python 3.12, hence process-unstable.
        return 0x9E3779B9
    # ints, floats, bools: numeric hashing is deterministic AND consistent
    # across equal values of different types (hash(1) == hash(1.0)), which a
    # repr-based fallback could not preserve.  CAVEAT: a user type whose
    # custom __hash__ folds in str fields (e.g. a frozen dataclass with a
    # string attribute) inherits the per-process randomization; such keys
    # must be converted to tuples/strings before shuffling by key.
    if isinstance(key, float) and key != key:
        return _NAN_HASH
    return hash(key)


def _tuple_hash(key: tuple) -> int:
    """:func:`stable_hash` of a tuple: the classic polynomial combiner over
    stable element hashes, with builtin-hashed non-NaN elements hashed
    inline instead of through the recursive call."""
    result = 0x345678
    for element in key:
        kind = type(element)
        if kind is int or (kind in _BUILTIN_HASHED and element == element):
            element_hash = hash(element)
        else:
            element_hash = stable_hash(element)
        result = (result * 1000003 ^ element_hash) & 0xFFFFFFFF
    return result ^ len(key)


class Partitioner:
    """Base class: maps a key to a partition index in ``[0, num_partitions)``."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def partition_all(self, keys: Iterable[Any]) -> list[int]:
        """The partition of every key, in order (one map partition's bucket
        targets)."""
        return [self.partition(key) for key in keys]

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Spark's default: ``stable_hash(key) mod num_partitions``.

    Uses :func:`stable_hash` (not the built-in ``hash``) so map-side bucketing
    can run inside worker processes: every process places a given key in the
    same partition regardless of its hash randomization seed.
    """

    def partition(self, key: Any) -> int:
        return stable_hash(key) % self.num_partitions

    def partition_all(self, keys: Iterable[Any]) -> list[int]:
        # ``key == key`` is False only for NaN among the builtin-hashed types.
        # Exact tuples and strs skip stable_hash's type tests (subclasses,
        # such as SaltedKey or namedtuples, still go through it); the str
        # branch is stable_hash's own, so the tuple test costs str keys nothing.
        n = self.num_partitions
        return [
            hash(key) % n
            if type(key) in _BUILTIN_HASHED and key == key
            else _tuple_hash(key) % n
            if type(key) is tuple
            else zlib.crc32(key.encode("utf-8", "surrogatepass")) % n
            if type(key) is str
            else stable_hash(key) % n
            for key in keys
        ]


class RangePartitioner(Partitioner):
    """Partitions ordered keys into contiguous ranges given split points.

    ``bounds`` must be sorted ascending; key ``k`` goes to the first partition
    ``i`` with ``k <= bounds[i]``, or to the last partition.
    """

    def __init__(self, num_partitions: int, bounds: Sequence[Any]):
        super().__init__(num_partitions)
        self.bounds = list(bounds)
        if len(self.bounds) != num_partitions - 1:
            raise ValueError("expected num_partitions - 1 bounds")

    @classmethod
    def from_sample(cls, num_partitions: int, sample: Iterable[Any]) -> "RangePartitioner":
        """Build a partitioner from a sample of keys, using evenly spaced
        quantiles of the sorted sample as split points (Spark's sortByKey
        strategy).  The sample must be non-empty when ``num_partitions > 1``.

        Skewed or low-cardinality samples repeat quantile values; duplicate
        split points would make ``bisect_left`` route *every* record for the
        repeated key range to one hot partition and leave the others empty,
        so duplicates are dropped and the partitioner covers fewer (but
        non-degenerate) ranges.  Callers must use the returned partitioner's
        ``num_partitions``, which may be smaller than requested."""
        ordered = sorted(sample)
        if num_partitions > 1 and not ordered:
            raise ValueError("cannot derive range bounds from an empty sample")
        bounds: list[Any] = []
        for index in range(1, num_partitions):
            bound = ordered[(index * len(ordered)) // num_partitions]
            if not bounds or bound != bounds[-1]:
                bounds.append(bound)
        return cls(len(bounds) + 1, bounds)

    @classmethod
    def from_histogram(
        cls, num_partitions: int, histogram: Iterable[tuple[Any, int]]
    ) -> "RangePartitioner":
        """Build a partitioner from a sampled ``(key, count)`` histogram.

        Split points are placed at even quantiles of the *frequency-weighted*
        key distribution, so a key that appears 1000x as often as another
        pulls 1000x the weight toward its range -- under zipf-skewed data
        this balances per-partition record counts where an unweighted sample
        of distinct keys would pack the hot range into one partition.  Like
        :meth:`from_sample`, duplicate split points are dropped, so the
        returned partitioner may cover fewer ranges than requested."""
        ordered = sorted(histogram)
        if num_partitions > 1 and not ordered:
            raise ValueError("cannot derive range bounds from an empty histogram")
        total = sum(count for _key, count in ordered)
        bounds: list[Any] = []
        cumulative = 0
        next_split = 1
        for key, count in ordered:
            cumulative += count
            while next_split < num_partitions and cumulative * num_partitions >= next_split * total:
                if not bounds or key != bounds[-1]:
                    bounds.append(key)
                next_split += 1
        return cls(len(bounds) + 1, bounds)

    def partition(self, key: Any) -> int:
        index = bisect.bisect_left(self.bounds, key)
        return min(index, self.num_partitions - 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and self.num_partitions == other.num_partitions
            and self.bounds == other.bounds
        )

    def __hash__(self) -> int:
        return hash(("RangePartitioner", self.num_partitions, tuple(self.bounds)))
