"""A local DISC (data-intensive scalable computing) runtime.

This package is the substrate that plays the role of Spark Core in the paper:
a partitioned, RDD-like :class:`~repro.runtime.dataset.Dataset` with the
narrow operations the translation emits (map, flatMap, filter, mapValues,
mapPartitions) and its shuffle operations (reduceByKey, groupByKey,
partitionBy, join, coGroup and the array merges),
a :class:`~repro.runtime.context.DistributedContext` that creates
datasets and broadcasts, hash partitioners, and per-context metrics that count
shuffles and shuffled records so benchmarks can make machine-independent
assertions about plan *shape*.

Narrow operations are **lazy and fusing**: chains of maps/filters accumulate
as pending :mod:`~repro.runtime.stage` descriptors and run as a single
per-partition pass when an action forces them.  Wide operations are lazy
:class:`~repro.runtime.stage.ShuffleStage` plan nodes that capture the map-side
chain, an optional combiner and a partitioner, and execute both their map and
reduce sides through the executor.  The context executes stages
``"sequential"``-ly in the driver; the ``"cluster"`` executor
(:mod:`repro.runtime.cluster`) ships them to worker processes.
Either way the runtime preserves the data-movement structure of a cluster:
every shuffle operation redistributes records by key across partitions and is
counted as such (records, estimated bytes, combiner effectiveness, join
strategy).
"""

from repro.runtime.context import DistributedContext
from repro.runtime.dataset import DEFAULT_BROADCAST_JOIN_THRESHOLD, Dataset
from repro.runtime.broadcast import Broadcast
from repro.runtime.metrics import Metrics
from repro.runtime.partitioner import HashPartitioner, Partitioner, RangePartitioner, stable_hash
from repro.runtime.spill import BucketPayload, ShuffleStore, SpillRun, SpillSpec
from repro.runtime.stage import NarrowStage, ShuffleInput, ShuffleStage

__all__ = [
    "DistributedContext",
    "DEFAULT_BROADCAST_JOIN_THRESHOLD",
    "Dataset",
    "Broadcast",
    "Metrics",
    "NarrowStage",
    "ShuffleInput",
    "ShuffleStage",
    "BucketPayload",
    "ShuffleStore",
    "SpillRun",
    "SpillSpec",
    "HashPartitioner",
    "RangePartitioner",
    "Partitioner",
    "stable_hash",
]
