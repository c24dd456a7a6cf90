"""An RDD-like partitioned dataset with a lazy, operator-fusing core.

:class:`Dataset` mirrors the part of the Spark Core API that the paper's
generated and hand-written programs use.  Data lives in a list of partitions;
*narrow* operations transform each partition independently, *shuffle*
operations redistribute records across partitions by key (and are counted by
the context's :class:`~repro.runtime.metrics.Metrics`).

Narrow operations are **lazy**: ``map``/``flat_map``/``filter``/``map_values``/
``map_partitions``/``sample`` do not run anything -- they append a
:class:`~repro.runtime.stage.NarrowStage` to a pending chain hanging off the
nearest materialized ancestor.  **Wide operations are lazy plan nodes too**:
``reduce_by_key``/``group_by_key``/``aggregate_by_key``/``distinct``/
``co_group``/the joins/``repartition``/``sort_by`` capture the pending narrow
chain of their input as the map side of a
:class:`~repro.runtime.stage.ShuffleStage` and return a pending dataset whose
force runs the whole shuffle -- map side, bucketing, and reduce side -- through
:meth:`DistributedContext.run_tasks`, so every executor (threads, processes
with the pickle fallback) parallelizes the hot wide operators, not just the
narrow chains between them.

Pending chains are *forced* at force points:

* **actions** (``collect``, ``count``, ``reduce``, ``take``, iteration, ...),
* **driver-side inspection** that needs real partitions
  (``zip_with_index``, ``zip_partitions``, ``cartesian``, sampling bounds for
  ``sort_by``), and
* **cache()** / **materialize()**, the explicit materialization points.

At a force point a narrow chain is fused by
:func:`repro.runtime.stage.compose` into a single per-partition task and
executed in one :meth:`DistributedContext.run_tasks` pass; a shuffle node is
executed by :meth:`DistributedContext.run_shuffle`.  Either way the task
descriptors are picklable stage chains the ``"processes"`` executor can ship
to worker processes.

Shuffles move :class:`~repro.runtime.spill.BucketPayload` descriptors, not
record lists: when the context enables ``spill_threshold_bytes`` the map side
spills bucket runs to disk past the budget and the reduce side streams them
back (``sort_by`` external-merges pre-sorted runs), so datasets larger than
the memory budget shuffle correctly -- with identical results, because the
streamed record order equals the in-memory order.

Joins pick a strategy when forced: a **broadcast hash join** when one side has
at most ``context.broadcast_join_threshold`` records (the build side is
collected into a lookup table shipped inside the probe tasks), a **shuffle
join** otherwise.  ``Dataset.explain()`` renders the pending plan.

Partitioner metadata is tracked through pending stages without forcing:
``filter``/``map_values``/``sample`` preserve the partitioner, ``map``/
``flat_map``/``map_partitions`` drop it, and shuffle nodes know their output
partitioner upfront.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import ExecutionError
from repro.runtime import stage as stage_mod
from repro.runtime.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.runtime.stage import NarrowStage, ShuffleInput, ShuffleStage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.context import DistributedContext

#: Default for ``DistributedContext.broadcast_join_threshold``: a join side
#: with at most this many records is broadcast instead of shuffled.  The
#: threshold only affects performance, never results.
DEFAULT_BROADCAST_JOIN_THRESHOLD = 100_000

#: Join strategies accepted by :meth:`Dataset.join`.
JOIN_STRATEGIES = ("auto", "shuffle", "broadcast")

#: Records sampled per output partition when ``sort_by`` derives range bounds.
SORT_SAMPLE_PER_PARTITION = 20


def choose_broadcast_side(left_count: int, right_count: int, threshold: int) -> str:
    """The shared size heuristic for broadcast strategies.

    Returns ``"right"``/``"left"`` for the side worth broadcasting (the
    smaller one, when it fits under ``threshold``) or ``"none"`` when neither
    side does.  Used by ``DistributedContext._try_broadcast_join`` (which then
    applies per-join-type eligibility) and by the comprehension evaluator's
    nested-loop products, so the runtime and the query layer agree on one
    strategy knob.
    """
    if right_count <= left_count and right_count <= threshold:
        return "right"
    if left_count < right_count and left_count <= threshold:
        return "left"
    return "none"


def _stage_notes(stages: tuple[Any, ...], columnar: Any, sources: bool = False) -> tuple[str, ...]:
    """Human-readable per-stage notes for ``explain()``: which logical
    operators each generated row-segment stage stands for (with its source
    text on request) and, under columnar execution, every record-function
    stage's vectorization outcome."""
    notes = []
    for stage in stages:
        function = stage.function
        if hasattr(function, "operators"):
            notes.append(f"generated: {function.label}")
            if sources:
                notes.extend(f"  | {line}" for line in function.source.splitlines())
    if columnar:
        notes.extend(
            f"vectorized: {kind}: {kernel}"
            if kernel is not None
            else f"vectorized: {kind}: record path ({note})"
            for kind, kernel, note in stage_mod.vectorization_report(stages, columnar)
        )
    return tuple(notes)


def _consumer_notes(consumer: Any, sources: bool = False) -> tuple[str, ...]:
    """The explain notes of a join's fused consumer."""
    return _stage_notes((NarrowStage(stage_mod.PARTITIONS, consumer),), False, sources)


class Dataset:
    """A partitioned collection of records.

    Datasets are created through a :class:`~repro.runtime.context.DistributedContext`
    (``parallelize``, ``range_dataset``, ``from_dict``) and transformed through
    the methods below.  Key-value datasets are simply datasets of 2-tuples.

    A dataset is either *materialized* (it owns a list of partitions) or
    *pending* (it records a chain of narrow stages over a source dataset; see
    the module docstring).  ``dataset.partitions`` transparently forces a
    pending dataset.
    """

    def __init__(
        self,
        context: "DistributedContext",
        partitions: list[list[Any]],
        partitioner: Partitioner | None = None,
    ):
        self.context = context
        self.partitioner = partitioner
        self.provenance: str | None = None
        self.adaptive_notes: tuple[str, ...] = ()
        self.stage_notes: tuple[str, ...] = ()
        self._materialized: list[list[Any]] | None = partitions
        self._source: "Dataset" | None = None
        self._stages: tuple[NarrowStage, ...] = ()
        self._shuffle: ShuffleStage | None = None
        self._force_lock = threading.Lock()
        context.metrics.record_dataset()

    @classmethod
    def _pending(
        cls,
        source: "Dataset",
        stages: tuple[NarrowStage, ...],
        partitioner: Partitioner | None,
    ) -> "Dataset":
        """A lazy dataset: ``stages`` pending over ``source`` (not yet counted
        as created -- it may never materialize)."""
        dataset = cls.__new__(cls)
        dataset.context = source.context
        dataset.partitioner = partitioner
        dataset.provenance = None
        dataset.adaptive_notes = ()
        dataset.stage_notes = ()
        dataset._materialized = None
        dataset._source = source
        dataset._stages = stages
        dataset._shuffle = None
        dataset._force_lock = threading.Lock()
        return dataset

    @classmethod
    def _pending_shuffle(cls, context: "DistributedContext", shuffle: ShuffleStage) -> "Dataset":
        """A lazy dataset whose force executes ``shuffle`` via
        :meth:`DistributedContext.run_shuffle`."""
        dataset = cls.__new__(cls)
        dataset.context = context
        dataset.partitioner = shuffle.result_partitioner
        dataset.provenance = None
        dataset.adaptive_notes = ()
        dataset.stage_notes = ()
        dataset._materialized = None
        dataset._source = None
        dataset._stages = ()
        dataset._shuffle = shuffle
        dataset._force_lock = threading.Lock()
        return dataset

    # -- laziness ---------------------------------------------------------------

    @property
    def is_materialized(self) -> bool:
        return self._materialized is not None

    @property
    def pending_stages(self) -> tuple[NarrowStage, ...]:
        """The narrow stages waiting to be fused (empty once materialized)."""
        with self._force_lock:
            return self._stages

    @property
    def partitions(self) -> list[list[Any]]:
        """The partition lists, forcing any pending stage chain.

        List-like, not necessarily lists: under the cluster executor a forced
        partition is a counted handle whose records stay on a worker until
        somebody looks at them (``len()`` never does)."""
        return self._forced(read=False)

    def _forced(self, read: bool) -> list[list[Any]]:
        """The partitions; an action that looks at every record right away
        passes ``read`` so a pending narrow chain brings them in its replies."""
        if self._materialized is None:
            with self._force_lock:
                if self._materialized is None:
                    self._force(read)
        return self._materialized

    def _force(self, read: bool = False) -> None:
        """Run the pending plan: a shuffle node via ``run_shuffle``, a narrow
        stage chain fused into one ``run_tasks`` pass."""
        if self._shuffle is not None:
            metrics = self.context.metrics
            log_start = len(metrics.adaptive_log)
            new_partitions, partitioner = self.context.run_shuffle(self._shuffle)
            # Adaptive decisions are made at force time; keep the ones this
            # shuffle triggered so ``explain()`` can render what actually ran.
            self.adaptive_notes = tuple(
                f"{entry['kind']}: {entry['reason']}"
                for entry in metrics.adaptive_log[log_start:]
            )
            metrics.record_dataset()
            if self._shuffle.consumer is not None:
                self.stage_notes = _consumer_notes(self._shuffle.consumer)
            self.partitioner = partitioner
            self._materialized = new_partitions
            self._shuffle = None
            return
        assert self._source is not None
        source_partitions = self._source.partitions
        stages = self._stages
        task = stage_mod.compose(stages, self.context.columnar)
        metrics = self.context.metrics
        if self.context.columnar:
            metrics.record_vectorization(
                *stage_mod.vectorization_counts(stages, self.context.columnar)
            )
        self.stage_notes = _stage_notes(stages, self.context.columnar)
        new_partitions = self.context.run_tasks(
            task, source_partitions, task_spec=stages, read=read
        )
        metrics.record_narrow(
            len(source_partitions), sum(len(partition) for partition in source_partitions)
        )
        metrics.record_fused(stage_mod.operator_count(stages))
        metrics.record_dataset()
        self._materialized = new_partitions
        self._source = None
        self._stages = ()

    def materialize(self) -> "Dataset":
        """Force the pending stage chain (if any) and return self."""
        _ = self.partitions
        return self

    def cache(self) -> "Dataset":
        """Materialization point: force pending stages so later uses reread
        the stored partitions instead of recomputing the chain."""
        return self.materialize()

    persist = cache

    def _with_stage(self, new_stage: NarrowStage, keep_partitioner: bool = False) -> "Dataset":
        partitioner = self.partitioner if keep_partitioner else None
        # Snapshot the plan under the lock: a concurrent force swaps
        # (_materialized, _source, _stages) and must not be seen half-done.
        with self._force_lock:
            if self._materialized is None and self._shuffle is None:
                assert self._source is not None
                return Dataset._pending(self._source, self._stages + (new_stage,), partitioner)
        # Materialized, or a pending shuffle (whose node cannot absorb
        # post-shuffle operators): start a fresh chain over self.
        return Dataset._pending(self, (new_stage,), partitioner)

    def _capture_plan(self) -> tuple["Dataset", tuple[NarrowStage, ...], int]:
        """Claim this dataset's pending narrow chain as a shuffle's map side.

        Returns ``(source, stages, captured_operators)``; for materialized or
        shuffle-pending datasets the dataset itself is the source and the
        chain is empty (a shuffle node forces itself when read).
        """
        with self._force_lock:
            if self._materialized is None and self._shuffle is None:
                assert self._source is not None
                return self._source, self._stages, stage_mod.operator_count(self._stages)
        return self, (), 0

    # -- basic properties -----------------------------------------------------

    @property
    def num_partitions(self) -> int:
        # Narrow stages preserve the partition count and shuffle nodes declare
        # theirs, so most pending datasets can answer without forcing.
        with self._force_lock:
            if self._materialized is not None:
                return len(self._materialized)
            shuffle = self._shuffle
            source = self._source
        if shuffle is not None:
            if shuffle.join_type is None or shuffle.strategy == "shuffle":
                return shuffle.num_output_partitions
            # An auto/broadcast join may resolve to a map-side join whose
            # output keeps the probe side's partition count: force to know.
            return len(self.partitions)
        assert source is not None
        return source.num_partitions

    def collect(self) -> list[Any]:
        """All records as a single list (driver side)."""
        return [record for partition in self._forced(read=True) for record in partition]

    def count(self) -> int:
        """Number of records."""
        return sum(len(partition) for partition in self.partitions)

    def is_empty(self) -> bool:
        return all(not partition for partition in self.partitions)

    def first(self) -> Any:
        """The first record; raises if the dataset is empty."""
        taken = self.take(1)
        if not taken:
            raise ExecutionError("first() on an empty dataset")
        return taken[0]

    def take(self, count: int) -> list[Any]:
        """Up to ``count`` records.

        Materialized and narrow-pending datasets are evaluated one partition
        at a time, stopping as soon as ``count`` records are in hand, so
        ``take(1)`` never runs later partitions' stage functions (the dataset
        itself stays pending).  Shuffle-pending datasets force normally -- a
        shuffle needs every input partition anyway."""
        if count <= 0:
            return []
        with self._force_lock:
            materialized = self._materialized
            source = self._source
            stages = self._stages
            shuffle = self._shuffle
        task = None
        if materialized is not None:
            partitions: list[list[Any]] = materialized
        elif source is not None and shuffle is None:
            partitions = source.partitions
            task = stage_mod.compose(stages, self.context.columnar)
        else:
            partitions = self.partitions
        taken: list[Any] = []
        for index, partition in enumerate(partitions):
            if len(taken) >= count:
                break
            if task is not None:
                partition = task(partition, index)
            for record in partition:
                taken.append(record)
                if len(taken) >= count:
                    break
        return taken

    def __iter__(self) -> Iterator[Any]:
        for partition in self._forced(read=True):
            yield from partition

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        with self._force_lock:
            shuffle = self._shuffle
        if shuffle is not None:
            return f"Dataset(pending_shuffle={shuffle.operation}, strategy={shuffle.strategy})"
        pending = self.pending_stages
        if pending:
            return (
                f"Dataset(partitions={self.num_partitions}, "
                f"pending={stage_mod.describe(pending)})"
            )
        return f"Dataset(partitions={self.num_partitions}, records={self.count()})"

    def explain(self, sources: bool = False) -> str:
        """Render the pending physical plan as an indented tree.

        Shuffle nodes show their operation, strategy, output partition count
        and whether a map-side combiner runs; narrow chains show the fused
        operator pipeline and, for each generated row-segment stage, the
        logical operators it stands for (``sources=True`` prints its source
        text too).  A materialized dataset is a plain ``Source`` (the plan
        was consumed when it was forced).
        """
        lines: list[str] = []
        self._explain_into(lines, 0, sources)
        return "\n".join(lines)

    def _explain_into(self, lines: list[str], depth: int, sources: bool = False) -> None:
        pad = "  " * depth
        with self._force_lock:
            materialized = self._materialized
            shuffle = self._shuffle
            stages = self._stages
            source = self._source
        if materialized is not None:
            suffix = (
                f", partitioner={type(self.partitioner).__name__}" if self.partitioner else ""
            )
            note = f" (shuffle eliminated: {self.provenance})" if self.provenance else ""
            lines.append(f"{pad}Source[{len(materialized)} partitions{suffix}]{note}")
            for adaptive_note in self.adaptive_notes:
                lines.append(f"{pad}  adaptive: {adaptive_note}")
            lines.extend(f"{pad}  {note}" for note in self.stage_notes)
            return
        if shuffle is not None:
            combiner = "yes" if any(inp.combiner for inp in shuffle.inputs) else "no"
            lines.append(
                f"{pad}ShuffleStage({shuffle.operation}, strategy={shuffle.strategy}, "
                f"partitions={shuffle.num_output_partitions}, combiner={combiner})"
            )
            if shuffle.consumer is not None:
                lines.extend(f"{pad}  {note}" for note in _consumer_notes(shuffle.consumer, sources))
            for shuffle_input in shuffle.inputs:
                if shuffle_input.stages:
                    lines.append(
                        f"{pad}  NarrowChain({stage_mod.describe(shuffle_input.stages)})"
                    )
                    lines.extend(
                        f"{pad}    {note}"
                        for note in _stage_notes(shuffle_input.stages, False, sources)
                    )
                    shuffle_input.source._explain_into(lines, depth + 2, sources)
                else:
                    shuffle_input.source._explain_into(lines, depth + 1, sources)
            return
        note = f" (shuffle eliminated: {self.provenance})" if self.provenance else ""
        lines.append(f"{pad}NarrowChain({stage_mod.describe(stages)}){note}")
        lines.extend(
            f"{pad}  {note}" for note in _stage_notes(stages, self.context.columnar, sources)
        )
        source._explain_into(lines, depth + 1, sources)

    # -- narrow transformations --------------------------------------------------

    def map(self, function: Callable[[Any], Any], preserves_partitioning: bool = False) -> "Dataset":
        """Apply ``function`` to every record (lazy).

        Pass ``preserves_partitioning=True`` only when ``function`` keeps
        every key-value record's key unchanged: the result then keeps the
        partitioner metadata, enabling downstream shuffle elimination.
        """
        return self._with_stage(
            NarrowStage(stage_mod.MAP, function), keep_partitioner=preserves_partitioning
        )

    def flat_map(
        self, function: Callable[[Any], Iterable[Any]], preserves_partitioning: bool = False
    ) -> "Dataset":
        """Apply ``function`` and concatenate the resulting iterables (lazy).

        ``preserves_partitioning`` as in :meth:`map`: every emitted record
        must keep the key of the record it came from.
        """
        return self._with_stage(
            NarrowStage(stage_mod.FLAT_MAP, function), keep_partitioner=preserves_partitioning
        )

    flatMap = flat_map

    def filter(self, predicate: Callable[[Any], bool]) -> "Dataset":
        """Keep the records for which ``predicate`` is true (lazy)."""
        return self._with_stage(NarrowStage(stage_mod.FILTER, predicate), keep_partitioner=True)

    def map_values(self, function: Callable[[Any], Any]) -> "Dataset":
        """Apply ``function`` to the value of every key-value record (lazy)."""
        return self._with_stage(NarrowStage(stage_mod.MAP_VALUES, function), keep_partitioner=True)

    mapValues = map_values

    def map_partitions(
        self,
        function: Callable[[list[Any]], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "Dataset":
        """Apply ``function`` to whole partitions (lazy).

        ``preserves_partitioning`` as in :meth:`map`: every emitted record
        must keep the key of a record of the same partition.
        """
        return self._with_stage(
            NarrowStage(stage_mod.PARTITIONS, function), keep_partitioner=preserves_partitioning
        )

    mapPartitions = map_partitions

    def key_by(self, function: Callable[[Any], Any]) -> "Dataset":
        """Turn records into ``(function(record), record)`` pairs."""
        return self.map(lambda record: (function(record), record))

    keyBy = key_by

    def keys(self) -> "Dataset":
        return self.map(lambda pair: pair[0])

    def values(self) -> "Dataset":
        return self.map(lambda pair: pair[1])

    def sample(self, fraction: float, seed: int = 17) -> "Dataset":
        """A deterministic pseudo-random sample of ``fraction`` of the records.

        Each partition samples with its own generator derived from
        ``(seed, partition index)``, so the result is identical under every
        executor mode and partition evaluation order.
        """
        return self._with_stage(
            NarrowStage(
                stage_mod.PARTITIONS_INDEXED,
                functools.partial(stage_mod.sample_partition, fraction, seed),
            ),
            keep_partitioner=True,
        )

    def zip_with_index(self) -> "Dataset":
        """Pair every record with its global index: ``(record, index)``."""
        partitions = self.partitions
        offsets = list(itertools.accumulate([0] + [len(p) for p in partitions[:-1]]))
        new_partitions = [
            [(record, offset + position) for position, record in enumerate(partition)]
            for offset, partition in zip(offsets, partitions, strict=False)
        ]
        self.context.metrics.record_narrow(self.num_partitions, self.count())
        return Dataset(self.context, new_partitions)

    zipWithIndex = zip_with_index

    def zip_partitions(
        self, other: "Dataset", function: Callable[[list[Any], list[Any]], Iterable[Any]]
    ) -> "Dataset":
        """Combine co-partitioned datasets partition by partition (no shuffle)."""
        if self.num_partitions != other.num_partitions:
            raise ExecutionError(
                "zip_partitions requires both datasets to have the same number of partitions"
            )
        new_partitions = [
            list(function(left, right)) for left, right in zip(self.partitions, other.partitions, strict=False)
        ]
        self.context.metrics.record_narrow(self.num_partitions, self.count() + other.count())
        return Dataset(self.context, new_partitions, self.partitioner)

    zipPartitions = zip_partitions

    def union(self, other: "Dataset", num_partitions: int | None = None) -> "Dataset":
        """Concatenate two datasets (no shuffle).

        Like Spark, the result has ``self.num_partitions + other.num_partitions``
        partitions -- repeated unions grow the partition count.  Pass
        ``num_partitions`` to repartition the result back down (this costs a
        round-robin shuffle).
        """
        combined = Dataset(self.context, self.partitions + other.partitions)
        if num_partitions is not None:
            return combined.repartition(num_partitions)
        return combined

    def cartesian(self, other: "Dataset") -> "Dataset":
        """All pairs of records; a shuffle in any distributed implementation."""
        left = self.collect()
        right = other.collect()
        self.context.metrics.record_shuffle("cartesian", len(left) + len(right))
        pairs = [(a, b) for a in left for b in right]
        return self.context.parallelize_raw(pairs)

    # -- actions -------------------------------------------------------------------

    def reduce(self, function: Callable[[Any, Any], Any]) -> Any:
        """Reduce all records with an associative, commutative function."""
        partial_results = [
            _reduce_list(partition, function)
            for partition in self._forced(read=True)
            if partition
        ]
        if not partial_results:
            raise ExecutionError("reduce() on an empty dataset")
        return _reduce_list(partial_results, function)

    def fold(self, zero: Any, function: Callable[[Any, Any], Any]) -> Any:
        """Like :meth:`reduce` but with an identity value for empty datasets."""
        result = zero
        for partition in self._forced(read=True):
            for record in partition:
                result = function(result, record)
        return result

    def aggregate(
        self, zero: Any, seq_op: Callable[[Any, Any], Any], comb_op: Callable[[Any, Any], Any]
    ) -> Any:
        """Two-level aggregation: ``seq_op`` within partitions, ``comb_op`` across."""
        partials = []
        for partition in self._forced(read=True):
            accumulator = zero
            for record in partition:
                accumulator = seq_op(accumulator, record)
            partials.append(accumulator)
        result = zero
        for partial in partials:
            result = comb_op(result, partial)
        return result

    def fold_partitions(
        self,
        fold: Callable[[list[Any]], Any],
        fuse: Callable[[Callable[..., Any]], Callable[..., Any] | None] | None = None,
    ) -> list[Any]:
        """Fold every partition inside its task; the partials in partition order.

        ``fold(records)`` reduces one partition.  When the pending chain ends
        in a whole-partition stage, ``fuse(its function)`` may return a
        replacement that folds inside its own loop and returns ``[partial]``
        (the planner's generated fold exit); otherwise the fold is appended
        to the chain.  Either way nothing but the partials reaches the driver.
        """
        source, stages, _ = self._capture_plan()
        fused = None
        if fuse is not None and stages and stages[-1].kind == stage_mod.PARTITIONS:
            fused = fuse(stages[-1].function)
        if fused is not None:
            chain = stages[:-1] + (NarrowStage(stage_mod.PARTITIONS, fused),)
            folded = Dataset._pending(source, chain, None)
        else:
            folded = self.map_partitions(functools.partial(stage_mod.fold_partition, fold))
        return [partition[0] for partition in folded._forced(read=True)]

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def count_by_value(self) -> dict[Any, int]:
        """Count occurrences of each distinct record (a shuffle)."""
        counts = self.map(lambda record: (record, 1)).reduce_by_key(lambda a, b: a + b)
        return dict(counts.collect())

    countByValue = count_by_value

    def count_by_key(self) -> dict[Any, int]:
        counts = self.map(lambda pair: (pair[0], 1)).reduce_by_key(lambda a, b: a + b)
        return dict(counts.collect())

    countByKey = count_by_key

    def collect_as_map(self) -> dict[Any, Any]:
        """Collect a key-value dataset into a dict (later keys win)."""
        return dict(self.collect())

    collectAsMap = collect_as_map

    def to_dict(self) -> dict[Any, Any]:
        return self.collect_as_map()

    # -- shuffle transformations ------------------------------------------------------

    def _narrow_keyed_eligible(self, partitioner: Partitioner | None) -> bool:
        """Whether a keyed wide operator over this dataset needs no shuffle.

        True when the (pending-aware) partitioner metadata proves every key's
        records already live in a single partition and the caller did not
        request a *different* placement.
        """
        return (
            self.context.plan_optimize
            and self.partitioner is not None
            and (partitioner is None or partitioner == self.partitioner)
        )

    def _narrow_keyed_pass(
        self, operation: str, function: Callable[[list[Any]], list[Any]] | None
    ) -> "Dataset":
        """Lower a keyed wide operator to a per-partition narrow pass.

        The per-partition ``function`` mirrors the operator's reduce-side
        bucket processor, so the output is record-for-record identical to the
        shuffle it replaces (see :mod:`repro.runtime.stage`).  ``None`` means
        the partitions already *are* that output (a generated fold exit
        combined each one), so there is no pass to add.

        The elimination counters are recorded here, at *plan* time (the
        narrow pass itself stays lazy): they count operators planned without
        a shuffle, the mirror image of ``metrics.shuffles`` which counts
        shuffles actually executed.
        """
        reason = f"input already partitioned by {_partitioner_label(self.partitioner)}"
        self.context.metrics.record_shuffle_eliminated(operation, reason)
        result = self
        if function is not None:
            result = self._with_stage(
                NarrowStage(stage_mod.PARTITIONS, function), keep_partitioner=True
            )
        result.provenance = f"{operation}: {reason}"
        return result

    def _narrow_zip_eligible(self, other: "Dataset", partitioner: Partitioner | None) -> bool:
        """Whether a two-input wide operator can run as a narrow zip stage."""
        return (
            self.context.plan_optimize
            and self.partitioner is not None
            and self.partitioner == other.partitioner
            and (partitioner is None or partitioner == self.partitioner)
        )

    def _zip_narrow(
        self,
        other: "Dataset",
        operation: str,
        task_function: Callable[[list[Any]], list[Any]],
        is_join: bool = False,
        consumer: Callable[..., Any] | None = None,
    ) -> "Dataset | None":
        """Run a co-partitioned two-input wide operator as a narrow zip stage.

        Each task receives ``[left partition, right partition]`` -- the exact
        records the shuffle would have routed to that reduce partition, in
        the same order -- and applies the operator's bucket logic.  Returns
        None when the partition counts disagree (metadata was stale; the
        caller falls back to the shuffle path).

        Runs **eagerly** (like ``partition_by``): zipping needs both sides'
        real partitions, so the pass executes at call time rather than
        becoming a pending plan node.  Callers in this stack force joins at
        statement boundaries anyway; the trade is noted here because it
        shifts *when* upstream user-code exceptions surface.
        """
        left_partitions = self.partitions
        right_partitions = other.partitions
        if len(left_partitions) != len(right_partitions):
            return None
        combined = [
            [left, right] for left, right in zip(left_partitions, right_partitions, strict=False)
        ]
        stages = (NarrowStage(stage_mod.PARTITIONS, task_function),)
        new_partitions = self.context.run_tasks(
            stage_mod.compose(stages), combined, task_spec=stages
        )
        metrics = self.context.metrics
        metrics.record_narrow(
            len(combined),
            sum(len(left) + len(right) for left, right in zip(left_partitions, right_partitions, strict=False)),
        )
        reason = f"both sides partitioned by {_partitioner_label(self.partitioner)}"
        metrics.record_shuffle_eliminated(operation, reason, narrow_join=True)
        if is_join:
            metrics.record_join_strategy("narrow")
        if consumer is not None:
            metrics.record_consumer(consumer, self.context.columnar)
        # A consumer's records are no longer the join's keyed pairs.
        result = Dataset(
            self.context, new_partitions, self.partitioner if consumer is None else None
        )
        if consumer is not None:
            result.stage_notes = _consumer_notes(consumer)
        result.provenance = f"{operation}: {reason}"
        return result

    def _key_shuffle(
        self,
        operation: str,
        partitioner: Partitioner | None,
        combiner: tuple[Any, ...] | None,
        reduce_stages: tuple[NarrowStage, ...],
        extra_map_stages: tuple[NarrowStage, ...] = (),
        result_partitioner: Partitioner | None | str = "chosen",
    ) -> "Dataset":
        """Build the single-input :class:`ShuffleStage` plan node every keyed
        wide operator shares (Section 'shuffles are plan nodes')."""
        chosen = partitioner or self.partitioner or HashPartitioner(self.context.num_partitions)
        source, stages, captured = self._capture_plan()
        # ``extra_map_stages`` re-key the records (distinct keys them by
        # themselves), so the captured partitioner metadata no longer
        # describes the keys being bucketed.
        claimed = None if extra_map_stages else self.partitioner
        shuffle = ShuffleStage(
            operation=operation,
            inputs=(ShuffleInput(source, stages + extra_map_stages, combiner, captured, claimed),),
            num_output_partitions=chosen.num_partitions,
            reduce_stages=reduce_stages,
            partitioner=chosen,
            result_partitioner=chosen if result_partitioner == "chosen" else result_partitioner,
        )
        return Dataset._pending_shuffle(self.context, shuffle)

    def partition_by(self, partitioner: Partitioner) -> "Dataset":
        """Repartition a key-value dataset with an explicit partitioner.

        Runs eagerly (callers use it to co-locate datasets before
        shuffle-free zips); the shuffle itself still dispatches its map side
        through the executor.
        """
        if self.partitioner == partitioner:
            return self
        placed = self._key_shuffle("partitionBy", partitioner, None, reduce_stages=())
        return placed.materialize()

    partitionBy = partition_by

    def repartition(self, num_partitions: int) -> "Dataset":
        """Redistribute records round-robin into ``num_partitions`` partitions
        (lazy; a key-less shuffle through the same plan layer)."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        source, stages, captured = self._capture_plan()
        shuffle = ShuffleStage(
            operation="repartition",
            inputs=(ShuffleInput(source, stages, None, captured),),
            num_output_partitions=num_partitions,
            reduce_stages=(),
            partitioner=None,
        )
        return Dataset._pending_shuffle(self.context, shuffle)

    def group_by_key(self, partitioner: Partitioner | None = None) -> "Dataset":
        """Group a key-value dataset into ``(key, [values])``.

        A shuffle -- unless the input already carries the required
        partitioner, in which case each partition groups independently with
        no :class:`ShuffleStage` at all.
        """
        if self._narrow_keyed_eligible(partitioner):
            return self._narrow_keyed_pass("groupByKey", stage_mod.narrow_group_partition)
        return self._key_shuffle(
            "groupByKey",
            partitioner,
            None,
            reduce_stages=(NarrowStage(stage_mod.PARTITIONS, stage_mod.group_bucket),),
        )

    groupByKey = group_by_key

    def group_by(self, key_function: Callable[[Any], Any]) -> "Dataset":
        """Group records by ``key_function`` into ``(key, [records])``."""
        return self.map(lambda record: (key_function(record), record)).group_by_key()

    groupBy = group_by

    def reduce_by_key(
        self,
        function: Callable[[Any, Any], Any],
        partitioner: Partitioner | None = None,
        folded: bool = False,
    ) -> "Dataset":
        """Combine values per key with map-side pre-aggregation, then shuffle.

        This mirrors Spark: the combiner runs inside the map-side shuffle
        tasks (which also report the record counts the metrics need -- no
        extra driver pass over the data), so only one record per
        (partition, key) crosses the shuffle.  On an input that already
        carries the required partitioner the whole operator runs as a
        per-partition narrow pass instead -- no shuffle.

        ``folded`` says every partition is already combined per key with
        ``function`` (:class:`~repro.runtime.stage.FoldedRecords` from the
        planner's generated fold exit): the map-side combine -- or the whole
        narrow pass -- is then not run a second time.
        """
        if self._narrow_keyed_eligible(partitioner):
            return self._narrow_keyed_pass(
                "reduceByKey",
                None
                if folded
                else functools.partial(
                    stage_mod.apply_combiner,
                    ("reduce", function),
                    columnar=self.context.columnar,
                ),
            )
        return self._key_shuffle(
            "reduceByKey",
            partitioner,
            ("folded" if folded else "reduce", function),
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS, functools.partial(stage_mod.reduce_bucket, function)
                ),
            ),
        )

    reduceByKey = reduce_by_key

    def aggregate_by_key(
        self,
        zero: Any,
        seq_op: Callable[[Any, Any], Any],
        comb_op: Callable[[Any, Any], Any],
        partitioner: Partitioner | None = None,
    ) -> "Dataset":
        """Per-key aggregation with a zero element (Spark's aggregateByKey)."""
        if self._narrow_keyed_eligible(partitioner):
            return self._narrow_keyed_pass(
                "aggregateByKey",
                functools.partial(
                    stage_mod.apply_combiner,
                    ("seq", zero, seq_op),
                    columnar=self.context.columnar,
                ),
            )
        return self._key_shuffle(
            "aggregateByKey",
            partitioner,
            ("seq", zero, seq_op),
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS, functools.partial(stage_mod.reduce_bucket, comb_op)
                ),
            ),
        )

    aggregateByKey = aggregate_by_key

    def distinct(self) -> "Dataset":
        """Remove duplicate records (a shuffle with a dedup combiner)."""
        return self._key_shuffle(
            "distinct",
            HashPartitioner(self.context.num_partitions),
            ("reduce", stage_mod.keep_first),
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS,
                    functools.partial(stage_mod.reduce_bucket, stage_mod.keep_first),
                ),
                NarrowStage(stage_mod.MAP, stage_mod.take_key),
            ),
            extra_map_stages=(NarrowStage(stage_mod.MAP, stage_mod.pair_with_none),),
            result_partitioner=None,
        )

    def sort_by(self, key_function: Callable[[Any], Any], ascending: bool = True) -> "Dataset":
        """Globally sort records via a sampled range-partitioned shuffle.

        Split points come from a stride sample of the (materialized) input;
        each reduce task then sorts one contiguous key range, so nothing is
        collected to the driver and -- for ascending sorts -- the output keeps
        a meaningful :class:`RangePartitioner`.
        """
        partitions = self.partitions  # the sample needs real records
        total = sum(len(partition) for partition in partitions)
        num_output = self.context.num_partitions
        if total == 0:
            return Dataset(self.context, [[] for _ in range(num_output)])
        step = max(1, total // max(1, num_output * SORT_SAMPLE_PER_PARTITION))
        sample = [
            key_function(record)
            for partition in partitions
            for record in partition[::step]
        ]
        if self.context.adaptive:
            # Adaptive bounds: aggregate the sample into a per-key histogram
            # and place split points at frequency-weighted quantiles, so a
            # hot key pulls a whole partition range to itself instead of
            # dragging its neighbours' keys into one overloaded partition.
            histogram = Counter(sample)
            range_partitioner = RangePartitioner.from_histogram(
                num_output, histogram.items()
            )
            self.context.metrics.record_adaptive_decision(
                "sortBy",
                "histogram-range-bounds",
                f"bounds from a {len(histogram)}-key histogram of "
                f"{len(sample)} sampled records",
            )
        else:
            range_partitioner = RangePartitioner.from_sample(num_output, sample)
        # Bound dedup on skewed samples may shrink the effective split count;
        # the shuffle's output width must follow the partitioner.
        num_output = range_partitioner.num_partitions
        # Partitioner metadata promises "records are placed by record[0]", so
        # only sort_by_key (whose sort key IS the pair key) may keep it; an
        # arbitrary key_function would poison downstream keyed shuffles.
        keyed_by_pair = key_function is stage_mod.pair_key
        shuffle = ShuffleStage(
            operation="sortBy",
            inputs=(ShuffleInput(self, (), None, 0),),
            num_output_partitions=num_output,
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS,
                    functools.partial(stage_mod.sort_bucket, key_function, ascending),
                ),
            ),
            partitioner=range_partitioner,
            result_partitioner=range_partitioner if (ascending and keyed_by_pair) else None,
            key_function=key_function,
            reverse_output=not ascending,
            # Lets a spill-enabled context write pre-sorted runs on the map
            # side and external-merge them on the reduce side.
            sort_ascending=ascending,
        )
        return Dataset._pending_shuffle(self.context, shuffle)

    sortBy = sort_by

    def sort_by_key(self, ascending: bool = True) -> "Dataset":
        return self.sort_by(stage_mod.pair_key, ascending)

    sortByKey = sort_by_key

    # -- joins ---------------------------------------------------------------------

    def _two_sided_shuffle(
        self,
        other: "Dataset",
        operation: str,
        partitioner: Partitioner | None,
        reduce_stages: tuple[NarrowStage, ...],
        join_type: str | None = None,
        strategy: str = "shuffle",
        result_partitioner: Partitioner | None = None,
        consumer: Callable[..., Any] | None = None,
    ) -> "Dataset":
        chosen = partitioner or HashPartitioner(self.context.num_partitions)
        left_source, left_stages, left_captured = self._capture_plan()
        right_source, right_stages, right_captured = other._capture_plan()
        shuffle = ShuffleStage(
            operation=operation,
            inputs=(
                ShuffleInput(left_source, left_stages, None, left_captured, self.partitioner),
                ShuffleInput(right_source, right_stages, None, right_captured, other.partitioner),
            ),
            num_output_partitions=chosen.num_partitions,
            reduce_stages=reduce_stages,
            partitioner=chosen,
            result_partitioner=result_partitioner,
            join_type=join_type,
            strategy=strategy,
            consumer=consumer,
        )
        return Dataset._pending_shuffle(self.context, shuffle)

    def co_group(self, other: "Dataset", partitioner: Partitioner | None = None) -> "Dataset":
        """Group two key-value datasets by key: ``(key, ([left values], [right values]))``.

        Co-partitioned inputs (equal partitioners) co-group as a narrow zip
        stage with no shuffle.
        """
        return self._co_grouped(
            other, partitioner, stage_mod.zip_cogroup_partition, stage_mod.cogroup_bucket
        )

    coGroup = co_group
    cogroup = co_group

    def _co_grouped(
        self,
        other: "Dataset",
        partitioner: Partitioner | None,
        zip_function: Callable[[list[Any]], list[Any]],
        bucket_function: Callable[[list[Any]], list[Any]],
    ) -> "Dataset":
        """A ``"coGroup"`` operator: ``zip_function`` over each ``[left,
        right]`` partition pair when the inputs are co-partitioned, else
        ``bucket_function`` over each bucket of a two-sided shuffle; either
        way the result keeps the grouping partitioner."""
        if self._narrow_zip_eligible(other, partitioner):
            narrow = self._zip_narrow(other, "coGroup", zip_function)
            if narrow is not None:
                return narrow
        chosen = partitioner or HashPartitioner(self.context.num_partitions)
        return self._two_sided_shuffle(
            other,
            "coGroup",
            chosen,
            reduce_stages=(NarrowStage(stage_mod.PARTITIONS, bucket_function),),
            result_partitioner=chosen,
        )

    def _join(
        self,
        other: "Dataset",
        how: str,
        partitioner: Partitioner | None,
        strategy: str | None,
        consumer: Callable[..., Any] | None = None,
    ) -> "Dataset":
        if strategy is None:
            # An explicit partitioner is a placement request; honor it with a
            # shuffle join.  Otherwise let the planner pick at force time.
            strategy = "shuffle" if partitioner is not None else "auto"
        if strategy not in JOIN_STRATEGIES:
            raise ValueError(f"unknown join strategy {strategy!r}")
        operation = "join" if how == "inner" else f"{how}OuterJoin"
        if strategy != "broadcast" and self._narrow_zip_eligible(other, partitioner):
            narrow = self._zip_narrow(
                other,
                operation,
                functools.partial(stage_mod.zip_join_partition, how, consumer=consumer),
                is_join=True,
                consumer=consumer,
            )
            if narrow is not None:
                return narrow
        return self._two_sided_shuffle(
            other,
            operation,
            partitioner,
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS,
                    functools.partial(stage_mod.join_bucket, how, consumer=consumer),
                ),
            ),
            join_type=how,
            strategy=strategy,
            consumer=consumer,
        )

    def join(
        self,
        other: "Dataset",
        partitioner: Partitioner | None = None,
        strategy: str | None = None,
        consumer: Callable[..., Any] | None = None,
    ) -> "Dataset":
        """Inner equi-join of key-value datasets: ``(key, (left, right))``.

        The strategy is chosen when the plan is forced: a broadcast hash join
        when one side has at most ``context.broadcast_join_threshold``
        records, a shuffle join otherwise.  Pass ``strategy="shuffle"`` or
        ``"broadcast"`` to override.

        With a ``consumer`` (the planner's generated function, see
        :mod:`repro.algebra.codegen`) the joined pairs are never built: every
        physical join hands its ``(key, left values, right values)`` groups
        to ``consumer`` inside the join task, and the result holds whatever
        records the consumer returns per partition (no partitioner).
        """
        return self._join(other, "inner", partitioner, strategy, consumer)

    def left_outer_join(
        self,
        other: "Dataset",
        partitioner: Partitioner | None = None,
        strategy: str | None = None,
    ) -> "Dataset":
        """Left outer join: right side is ``None`` when the key is missing.
        Only the right side is eligible for broadcasting."""
        return self._join(other, "left", partitioner, strategy)

    leftOuterJoin = left_outer_join

    def right_outer_join(
        self,
        other: "Dataset",
        partitioner: Partitioner | None = None,
        strategy: str | None = None,
    ) -> "Dataset":
        """Right outer join; only the left side is eligible for broadcasting."""
        return self._join(other, "right", partitioner, strategy)

    rightOuterJoin = right_outer_join

    def full_outer_join(self, other: "Dataset", partitioner: Partitioner | None = None) -> "Dataset":
        """Full outer join (always a shuffle join: neither side can be
        broadcast without losing unmatched build-side keys)."""
        return self._join(other, "full", partitioner, "shuffle")

    fullOuterJoin = full_outer_join

    def broadcast_join(self, other: "Dataset") -> "Dataset":
        """Map-side inner join: ``other`` is collected and broadcast.

        Use when ``other`` is small (e.g. the centroid table in KMeans); no
        shuffle of the left side is needed.  Equivalent to
        ``join(other, strategy="broadcast")``.
        """
        return self._join(other, "inner", None, "broadcast")

    # -- array-merge helpers (Section 3.4) ------------------------------------------

    def merge(self, other: "Dataset") -> "Dataset":
        """The ⊳ operation: union of two key-value datasets, right side wins.

        A coGroup whose reduce side (or zip pass) writes the merged records
        directly (:func:`~repro.runtime.stage.merge_bucket` /
        :func:`~repro.runtime.stage.zip_merge_partition`): one record per
        key, keeping the coGroup's partitioner -- chained merges on the same
        key then run as narrow zip stages instead of re-shuffling.
        """
        return self._merged(other, None)

    def merge_with(self, other: "Dataset", function: Callable[[Any, Any], Any]) -> "Dataset":
        """The ⊕-aware merge ⊳⊕: combine values present on both sides with ``function``.

        One pass like :meth:`merge`, so the partitioner survives.
        """
        return self._merged(other, function)

    def _merged(self, other: "Dataset", function: Callable[[Any, Any], Any] | None) -> "Dataset":
        return self._co_grouped(
            other,
            None,
            functools.partial(stage_mod.zip_merge_partition, function),
            functools.partial(stage_mod.merge_bucket, function),
        )


def _partitioner_label(partitioner: Partitioner | None) -> str:
    """Human-readable partitioner tag for traces and explain output."""
    if partitioner is None:
        return "None"
    return f"{type(partitioner).__name__}({partitioner.num_partitions})"


def _reduce_list(values: list[Any], function: Callable[[Any, Any], Any]) -> Any:
    iterator = iter(values)
    result = next(iterator)
    for value in iterator:
        result = function(result, value)
    return result
