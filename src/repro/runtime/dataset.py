"""An RDD-like partitioned dataset with a lazy, operator-fusing core.

:class:`Dataset` carries the operators the paper's generated and hand-written
programs run.  Data lives in a list of partitions; *narrow* operations
transform each partition independently, *shuffle* operations redistribute
records across partitions by key (and are counted by the context's
:class:`~repro.runtime.metrics.Metrics`).

Narrow operations are **lazy**: ``map``/``flat_map``/``filter``/``map_values``/
``map_partitions`` do not run anything -- they append a
:class:`~repro.runtime.stage.NarrowStage` to a pending chain hanging off the
nearest materialized ancestor.  **Wide operations are lazy plan nodes too**:
``reduce_by_key``/``group_by_key``/``co_group``/the joins/the array merges
capture the pending narrow chain of their input as the map side of a
:class:`~repro.runtime.stage.ShuffleStage` and return a pending dataset whose
force runs the whole shuffle -- map side, bucketing, and reduce side -- through
:meth:`DistributedContext.run_tasks`, so the cluster executor runs the hot
wide operators on its workers, not just the narrow chains between them.

Pending chains are *forced* at force points:

* **actions** (``collect``, ``count``, ``reduce``, ``take``, iteration, ...),
* **driver-side inspection** that needs real partitions
  (``cartesian``, ``partition_by``), and
* **cache()** / **materialize()**, the explicit materialization points.

At a force point a narrow chain is fused by
:func:`repro.runtime.stage.compose` into a single per-partition task and
executed in one :meth:`DistributedContext.run_tasks` pass; a shuffle node is
executed by :meth:`DistributedContext.run_shuffle`.  Either way the task
descriptors are stage chains the ``"cluster"`` executor can ship to worker
processes.

Shuffles move :class:`~repro.runtime.spill.BucketPayload` descriptors, not
record lists: when the context enables ``spill_threshold_bytes`` the map side
spills bucket runs to disk past the budget and the reduce side streams them
back, so datasets larger than the memory budget shuffle correctly -- with
identical results, because the streamed record order equals the in-memory
order.

Joins pick a strategy when forced: a **broadcast hash join** when one side has
at most ``context.broadcast_join_threshold`` records (the build side is
collected into a lookup table shipped inside the probe tasks), a **shuffle
join** otherwise.  ``Dataset.explain()`` renders the pending plan.

Partitioner metadata is tracked through pending stages without forcing:
``filter``/``map_values`` preserve the partitioner, ``map``/``flat_map``/
``map_partitions`` drop it, and shuffle nodes know their output partitioner
upfront.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import ExecutionError
from repro.runtime import stage as stage_mod
from repro.runtime.partitioner import HashPartitioner, Partitioner, SlotPartitioner
from repro.runtime.stage import NarrowStage, ShuffleInput, ShuffleStage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.context import DistributedContext

#: Default for ``DistributedContext.broadcast_join_threshold``: a join side
#: with at most this many records is broadcast instead of shuffled.  The
#: threshold only affects performance, never results.
DEFAULT_BROADCAST_JOIN_THRESHOLD = 100_000

def choose_broadcast_side(left_count: int, right_count: int, threshold: int) -> str:
    """The shared size heuristic for broadcast strategies.

    Returns ``"right"``/``"left"`` for the side worth broadcasting (the
    smaller one, when it fits under ``threshold``) or ``"none"`` when neither
    side does.  Used by ``DistributedContext.resolve_join`` and by the
    comprehension evaluator's nested-loop products, so the runtime and the
    query layer agree on one strategy knob.
    """
    if right_count <= left_count and right_count <= threshold:
        return "right"
    if left_count < right_count and left_count <= threshold:
        return "left"
    return "none"


def _stage_notes(stages: tuple[Any, ...], sources: bool = False) -> tuple[str, ...]:
    """Human-readable per-stage notes for ``explain()``: which logical
    operators each generated row-segment stage stands for (with its source
    text on request)."""
    notes = []
    for stage in stages:
        function = stage.function
        if hasattr(function, "operators"):
            notes.append(f"generated: {function.label}")
            if sources:
                notes.extend(f"  | {line}" for line in function.source.splitlines())
    return tuple(notes)


def _consumer_notes(consumer: Any, sources: bool = False) -> tuple[str, ...]:
    """The explain notes of a join's fused consumer."""
    return _stage_notes((NarrowStage(stage_mod.PARTITIONS, consumer),), sources)


class Dataset:
    """A partitioned collection of records.

    Datasets are created through a :class:`~repro.runtime.context.DistributedContext`
    (``parallelize``, ``range_dataset``, ``parallelize_pairs``) and transformed through
    the methods below.  Key-value datasets are simply datasets of 2-tuples.

    A dataset is either *materialized* (it owns a list of partitions) or
    *pending* (it records a chain of narrow stages over a source dataset; see
    the module docstring).  ``dataset.partitions`` transparently forces a
    pending dataset.
    """

    #: A positional source's partition start offsets (set by
    #: :meth:`DistributedContext.indexed` on the dataset of plain elements
    #: its positions stage numbers); None for every other dataset.
    offsets: tuple[int, ...] | None = None

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
        stage chain fused into one ``run_tasks`` pass (a join that
        broadcasts is the narrow chain of its probe, see
        :meth:`_resolve_join`)."""
        metrics = self.context.metrics
        decided = metrics.adaptive_decisions
        self._resolve_join()
        if self._shuffle is not None:
            new_partitions, partitioner = self.context.run_shuffle(self._shuffle)
            # Adaptive decisions are made at force time; keep the ones this
            # shuffle triggered so ``explain()`` can render what actually ran.
            self.adaptive_notes = tuple(
                f"{entry['kind']}: {entry['reason']}"
                for entry in metrics.decisions_after(decided)
            )
            metrics.record_dataset()
            if self._shuffle.consumer is not None:
                self.stage_notes = _consumer_notes(self._shuffle.consumer)
            self.partitioner = partitioner
            self._materialized = new_partitions
            self._shuffle = None
            return
        assert self._source is not None
        source, stages = self._source, self._stages
        chain = source._broadcast_chain()
        if chain is not None:
            source, stages = chain[0], chain[1] + stages
        source_partitions = source.partitions
        task = stage_mod.compose(stages)
        self.stage_notes = _stage_notes(stages)
        new_partitions = self.context.run_tasks(
            task, source_partitions, task_spec=stages, read=read
        )
        # A zipped chain counts the records it hands on, as a map wave counts
        # those it writes: neither counts the side its probe reads.
        pairs = zip(source_partitions, new_partitions, strict=True)
        records = sum(len(new if type(old) is stage_mod.ZippedBucket else old) for old, new in pairs)
        metrics.record_narrow(len(source_partitions), records)
        operators = stage_mod.operator_count(stages)
        if operators:  # a lone join probe: its join counted the consumer
            metrics.record_fused(operators)
        metrics.record_dataset()
        self._materialized = new_partitions
        self._source = None
        self._stages = ()

    def _resolve_join(self) -> None:
        """Under the force lock: settle a pending auto/broadcast join's
        strategy.  A join that broadcasts becomes a pending narrow chain --
        the probe side's source and the probe stage over the built lookup
        table; a join that shuffles keeps its shuffle node."""
        shuffle = self._shuffle
        if shuffle is None or shuffle.join_strategy != "auto":
            return
        resolved = self.context.resolve_join(shuffle)
        if isinstance(resolved, ShuffleStage):
            self._shuffle = resolved
        else:
            self._source, self._stages = resolved
            self._shuffle = None

    def _broadcast_chain(self) -> tuple["Dataset", tuple[NarrowStage, ...]] | None:
        """``(source, stages)`` when this dataset is a pending narrow chain
        once a pending join is resolved (:meth:`_resolve_join`), else None:
        with ``plan_optimize`` a consumer captured before the join resolved
        takes its probe into its own task this way, instead of forcing it."""
        if not self.context.plan_optimize:
            return None
        with self._force_lock:
            self._resolve_join()
            if self._materialized is None and self._shuffle is None:
                return self._source, self._stages
        return None

    def materialize(self) -> "Dataset":
        """Force the pending stage chain (if any) and return self."""
        _ = self.partitions
        return self

    def cache(self) -> "Dataset":
        """Materialization point: force pending stages so later uses reread
        the stored partitions instead of recomputing the chain."""
        return self.materialize()

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
            if shuffle.join_strategy != "auto":
                return shuffle.num_output_partitions
            # An auto/broadcast join may resolve to a map-side join whose
            # output keeps the probe side's partition count: force to know.
            return len(self.partitions)
        assert source is not None
        return source.num_partitions

    def collect(self) -> list[Any]:
        """All records as a single list (driver side)."""
        return [record for partition in self._forced(read=True) for record in partition]

    def positional_source(self) -> "Dataset | None":
        """The plain elements behind a not yet forced
        :meth:`DistributedContext.indexed` dataset, else None.

        Its one pending stage numbers the elements, so a loop over the
        source that numbers them itself needs no pair built, and the record
        count is the source's."""
        with self._force_lock:
            source, stages = self._source, self._stages
        if source is not None and len(stages) == 1 and stage_mod.is_positions(stages[0]):
            return source
        return None

    def count(self) -> int:
        """Number of records."""
        source = self.positional_source()
        partitions = (self if source is None else source).partitions
        return sum(len(partition) for partition in partitions)

    def is_empty(self) -> bool:
        source = self.positional_source()
        return all(not partition for partition in (self if source is None else source).partitions)

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
            task = stage_mod.compose(stages)
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
            strategy = shuffle.join_strategy or "shuffle"
            return f"Dataset(pending_shuffle={shuffle.operation}, strategy={strategy})"
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
                f"{pad}ShuffleStage({shuffle.operation}, strategy={shuffle.join_strategy or 'shuffle'}, "
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
                        for note in _stage_notes(shuffle_input.stages, sources)
                    )
                    shuffle_input.source._explain_into(lines, depth + 2, sources)
                else:
                    shuffle_input.source._explain_into(lines, depth + 1, sources)
            for side, _, _ in shuffle.zips:
                lines.append(f"{pad}  ZippedIntoReduce")
                side._explain_into(lines, depth + 2, sources)
            return
        note = f" (shuffle eliminated: {self.provenance})" if self.provenance else ""
        lines.append(f"{pad}NarrowChain({stage_mod.describe(stages)}){note}")
        lines.extend(f"{pad}  {note}" for note in _stage_notes(stages, sources))
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

    def filter(self, predicate: Callable[[Any], bool]) -> "Dataset":
        """Keep the records for which ``predicate`` is true (lazy)."""
        return self._with_stage(NarrowStage(stage_mod.FILTER, predicate), keep_partitioner=True)

    def map_values(self, function: Callable[[Any], Any]) -> "Dataset":
        """Apply ``function`` to the value of every key-value record (lazy)."""
        return self._with_stage(NarrowStage(stage_mod.MAP_VALUES, function), keep_partitioner=True)

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

    def map_partitions_with_index(
        self,
        function: Callable[[list[Any], int], Iterable[Any]],
        preserves_partitioning: bool = False,
    ) -> "Dataset":
        """:meth:`map_partitions` with the partition index as the function's
        second argument (lazy)."""
        return self._with_stage(
            NarrowStage(stage_mod.PARTITIONS_INDEXED, function),
            keep_partitioner=preserves_partitioning,
        )

    def values(self) -> "Dataset":
        return self.map(lambda pair: pair[1])

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
        whole = (stage_mod.PARTITIONS, stage_mod.PARTITIONS_INDEXED)
        if fuse is not None and stages and stages[-1].kind in whole:
            fused = fuse(stages[-1].function)
        if fused is not None:
            chain = stages[:-1] + (stages[-1]._replace(function=fused),)
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

    def collect_as_map(self) -> dict[Any, Any]:
        """Collect a key-value dataset into a dict (later keys win)."""
        return dict(self.collect())

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

        When a side is a pending shuffle (placing its output like the other
        side, as the caller checked), the zip joins that shuffle's reduce task
        (``ShuffleStage.zips``): reduce task ``i`` reads partition ``i`` of
        the other side after its bucket, and the result is that shuffle,
        still pending.  A zip over that result joins the same task again.
        Else, when a side is a pending narrow chain, the zip joins the
        chain's task the same way (:meth:`_zipped_chain`).  Otherwise the
        pass runs **eagerly** (like ``partition_by``): zipping needs both
        sides' real partitions, so it executes at call time; the trade is
        noted here because it shifts *when* upstream user-code exceptions
        surface.
        """
        # A consumer's records are no longer the join's keyed pairs.
        partitioner = self.partitioner if consumer is None else None
        pairs = ((self, other, True), (other, self, False)) if other is not self else ()
        result = None
        for reduced, side, reduced_left in pairs:
            with reduced._force_lock:
                shuffle = reduced._shuffle
            if shuffle is not None and side.num_partitions == shuffle.num_output_partitions:
                zips = shuffle.zips + ((side, task_function, reduced_left),)
                zipped = shuffle._replace(zips=zips, result_partitioner=partitioner)
                result = Dataset._pending_shuffle(self.context, zipped)
                break
        for reduced, side, reduced_left in pairs if result is None else ():
            chain = reduced._zipped_chain(side, task_function, reduced_left)
            if chain is not None:
                result = Dataset._pending(*chain, partitioner)
                break
        if result is None:
            left_partitions = self.partitions
            right_partitions = other.partitions
            if len(left_partitions) != len(right_partitions):
                return None
            new_partitions = self.context.run_zip(task_function, left_partitions, right_partitions)
            result = Dataset(self.context, new_partitions, partitioner)
        metrics = self.context.metrics
        reason = f"both sides partitioned by {_partitioner_label(self.partitioner)}"
        metrics.record_shuffle_eliminated(operation, reason, narrow_join=True)
        if is_join:
            metrics.record_join_strategy("narrow")
        if consumer is not None:
            metrics.record_consumer(consumer)
            result.stage_notes = _consumer_notes(consumer)
        result.provenance = f"{operation}: {reason}"
        return result

    def _zipped_chain(
        self, side: "Dataset", function: Callable[[list[Any]], list[Any]], reduced_left: bool
    ) -> tuple["Dataset", tuple[NarrowStage, ...]] | None:
        """``(source, stages)`` of this pending narrow chain with a zip with
        ``side`` after it, in its task (:func:`~repro.runtime.stage.zipped_chain`);
        None unless this is a pending narrow chain with as many partitions as
        ``side``.  A zip over a chain that already ends in zips joins them."""
        chain = self._broadcast_chain()
        if chain is None:
            return None
        source, stages = chain
        zips: tuple[Any, ...] = ()
        if len(stages) == 1 and getattr(stages[0].function, "func", None) is stage_mod.zipped_chain:
            stages, zips = stages[0].function.args
            bundles = source.partitions
        else:
            bundles = [stage_mod.ZippedBucket([partition]) for partition in source.partitions]
        sides = side.partitions
        if len(bundles) != len(sides):
            return None
        zips += ((function, reduced_left),)
        zipped = [stage_mod.ZippedBucket([*bundle, part]) for bundle, part in zip(bundles, sides)]
        task = functools.partial(stage_mod.zipped_chain, stages, zips)
        return Dataset(self.context, zipped), (NarrowStage(stage_mod.PARTITIONS_INDEXED, task),)

    def _key_shuffle(
        self,
        operation: str,
        partitioner: Partitioner | None,
        combiner: tuple[Any, ...] | None,
        reduce_stages: tuple[NarrowStage, ...],
    ) -> "Dataset":
        """Build the single-input :class:`ShuffleStage` plan node every keyed
        wide operator shares (Section 'shuffles are plan nodes')."""
        chosen = partitioner or self.partitioner or HashPartitioner(self.context.num_partitions)
        source, stages, captured = self._capture_plan()
        shuffle = ShuffleStage(
            operation=operation,
            inputs=(ShuffleInput(source, stages, combiner, captured, self.partitioner),),
            num_output_partitions=chosen.num_partitions,
            reduce_stages=reduce_stages,
            partitioner=chosen,
            result_partitioner=chosen,
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

    def place_by_slot(self, slot: int) -> "Dataset":
        """Move each ``(key, slots)`` record, unchanged, where a
        :class:`SlotPartitioner` puts it; eager like :meth:`partition_by`.
        The keys are not placed, so the result claims no partitioner."""
        chosen = SlotPartitioner(self.context.num_partitions, slot)
        source, stages, captured = self._capture_plan()
        shuffle = ShuffleStage(
            operation="partitionBy",
            inputs=(ShuffleInput(source, stages, None, captured, self.partitioner),),
            num_output_partitions=chosen.num_partitions,
            reduce_stages=(),
            partitioner=chosen,
        )
        return Dataset._pending_shuffle(self.context, shuffle).materialize()

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
                else functools.partial(stage_mod.apply_combiner, ("reduce", function)),
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

    # -- joins ---------------------------------------------------------------------

    def _two_sided_shuffle(
        self,
        other: "Dataset",
        operation: str,
        partitioner: Partitioner | None,
        reduce_stages: tuple[NarrowStage, ...],
        join_strategy: str | None = None,
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
            join_strategy=join_strategy,
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

    def join(
        self, other: "Dataset", consumer: Callable[..., Any] | None = None, placed: Partitioner | None = None
    ) -> "Dataset":
        """Inner equi-join of key-value datasets: ``(key, (left, right))``.

        The strategy is chosen when the plan is forced: a broadcast hash join
        when one side has at most ``context.broadcast_join_threshold``
        records, a shuffle join otherwise.

        With a ``consumer`` (the planner's generated function, see
        :mod:`repro.algebra.codegen`) the joined pairs are never built: every
        physical join hands its ``(key, left values, right values)`` groups
        to ``consumer`` inside the join task, and the result holds whatever
        records the consumer returns per partition (no partitioner).

        ``placed``: the caller's word that a probe of this side leaves the
        consumer's records placed by that partitioner (the planner's placed
        invariant side).  The strategy is then settled at once, and only a
        join that probes this side claims it.
        """
        if self._narrow_zip_eligible(other, None):
            narrow = self._zip_narrow(
                other,
                "join",
                functools.partial(stage_mod.zip_join_partition, consumer=consumer),
                is_join=True,
                consumer=consumer,
            )
            if narrow is not None:
                return narrow
        joined = self._two_sided_shuffle(
            other,
            "join",
            None,
            reduce_stages=(
                NarrowStage(
                    stage_mod.PARTITIONS,
                    functools.partial(stage_mod.join_bucket, consumer=consumer),
                ),
            ),
            join_strategy="auto",
            consumer=consumer,
        )
        chain = joined._broadcast_chain() if placed is not None else None
        if chain is not None and chain[0] is self:
            joined.partitioner = placed
        return joined

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
