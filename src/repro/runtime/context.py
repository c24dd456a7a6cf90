"""The driver-side entry point of the local DISC runtime.

A :class:`DistributedContext` plays the role of Spark's ``SparkContext``: it
creates datasets from driver data, creates broadcast variables, owns the
metrics counters, and executes tasks.  It is the ``"sequential"`` executor:
every task runs in the driver, one partition after another.  The one
multi-process executor is ``"cluster"``
(:class:`~repro.runtime.cluster.ClusterContext`), which subclasses this one
and ships the same task descriptors to worker processes.

The context also owns the out-of-core shuffle lifecycle: a
:class:`~repro.runtime.spill.ShuffleStore` that hands each shuffle a private
spill directory when ``spill_threshold_bytes`` is set (map tasks flush bucket
runs to disk over that budget; reduce tasks stream them back), removes it as
soon as the shuffle completes or fails, and removes everything on
``shutdown``/``close``.  ``DIABLO_SPILL_THRESHOLD_BYTES`` and
``DIABLO_SPILL_DIR`` environment variables supply defaults when the
constructor arguments are omitted, which is how the nightly CI job forces
every shuffle in the test suite through the spill path.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from typing import Any, Callable, Iterable, Mapping

from repro.runtime import stage as stage_mod
from repro.runtime.broadcast import Broadcast
from repro.runtime.dataset import (
    DEFAULT_BROADCAST_JOIN_THRESHOLD,
    Dataset,
    choose_broadcast_side,
)
from repro.runtime.metrics import Metrics
from repro.runtime.spill import ShuffleStore
from repro.runtime.stage import NarrowStage, ShuffleStage

#: Records sampled per map partition when the adaptive layer histograms a
#: shuffle's keys at force time (driver-side stride sample through the
#: input's captured narrow chain -- deterministic, so every executor mode
#: makes the same decision).
ADAPTIVE_SAMPLE_PER_PARTITION = 64

#: Minimum sampled records before any adaptive re-planning fires; tiny
#: inputs gain nothing and would make decisions from noise.
ADAPTIVE_MIN_SAMPLE = 32

#: At most this many keys are salted per shuffle (hot keys beyond the cap
#: are, by construction, below the per-key share of the capped set).
MAX_SALTED_KEYS = 8

#: groupByKey switches to a map-side ``("group",)`` combiner when the
#: sampled records-per-distinct-key duplication factor reaches this value --
#: below it the combiner would move nearly one record per input record and
#: only add per-task dict overhead.
GROUP_COMBINE_MIN_DUPLICATION = 4.0


class _ResolvedSource:
    """A stand-in ``ShuffleInput.source`` holding already-computed partitions.

    ``resolve_join`` runs each join input's captured narrow chain
    eagerly (the post-chain record counts drive the broadcast decision); when
    the join falls back to a shuffle, the rewritten input carries the chained
    partitions through this shim so the shuffle pass does not run the chain a
    second time."""

    __slots__ = ("partitions",)

    def __init__(self, partitions: list[list[Any]]):
        self.partitions = partitions


def _fused_input(shuffle_input: Any) -> Any:
    """A shuffle input whose source is a pending join that broadcasts, with
    the join's probe chain spliced in front of its own stages."""
    source = shuffle_input.source
    chain = source._broadcast_chain() if isinstance(source, Dataset) else None
    if chain is None:
        return shuffle_input
    return shuffle_input._replace(source=chain[0], stages=chain[1] + shuffle_input.stages)


def _spill_threshold_from_env() -> int | None:
    """The ``DIABLO_SPILL_THRESHOLD_BYTES`` default: unset, empty or
    non-positive all mean "spilling disabled" (so ``=0`` is the natural way
    to switch it off in an environment that otherwise sets it)."""
    raw = os.environ.get("DIABLO_SPILL_THRESHOLD_BYTES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"DIABLO_SPILL_THRESHOLD_BYTES must be an integer byte count, got {raw!r}"
        ) from None
    return value if value > 0 else None


class DistributedContext:
    """Creates and executes datasets on the local DISC runtime.

    Args:
        num_partitions: default number of partitions for new datasets.
        broadcast_join_threshold: joins whose build side has at most this many
            records run as broadcast hash joins instead of shuffle joins (the
            strategy knob; only affects performance, never results).
        spill_threshold_bytes: estimated in-memory bytes a shuffle map task
            may buffer before spilling its buckets to framed-pickle runs on
            disk (out-of-core shuffle).  ``None`` (the default) keeps every
            shuffle in memory; the ``DIABLO_SPILL_THRESHOLD_BYTES``
            environment variable supplies a default when unset.  Spilling
            only affects memory use, never results.
        spill_dir: directory hosting the spill files (``None`` = the system
            temp dir, or ``DIABLO_SPILL_DIR`` when set).
        plan_optimize: enable partition-aware shuffle elimination (narrow
            keyed passes, co-partitioned zip joins, pre-partitioned map-side
            bypass).  On by default; turning it off forces every wide
            operator down the full shuffle path (ablation / debugging knob;
            only affects performance and metrics, never results).
        adaptive: adaptive skew-aware execution.  At force time the driver
            stride-samples an eligible keyed shuffle's input (through its
            captured narrow chain) into a per-key histogram; hot keys in
            ``reduce_by_key`` are salted into per-task partials folded back
            exactly by the driver, heavily duplicated ``group_by_key``
            inputs switch to a map-side grouping combiner, and
            auto-strategy joins size broadcast-vs-shuffle from actual
            post-chain record counts.  On by default; only
            performance and the ``salted_keys``/``adaptive_decisions``
            counters change, never results.
    """

    #: Whether an unspilled shuffle's reduce side must still go through
    #: :meth:`run_tasks`.  False here (in-memory payloads concatenate for
    #: free in the driver); the cluster backend overrides it to True because
    #: its routed payloads are worker-resident references that only a task
    #: should resolve.
    _reduce_in_tasks = False

    #: The executor mode this class implements (see the module docstring).
    executor = "sequential"

    def __init__(
        self,
        num_partitions: int = 8,
        broadcast_join_threshold: int = DEFAULT_BROADCAST_JOIN_THRESHOLD,
        spill_threshold_bytes: int | None = None,
        spill_dir: str | None = None,
        plan_optimize: bool = True,
        adaptive: bool = True,
    ):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.broadcast_join_threshold = broadcast_join_threshold
        self.plan_optimize = plan_optimize
        self.adaptive = adaptive
        if spill_threshold_bytes is None:
            spill_threshold_bytes = _spill_threshold_from_env()
        self.spill_threshold_bytes = spill_threshold_bytes
        self.shuffle_store = ShuffleStore(
            spill_dir or os.environ.get("DIABLO_SPILL_DIR") or None, spill_threshold_bytes
        )
        self.metrics = Metrics()
        self._broadcast_counter = 0

    @classmethod
    def from_config(cls, config: Any) -> "DistributedContext":
        """Build a context from a configuration object.

        ``config`` is duck-typed (any object with the runtime fields of
        :class:`repro.api.DiabloConfig`) so the runtime layer does not depend
        on the api layer.
        """
        if getattr(config, "executor_mode", None) == "cluster" and cls is DistributedContext:
            from repro.runtime.cluster.context import ClusterContext

            return ClusterContext.from_config(config)
        return cls(
            num_partitions=config.num_partitions,
            broadcast_join_threshold=config.broadcast_join_threshold,
            spill_threshold_bytes=config.spill_threshold_bytes,
            spill_dir=config.spill_dir,
            plan_optimize=getattr(config, "plan_optimize", True),
            adaptive=getattr(config, "adaptive", True),
        )

    # -- dataset creation -------------------------------------------------------

    def parallelize(self, data: Iterable[Any], num_partitions: int | None = None) -> Dataset:
        """Create a dataset from driver-side data, split into partitions."""
        records = list(data)
        return Dataset(self, self._split(records, num_partitions or self.num_partitions))

    def parallelize_raw(self, records: list[Any], num_partitions: int | None = None) -> Dataset:
        """Like :meth:`parallelize` but without copying an already-built list."""
        return Dataset(self, self._split(records, num_partitions or self.num_partitions))

    def parallelize_pairs(
        self, data: Mapping[Any, Any] | Iterable[tuple[Any, Any]], num_partitions: int | None = None
    ) -> Dataset:
        """Create a key-value dataset from a mapping or an iterable of pairs."""
        if isinstance(data, Mapping):
            records = list(data.items())
        else:
            records = list(data)
        return self.parallelize_raw(records, num_partitions)

    def indexed(self, data: Iterable[Any], num_partitions: int | None = None) -> Dataset:
        """The key-value dataset ``(position, element)`` of a plain sequence.

        The translator represents every collection as an indexed (sparse
        array) dataset; this is the canonical way to feed it a plain list.
        No pair is built here: the elements are split at the :meth:`_split`
        boundaries into a source that remembers each partition's start
        offset (``Dataset.offsets``), and the returned dataset is that source
        with one pending stage, :func:`~repro.runtime.stage.positions`, which
        numbers a partition from its offset inside the task.  A consumer
        that needs the pairs (a join or merge key, an output, ``collect``, a
        shipped task) gets them from that stage; a generated loop that scans
        the source directly peels the stage off
        (:meth:`Dataset.positional_source`) and makes the position a loop
        variable instead.
        """
        records = data if isinstance(data, list) else list(data)
        source = self.parallelize_raw(records, num_partitions)
        source.offsets = tuple(
            itertools.accumulate((len(partition) for partition in source.partitions[:-1]), initial=0)
        )
        positions = functools.partial(stage_mod.positions, source.offsets)
        return Dataset._pending(source, (NarrowStage(stage_mod.PARTITIONS_INDEXED, positions),), None)

    def range_dataset(self, lower: int, upper: int, num_partitions: int | None = None) -> Dataset:
        """The dataset of integers ``lower..upper`` (both bounds inclusive)."""
        if upper < lower:
            return self.empty()
        return self.parallelize_raw(list(range(lower, upper + 1)), num_partitions)

    def empty(self) -> Dataset:
        """A dataset with no records."""
        return Dataset(self, [[] for _ in range(self.num_partitions)])

    def broadcast(self, value: Any) -> Broadcast:
        """Create a broadcast variable holding ``value``."""
        self._broadcast_counter += 1
        self.metrics.record_broadcast()
        return Broadcast(value, self._broadcast_counter)

    # -- task execution -----------------------------------------------------------

    def run_tasks(
        self,
        task: Callable[[list[Any], int], list[Any]],
        partitions: list[list[Any]],
        task_spec: tuple[Any, ...] | None = None,
        read: bool = False,
    ) -> list[list[Any]]:
        """Run ``task(partition, index)`` over every partition.

        ``task_spec`` is an optional picklable descriptor of the task (a tuple
        of :class:`~repro.runtime.stage.NarrowStage`) that lets the cluster
        executor ship the fused task to a worker process; the driver ignores
        it.  ``read`` says the caller is an action about to look at every
        output record; it only matters to an executor that would otherwise
        leave the outputs where they were computed (the cluster backend).
        """
        return [task(partition, index) for index, partition in enumerate(partitions)]

    # -- shuffle execution ---------------------------------------------------------

    def run_shuffle(self, shuffle: ShuffleStage) -> tuple[list[list[Any]], Any]:
        """Execute a :class:`~repro.runtime.stage.ShuffleStage` plan node.

        Map side: each input's narrow chain + combiner + partitioner bucketing
        runs as one :meth:`run_tasks` pass per input.  Map tasks emit one
        :class:`~repro.runtime.spill.BucketPayload` per reduce partition --
        spilled framed-pickle runs (when ``spill_threshold_bytes`` is set)
        plus the in-memory remainder -- and the driver only *routes* those
        descriptors; it never concatenates record lists.  The reduce side
        (streaming merge/group/join of each bucket) is a second
        :meth:`run_tasks` pass.  A join with an ``"auto"``/``"broadcast"``
        strategy is resolved by its dataset first (:meth:`resolve_join`):
        only one that shuffles gets here.  With ``plan_optimize``, an input
        over a join that broadcasts takes over its probe
        (:meth:`Dataset._broadcast_chain`), so the probe, the input's chain
        and the writer run in one map task.

        The shuffle's spill directory is removed as soon as the reduce side
        has consumed the runs -- including when either side raises.

        Returns ``(partitions, partitioner)`` for the result dataset.
        """
        if self.plan_optimize:
            shuffle = shuffle._replace(inputs=tuple(map(_fused_input, shuffle.inputs)))
        if shuffle.consumer is not None:
            # Whichever physical join runs, the consumer is one fused stage
            # of its task.
            self.metrics.record_consumer(shuffle.consumer)
        if shuffle.join_strategy is not None:
            self.metrics.record_join_strategy("shuffle")

        salt_plan: tuple[tuple[Any, ...], Callable[[Any, Any], Any]] | None = None
        if self.adaptive:
            shuffle, salt_plan = self._adapt_shuffle(shuffle)

        spill = self.shuffle_store.begin_shuffle()
        try:
            return self._run_shuffle_spillable(shuffle, spill, salt_plan)
        finally:
            self.shuffle_store.end_shuffle(spill)

    # -- adaptive re-planning (force-time skew handling) ---------------------------

    def _sample_shuffle_keys(self, shuffle_input: Any) -> Counter | None:
        """Driver-side per-key histogram of one shuffle input.

        Stride-samples up to :data:`ADAPTIVE_SAMPLE_PER_PARTITION` records
        per source partition and runs the input's captured narrow chain over
        the sample, so the histogram describes the keys that will actually be
        bucketed.  A pure function of the source partitions -- every executor
        mode derives the same histogram, keeping adaptive decisions (and
        therefore results) executor-independent.  Returns None when the
        sample cannot be keyed (the decision is then simply skipped).

        A generated stage that folds by key inside its loop would show every
        key once; its ``unfolded`` twin (same steps, one ``(key, value)`` per
        record) is sampled instead, so the decisions are those of the
        pre-fold key stream.  Over a positional source the chain's first
        stage numbers the elements from the partition offset, which a
        strided sample would get wrong: the sample is taken as
        ``(position, element)`` pairs carrying the true positions, and that
        stage is replaced by its pair-reading form (the positions stage
        dropped, a generated loop's ``paired`` twin).
        """
        # Forced outside the ``try``: an upstream failure raises here, once.
        source = shuffle_input.source
        partitions = source.partitions
        try:
            stages = tuple(
                stage._replace(function=stage.function.unfolded())
                if hasattr(stage.function, "unfolded")
                else stage
                for stage in shuffle_input.stages
            )
            offsets = source.offsets
            if offsets is not None:
                head, rest = stages[0], stages[1:]
                if not stage_mod.is_positions(head):
                    rest = (NarrowStage(stage_mod.PARTITIONS, head.function.paired()),) + rest
                stages = rest
            task = stage_mod.compose(stages) if stages else None
            histogram: Counter = Counter()
            sampled = [(index, partition) for index, partition in enumerate(partitions) if partition]
            steps = [max(1, len(partition) // ADAPTIVE_SAMPLE_PER_PARTITION) for _, partition in sampled]
            samples = self._strided([partition for _, partition in sampled], steps)
            for (index, partition), step, sample in zip(sampled, steps, samples, strict=True):
                if offsets is not None:
                    start = offsets[index]
                    sample = list(zip(range(start, start + len(partition), step), sample))
                if task is not None:
                    sample = task(list(sample), index)
                for record in sample:
                    histogram[record[0]] += 1
            return histogram
        except Exception:
            return None

    def _strided(self, partitions: list[Any], steps: list[int]) -> list[Any]:
        """``partition[::step]`` of each partition: the adaptive sampler's reads."""
        return [partition[::step] for partition, step in zip(partitions, steps, strict=True)]

    def _adapt_shuffle(
        self, shuffle: ShuffleStage
    ) -> tuple[ShuffleStage, tuple[tuple[Any, ...], Callable[[Any, Any], Any]] | None]:
        """Re-plan an eligible single-input keyed shuffle from a key sample.

        Two rewrites, both decided in the driver *before* any map task runs
        (so every task agrees on the plan):

        * **salted reduce** (``reduceByKey``): keys whose
          sampled share fills at least half an average reduce partition are
          salted by map task index (see
          :func:`repro.runtime.stage.salted_shuffle_write`); returns a salt
          plan ``(hot keys in decision order, combine fn)`` that
          ``_fold_salted`` uses for the exact driver-side final fold.
        * **map-side grouping** (``groupByKey``): when the sampled
          duplication factor reaches
          :data:`GROUP_COMBINE_MIN_DUPLICATION`, a ``("group",)`` combiner
          collapses each task's records to one ``(key, [values])`` partial
          per key and the reduce side concatenates partials -- same output,
          a fraction of the shuffled records.

        An input whose chain probes a broadcast join is not sampled: the
        sample would run the probe, and the consumer's user code in it, a
        second time.
        """
        if (
            len(shuffle.inputs) != 1
            or any(map(stage_mod.is_probe, shuffle.inputs[0].stages))
            or shuffle.join_strategy is not None
            or len(shuffle.reduce_stages) != 1
        ):
            return shuffle, None
        shuffle_input = shuffle.inputs[0]
        reduce_fn = shuffle.reduce_stages[0].function
        wants_salting = (
            shuffle.operation == "reduceByKey"
            and shuffle_input.combiner is not None
            and isinstance(reduce_fn, functools.partial)
            and reduce_fn.func is stage_mod.reduce_bucket
            and shuffle.num_output_partitions > 1
        )
        wants_grouping = (
            shuffle.operation == "groupByKey"
            and shuffle_input.combiner is None
            and reduce_fn is stage_mod.group_bucket
            and not self._can_bypass_map_side(
                shuffle, shuffle_input, shuffle_input.source.num_partitions
            )
        )
        if not (wants_salting or wants_grouping):
            return shuffle, None
        histogram = self._sample_shuffle_keys(shuffle_input)
        if histogram is None:
            return shuffle, None
        total = sum(histogram.values())
        if total < ADAPTIVE_MIN_SAMPLE:
            return shuffle, None

        if wants_grouping:
            distinct = len(histogram)
            if total < distinct * GROUP_COMBINE_MIN_DUPLICATION:
                return shuffle, None
            self.metrics.record_adaptive_decision(
                shuffle.operation,
                "map-side-grouping",
                f"sampled duplication {total / distinct:.1f}x over {distinct} key(s)",
            )
            rewritten = shuffle._replace(
                inputs=(shuffle_input._replace(combiner=("group",)),),
                reduce_stages=(
                    NarrowStage(stage_mod.PARTITIONS, stage_mod.group_merge_bucket),
                ),
            )
            return rewritten, None

        # Salted reduce: hot = sampled share >= half an average partition.
        num_output = shuffle.num_output_partitions
        hot = tuple(
            key
            for key, count in histogram.most_common(MAX_SALTED_KEYS)
            if count * num_output * 2 >= total
        )
        if not hot:
            return shuffle, None
        combine_fn = reduce_fn.args[0]
        shares = ", ".join(
            f"{histogram[key] * 100 // total}%" for key in hot
        )
        self.metrics.record_salted_keys(len(hot))
        self.metrics.record_adaptive_decision(
            shuffle.operation,
            "salted-reduce",
            f"{len(hot)} hot key(s) at sampled share(s) {shares}",
        )
        return shuffle, (hot, combine_fn)

    def _fold_salted(
        self,
        partitions: list[list[Any]],
        salt_plan: tuple[tuple[Any, ...], Callable[[Any, Any], Any]],
        partitioner: Any,
    ) -> list[list[Any]]:
        """Fold salted per-task partials back into their home partitions.

        Each hot key's partials are folded left-to-right in map-task order --
        exactly the order the unsalted reduce side would have combined them
        in (``iter_merged`` streams payloads in map-task order and a
        combined map task emits one partial per key) -- so the result is
        bit-identical for *any* combine function, associative-only float
        sums included.  The folded record lands in the key's home partition,
        keeping the shuffle's claimed output partitioner truthful.
        """
        hot_keys, combine_fn = salt_plan
        salted: dict[Any, list[tuple[int, Any]]] = {}
        stripped: list[list[Any]] = []
        for partition in partitions:
            kept: list[Any] = []
            for record in partition:
                if isinstance(record[0], stage_mod.SaltedKey):
                    salted_key = record[0]
                    salted.setdefault(salted_key.key, []).append(
                        (salted_key.salt, record[1])
                    )
                else:
                    kept.append(record)
            stripped.append(kept)
        for key in hot_keys:
            partials = salted.get(key)
            if not partials:
                continue
            partials.sort(key=lambda entry: entry[0])
            folded = partials[0][1]
            for _, value in partials[1:]:
                folded = combine_fn(folded, value)
            stripped[partitioner.partition(key)].append((key, folded))
        return stripped

    def _run_shuffle_spillable(
        self,
        shuffle: ShuffleStage,
        spill: Any,
        salt_plan: tuple[tuple[Any, ...], Callable[[Any, Any], Any]] | None = None,
    ) -> tuple[list[list[Any]], Any]:
        """The map and reduce passes of a shuffle, writing through ``spill``.

        The ``zips`` run in the reduce tasks, each task reading partition
        ``i`` of every zipped side after its bucket -- unless hot keys were
        salted: their partials are folded in the driver after the reduce, so
        the zips run after that fold, one wave each."""
        sides = [side.partitions for side, _, _ in shuffle.zips]
        tagged = len(shuffle.inputs) > 1
        merged: list[list[Any]] = [[] for _ in range(shuffle.num_output_partitions)]
        total_records = total_bytes = map_tasks = 0
        spilled_bytes = spill_files = peak_memory = 0
        for input_index, shuffle_input in enumerate(shuffle.inputs):
            source_partitions = shuffle_input.source.partitions
            chain = shuffle_input.stages
            if tagged:
                chain += (
                    NarrowStage(stage_mod.MAP, functools.partial(stage_mod.tag_record, input_index)),
                )
            if self._can_bypass_map_side(shuffle, shuffle_input, len(source_partitions)):
                # The input is already partitioned exactly like the shuffle:
                # partition i's records all belong to reduce partition i, so
                # the bucketing/spilling pass is skipped and this side moves
                # zero shuffle traffic (the narrow chain still runs).
                writer = functools.partial(
                    stage_mod.prepartitioned_write, shuffle.num_output_partitions
                )
                self.metrics.record_prepartitioned_input(
                    shuffle.operation,
                    f"input {input_index} already partitioned by "
                    f"{type(shuffle.partitioner).__name__}({shuffle.partitioner.num_partitions})",
                )
            elif salt_plan is not None:
                writer = functools.partial(
                    stage_mod.salted_shuffle_write,
                    shuffle.partitioner,
                    shuffle_input.combiner,
                    False,
                    spill,
                    input_index,
                    frozenset(salt_plan[0]),
                )
            else:
                writer = functools.partial(
                    stage_mod.shuffle_write,
                    shuffle.partitioner,
                    shuffle_input.combiner,
                    tagged,
                    spill,
                    input_index,
                )
            chain += (NarrowStage(stage_mod.PARTITIONS_INDEXED, writer),)
            outputs = self.run_tasks(stage_mod.compose(chain), source_partitions, task_spec=chain)
            records_in = records_out = bytes_out = combined_in = 0
            for output in outputs:
                stats: stage_mod.ShuffleWriteStats = output[0]
                records_in += stats.records_in
                combined_in += stats.combined_in
                records_out += stats.records_out
                bytes_out += stats.bytes_out
                spilled_bytes += stats.spilled_bytes
                spill_files += stats.spill_files
                peak_memory = max(peak_memory, stats.peak_memory)
                for bucket_index, payload in enumerate(output[1:]):
                    # record_count rather than runs/records truthiness: a
                    # cluster RemotePayload knows its count for free, while
                    # touching .records would fetch it over the network.
                    if payload.record_count:
                        merged[bucket_index].append(payload)
            if shuffle_input.captured_operators:
                self.metrics.record_fused(shuffle_input.captured_operators)
            self.metrics.record_narrow(len(source_partitions), records_in)
            if shuffle_input.combiner is not None:
                self.metrics.record_combiner(combined_in, records_out)
            total_records += records_out
            total_bytes += bytes_out
            map_tasks += len(source_partitions)

        # Spill traffic is map-side work: account for it before the reduce
        # pass so a reduce failure still reports what was written to disk.
        if spill is not None:
            self.metrics.record_spill(spilled_bytes, spill_files, peak_memory)

        if sides and salt_plan is None:
            read_stages = (NarrowStage(stage_mod.PARTITIONS, stage_mod.read_bucket),)
            zips = tuple((function, left) for _, function, left in shuffle.zips)
            zipped = functools.partial(stage_mod.zipped_reduce, shuffle.reduce_stages or read_stages, zips)
            reduce_stages = (NarrowStage(stage_mod.PARTITIONS_INDEXED, zipped),)
            inputs = [
                stage_mod.ZippedBucket(bucket + [side[index] for side in sides])
                for index, bucket in enumerate(merged)
            ]
            result = self.run_tasks(stage_mod.compose(reduce_stages), inputs, task_spec=reduce_stages)
            reduce_tasks = len(merged)
        elif shuffle.reduce_stages:
            result = self.run_tasks(
                stage_mod.compose(shuffle.reduce_stages), merged, task_spec=shuffle.reduce_stages
            )
            reduce_tasks = len(merged)
        elif spill is not None or self._reduce_in_tasks:
            # The routed payloads *are* the result (partitionBy),
            # but spilled runs still need reading -- a real reduce pass.
            # The cluster backend forces this path even without spilling:
            # its payloads are remote references that workers resolve.
            read_stages = (NarrowStage(stage_mod.PARTITIONS, stage_mod.read_bucket),)
            result = self.run_tasks(
                stage_mod.compose(read_stages), merged, task_spec=read_stages
            )
            reduce_tasks = len(merged)
        else:
            # In-memory payloads concatenate for free in the driver; a
            # run_tasks pass here would only do the same thing as a task.
            result = [stage_mod.read_bucket(bucket) for bucket in merged]
            reduce_tasks = 0
        if salt_plan is not None:
            result = self._fold_salted(result, salt_plan, shuffle.partitioner)
            for (_, function, left), side in zip(shuffle.zips, sides, strict=True):
                pair = (result, side) if left else (side, result)
                result = self.run_zip(function, *pair)
        self.metrics.record_shuffle_stage(
            shuffle.operation, total_records, total_bytes, map_tasks, reduce_tasks
        )
        return result, shuffle.result_partitioner

    def _can_bypass_map_side(
        self, shuffle: ShuffleStage, shuffle_input: Any, num_source_partitions: int
    ) -> bool:
        """Whether one shuffle input needs no map-side bucketing pass.

        Requires the input's effective partitioner (tracked through its
        pending narrow chain) to equal the shuffle's bucketing partitioner,
        and no map-side combiner (single-input combiner operators are
        already eliminated at the Dataset layer, so this guard is for
        correctness, not coverage).
        """
        return (
            self.plan_optimize
            and shuffle_input.combiner is None
            and shuffle_input.partitioner is not None
            and shuffle_input.partitioner == shuffle.partitioner
            and num_source_partitions == shuffle.num_output_partitions
        )

    def _resolve_join_input(
        self, shuffle_input: Any, read: bool = False
    ) -> tuple[Any, list[list[Any]]]:
        """Run one join input's captured narrow chain eagerly.

        Returns ``(rewritten_input, post-chain partitions)``: the rewritten
        input holds the chained partitions behind a :class:`_ResolvedSource`
        with an empty stage chain, so a join that falls back to a shuffle
        does not run the chain a second time.  ``read``: this is (expected
        to be) the build side, whose every record the driver reads next."""
        partitions = shuffle_input.source.partitions
        if not shuffle_input.stages:
            return shuffle_input, partitions
        chained = self.run_tasks(
            stage_mod.compose(shuffle_input.stages),
            partitions,
            task_spec=shuffle_input.stages,
            read=read,
        )
        if shuffle_input.captured_operators:
            self.metrics.record_fused(shuffle_input.captured_operators)
        self.metrics.record_narrow(len(chained), sum(len(p) for p in chained))
        resolved = shuffle_input._replace(
            source=_ResolvedSource(chained), stages=(), captured_operators=0
        )
        return resolved, chained

    def run_zip(
        self,
        function: Callable[[list[Any]], list[Any]],
        left: list[list[Any]],
        right: list[list[Any]],
    ) -> list[list[Any]]:
        """One wave of ``function`` over each ``[left partition, right
        partition]`` pair: a co-partitioned two-input operator run on its own."""
        stages = (NarrowStage(stage_mod.PARTITIONS, function),)
        pairs = [[left_part, right_part] for left_part, right_part in zip(left, right, strict=True)]
        result = self.run_tasks(stage_mod.compose(stages), pairs, task_spec=stages)
        self.metrics.record_narrow(len(pairs), sum(len(lp) + len(rp) for lp, rp in pairs))
        return result

    def resolve_join(self, shuffle: ShuffleStage) -> ShuffleStage | tuple[Dataset, tuple[NarrowStage, ...]]:
        """Settle an auto join's strategy and build its lookup table.

        A broadcast comes back as the narrow chain that probes the table --
        ``(probe side source, (probe stage,))`` -- for a consumer to run in
        its own task (or on its own); a join that must shuffle (both sides
        above the threshold) as its shuffle stage,
        inputs already chained and strategy ``"shuffle"``.  Sizes compare
        each side's record count *after* its captured narrow chain runs: the
        chain has to run either way, and sizing the raw source would never
        broadcast a side that a captured ``filter`` shrinks under the
        threshold."""
        left_input, right_input = shuffle.inputs
        threshold = self.broadcast_join_threshold
        if self.adaptive:
            # Adaptive sizing: run the captured narrow chains first and
            # re-decide broadcast-vs-shuffle from the *actual* post-chain
            # record counts (a captured filter may shrink a side far under
            # the threshold; the chain has to run either way).  Building the
            # lookup table reads every build-side record, so the side the raw
            # sizes point at is asked to bring its records with its results.
            likely = choose_broadcast_side(
                sum(len(p) for p in left_input.source.partitions),
                sum(len(p) for p in right_input.source.partitions),
                threshold,
            )
            left_input, left_partitions = self._resolve_join_input(left_input, likely == "left")
            right_input, right_partitions = self._resolve_join_input(
                right_input, likely == "right"
            )
            shuffle = shuffle._replace(inputs=(left_input, right_input))
        else:
            # Static sizing (ablation): decide from the raw source sizes,
            # as a plan-time-only optimizer would.
            left_partitions = left_input.source.partitions
            right_partitions = right_input.source.partitions
        left_count = sum(len(p) for p in left_partitions)
        right_count = sum(len(p) for p in right_partitions)
        side = choose_broadcast_side(left_count, right_count, threshold)
        if side == "none":
            return shuffle._replace(join_strategy="shuffle")
        if self.adaptive:
            self.metrics.record_adaptive_decision(
                shuffle.operation,
                "broadcast-join",
                f"post-chain sizes {left_count}/{right_count} records, "
                f"broadcast {side} (threshold {threshold})",
            )
        else:
            left_input, left_partitions = self._resolve_join_input(left_input, side == "left")
            right_input, right_partitions = self._resolve_join_input(right_input, side == "right")
            shuffle = shuffle._replace(inputs=(left_input, right_input))

        build_partitions = left_partitions if side == "left" else right_partitions
        # While no build-side key repeats, a consumer's twin probes a table
        # holding each key's one slot row; from the first repeat on (or
        # with no consumer), each key maps to its list of matches.
        lookup: dict[Any, Any] | None = None
        if shuffle.consumer is not None:
            lookup, count = {}, 0
            for partition in build_partitions:
                lookup.update(partition)
                count += len(partition)
                if len(lookup) != count:
                    lookup = None
                    break
        unique = lookup is not None
        if lookup is None:
            lookup = {}
            for partition in build_partitions:
                for key, value in partition:
                    lookup.setdefault(key, []).append(value)
        self.metrics.record_broadcast()

        if shuffle.consumer is None:
            probe = functools.partial(stage_mod.broadcast_join_partition, side, lookup)
        else:
            # The consumer's probe twin loops over the probe records and
            # their matches itself: no co-grouped sides are built.
            probe = functools.partial(shuffle.consumer.probe(side, unique), lookup=lookup)
        self.metrics.record_join_strategy("broadcast")
        if shuffle.consumer is not None:
            self.metrics.record_consumer(shuffle.consumer)
        source, partitions = (
            (right_input.source, right_partitions) if side == "left" else (left_input.source, left_partitions)
        )
        if not isinstance(source, Dataset):
            source = Dataset(self, partitions)
        return source, (NarrowStage(stage_mod.PARTITIONS, probe),)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Remove spill files; safe to call twice.

        The context stays usable afterwards -- spill directories are
        recreated lazily on the next spilled shuffle -- so ``shutdown`` is a
        release of OS resources, not a terminal state.  With
        ``cancel_pending=False`` (used when another caller may still be
        mid-computation on this context, e.g. jit context eviction) the
        spill root is left for the store's GC finalizer, because an
        in-flight shuffle on another thread may still be reading and writing
        runs under it.
        """
        if cancel_pending:
            self.shuffle_store.close()

    #: Alias so contexts close like other resource-owning Python objects.
    close = shutdown

    def __enter__(self) -> "DistributedContext":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _split(records: list[Any], num_partitions: int) -> list[list[Any]]:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        total = len(records)
        base, extra = divmod(total, num_partitions)
        partitions: list[list[Any]] = []
        start = 0
        for index in range(num_partitions):
            size = base + (1 if index < extra else 0)
            partitions.append(records[start : start + size])
            start += size
        return partitions
