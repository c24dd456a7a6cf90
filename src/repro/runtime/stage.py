"""Fused narrow-stage and shuffle-stage descriptors for the lazy Dataset engine.

A narrow operation (``map``, ``flat_map``, ``filter``, ``map_values``,
``map_partitions``) does not move records between partitions, so any chain of
them can run as a *single* per-partition pass.  The lazy
:class:`~repro.runtime.dataset.Dataset` records each pending operation as a
:class:`NarrowStage`; when the chain is forced (by a shuffle or an action) the
stages are composed by :func:`compose` into one task and executed in one
``run_tasks`` pass.

A tuple of stages is also the *task descriptor* the ``"cluster"`` executor
ships to its worker processes (see :mod:`repro.runtime.cluster.wire`).

Wide operations are plan nodes too: a :class:`ShuffleStage` describes one
shuffle as (per-input map-side narrow chain + optional map-side combiner +
partitioner bucketing) plus a reduce-side stage chain that processes each
merged bucket.  Both sides are expressed as ``NarrowStage`` chains built from
the module-level worker functions below (:func:`shuffle_write`,
:func:`reduce_bucket`, :func:`group_bucket`, :func:`join_bucket`, ...), so the
existing ``run_tasks`` dispatch -- in the driver, or on the cluster workers --
executes the hot map and reduce sides of every wide operator.
:meth:`DistributedContext.run_shuffle` is the interpreter for these nodes.

**The shuffle data path is an iterator protocol, not list-of-lists.**  A map
task's output per reduce partition is a
:class:`~repro.runtime.spill.BucketPayload` -- spilled framed-pickle runs (see
:mod:`repro.runtime.spill`) plus the in-memory remainder.  The driver only
*routes* payload descriptors to reduce partitions; it never concatenates
record lists.  Every reduce-side processor streams the records back with
:func:`repro.runtime.spill.iter_merged`, applying its merge/group/join combiner
incrementally, so reduce-side memory is bounded by the live accumulator --
not by the shuffled partition -- and the behaviour is identical in the
sequential and cluster executor modes.
"""

from __future__ import annotations

import functools
import pickle
import sys
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.runtime import columnar as columnar_mod
from repro.runtime import spill as spill_mod
from repro.runtime.partitioner import HashPartitioner
from repro.runtime.spill import BucketPayload, SpillSpec

#: Stage kinds understood by :func:`apply_stage`.
MAP = "map"
FLAT_MAP = "flat_map"
FILTER = "filter"
MAP_VALUES = "map_values"
#: Whole-partition transform; the function receives the partition list.
PARTITIONS = "partitions"
#: Whole-partition transform that also receives the partition index (a
#: positional source numbers its elements from it, a map-side writer names
#: its spill files).
PARTITIONS_INDEXED = "partitions_indexed"

_KINDS = (MAP, FLAT_MAP, FILTER, MAP_VALUES, PARTITIONS, PARTITIONS_INDEXED)


class NarrowStage(NamedTuple):
    """One pending narrow operation: a kind tag plus the record/partition function."""

    kind: str
    function: Callable[..., Any]


def apply_stage(stage: NarrowStage, records: list[Any], index: int) -> list[Any]:
    """Run one stage over one partition's records."""
    kind, function = stage
    if kind == MAP:
        return [function(record) for record in records]
    if kind == FLAT_MAP:
        return [out for record in records for out in function(record)]
    if kind == FILTER:
        return [record for record in records if function(record)]
    if kind == MAP_VALUES:
        return [(key, function(value)) for key, value in records]
    if kind in (PARTITIONS, PARTITIONS_INDEXED):
        # A list result is kept as it is: a generated fold exit returns
        # FoldedRecords, whose count has to reach the shuffle writer.
        out = function(records) if kind == PARTITIONS else function(records, index)
        return out if isinstance(out, list) else list(out)
    raise ValueError(f"unknown stage kind {kind!r}")


#: Stage kinds whose record functions may carry a batch kernel, mapped to the
#: :mod:`repro.runtime.columnar` classes whose ``apply_batch`` matches the
#: stage semantics (a vectorized marker on a mismatched kind is ignored).
_VECTOR_CLASSES = {
    MAP: (columnar_mod.VectorizedMap, columnar_mod.VectorizedBind, columnar_mod.VectorizedLet),
    FILTER: (columnar_mod.VectorizedFilter,),
    MAP_VALUES: (columnar_mod.VectorizedMapValues,),
}

#: The record-function stage kinds (the kinds a batch kernel may replace).
_VECTOR_KINDS = (MAP, FLAT_MAP, FILTER, MAP_VALUES)


def stage_vectorizable(stage: NarrowStage) -> bool:
    """Whether one narrow stage has a batch kernel compatible with its kind."""
    classes = _VECTOR_CLASSES.get(stage.kind)
    return classes is not None and isinstance(stage.function, classes)


# -- batch-runtime memoization ---------------------------------------------------
#
# Both caches live at module level so they are shared by every task of every
# force within one interpreter: the driver's for the sequential executor,
# each worker's own for the cluster executor (a worker
# is long-lived, so its caches warm up the same way).

#: Stage runs whose batch execution failed once (any partition): keyed by the
#: functions' identities, with the function objects pinned as the value so a
#: key id can never be recycled by a new function while its entry is live.  A
#: memoized run skips straight to the record path -- the chain never pays the
#: records->columns conversion tax again.
_FALLBACK_MEMO: OrderedDict[tuple[int, ...], tuple[Any, ...]] = OrderedDict()
_FALLBACK_MEMO_LIMIT = 256

#: Output record lists of successful batch runs mapped (by identity) to the
#: ColumnarPartition they were materialized from, so a consecutive narrow
#: force over the same partition resumes columnar instead of re-running
#: ``from_records``.  Entries pin both objects; the small bound caps the
#: doubled (records + columns) residency.
_RESIDENT: OrderedDict[int, tuple[list[Any], Any]] = OrderedDict()
_RESIDENT_LIMIT = 16

#: Batch-runtime counters (reported through ``consume_batch_stats``).
_BATCH_STATS = {"memoized_skips": 0, "resident_reuses": 0, "vector_bucket_tasks": 0}


def consume_batch_stats() -> dict[str, int]:
    """Return and reset the interpreter-wide batch-runtime counters.

    The counters are updated inside executor tasks, so they are only
    observable from the driver for the executor sharing its interpreter
    (sequential); cluster workers accumulate into their own
    interpreters and their counts stay worker-side.
    """
    stats = dict(_BATCH_STATS)
    for key in _BATCH_STATS:
        _BATCH_STATS[key] = 0
    return stats


def _segment_key(segment: tuple[NarrowStage, ...]) -> tuple[int, ...]:
    return tuple(id(stage.function) for stage in segment)


def _memoized_fallback(segment: tuple[NarrowStage, ...]) -> bool:
    return _segment_key(segment) in _FALLBACK_MEMO


def _record_fallback(segment: tuple[NarrowStage, ...]) -> None:
    key = _segment_key(segment)
    if key not in _FALLBACK_MEMO:
        _FALLBACK_MEMO[key] = tuple(stage.function for stage in segment)
        while len(_FALLBACK_MEMO) > _FALLBACK_MEMO_LIMIT:
            _FALLBACK_MEMO.popitem(last=False)


def _resident_part(records: list[Any]) -> Any | None:
    entry = _RESIDENT.get(id(records))
    if entry is None:
        return None
    cached_records, part = entry
    if cached_records is not records or part.length != len(records):
        return None
    return part


def _remember_resident(records: list[Any], part: Any) -> None:
    _RESIDENT[id(records)] = (records, part)
    while len(_RESIDENT) > _RESIDENT_LIMIT:
        _RESIDENT.popitem(last=False)


def _run_batch_segment(
    segment: tuple[NarrowStage, ...], records: list[Any], index: int
) -> list[Any]:
    """Run one batchable run columnar-side, falling back per partition.

    The kernels are pure (they never mutate ``records`` or call user code),
    so *any* failure -- a :class:`~repro.runtime.columnar.ColumnarFallback`,
    a dtype surprise, an operand TypeError -- can safely replay the same
    records through the record path, which then produces the canonical
    result (or raises the canonical error).  Every fallback is memoized by
    the segment's function identities, so later partitions and later forces
    of the same (plan-cached) segment skip the conversion attempt entirely.
    """
    if _memoized_fallback(segment):
        _BATCH_STATS["memoized_skips"] += 1
        for stage in segment:
            records = apply_stage(stage, records, index)
        return records
    try:
        part = _resident_part(records)
        if part is not None:
            _BATCH_STATS["resident_reuses"] += 1
        else:
            part = columnar_mod.ColumnarPartition.from_records(records)
        if part is None:
            raise columnar_mod.ColumnarFallback("records are not columnar")
        for stage in segment:
            part = stage.function.apply_batch(part)
        out = part.to_records()
        _remember_resident(out, part)
        return out
    except Exception:
        _record_fallback(segment)
        for stage in segment:
            records = apply_stage(stage, records, index)
        return records


def batch_length(chain: tuple[NarrowStage, ...]) -> int:
    """How many leading stages of ``chain`` run as one batch under
    ``columnar=True``; 0 when the chain stays on the record path.

    A chain batches only when it is fully lowerable: every record-function
    stage carries a kernel, there is at least one, and they all come before
    any whole-partition stage (a fold or a shuffle write, which then runs on
    the records the batch produces).  Anything less would pay the
    records->columns conversion tax for part of a chain and round-trip back.
    """
    length = 0
    while length < len(chain) and stage_vectorizable(chain[length]):
        length += 1
    if any(stage.kind in _VECTOR_KINDS for stage in chain[length:]):
        return 0
    return length


def compose(
    stages: Iterable[NarrowStage], columnar: bool = False
) -> Callable[[list[Any], int], list[Any]]:
    """Fuse a stage chain into a single per-partition task.

    With ``columnar`` the chain's :func:`batch_length` leading kernel stages
    run over a :class:`~repro.runtime.columnar.ColumnarPartition` with a
    per-partition record-path fallback; everything else runs
    record-at-a-time.
    """
    chain = tuple(stages)
    split = batch_length(chain) if columnar else 0
    batch, rest = chain[:split], chain[split:]

    def fused(records: list[Any], index: int) -> list[Any]:
        if batch:
            records = _run_batch_segment(batch, records, index)
        for stage in rest:
            records = apply_stage(stage, records, index)
        return records

    return fused


def describe(stages: Iterable[NarrowStage]) -> str:
    """A compact human-readable pipeline label, e.g. ``"map→filter→map_values"``."""
    return "→".join(stage.kind for stage in stages)


def operator_count(stages: Iterable[NarrowStage]) -> int:
    """Logical operators behind a stage chain: a generated row-segment stage
    (:mod:`repro.algebra.codegen`) stands for as many as it replaced, a
    broadcast join's probe for none (its join counts it)."""
    return sum(0 if is_probe(stage) else getattr(stage.function, "operators", 1) for stage in stages)


def positions(offsets: tuple[int, ...], records: list[Any], index: int) -> list[Any]:
    """The ``(position, element)`` pairs of one partition of a positional
    source (:meth:`DistributedContext.indexed`), numbered from the partition's
    start offset inside the task."""
    return list(enumerate(records, offsets[index]))


def is_positions(stage: NarrowStage) -> bool:
    """Whether ``stage`` is a positional source's positions stage."""
    function = stage.function
    return isinstance(function, functools.partial) and function.func is positions


# ---------------------------------------------------------------------------
# Shuffle plan nodes
# ---------------------------------------------------------------------------


class ShuffleInput(NamedTuple):
    """One input of a :class:`ShuffleStage`.

    Attributes:
        source: the upstream :class:`~repro.runtime.dataset.Dataset` whose
            partitions feed the map side (forced when the shuffle runs).
        stages: the map-side narrow chain fused into the shuffle (the pending
            operators captured from a lazy dataset).
        combiner: map-side pre-aggregation applied before bucketing --
            ``None``, ``("reduce", fn)``, ``("folded", fn)`` or ``("group",)``.
        captured_operators: how many *user* narrow operators were folded into
            ``stages`` (drives the fused-stage metrics).
        partitioner: the *effective* partitioner of the (possibly pending)
            dataset this input was captured from -- i.e. the placement of the
            records *after* ``stages`` run, as tracked by the lazy layer's
            partitioner-preservation rules.  When it equals the shuffle's
            partitioner the map-side bucketing pass is skipped entirely for
            this input (every record is already in its destination
            partition); ``None`` when the placement is unknown.
    """

    source: Any
    stages: tuple[NarrowStage, ...] = ()
    combiner: tuple[Any, ...] | None = None
    captured_operators: int = 0
    partitioner: Any = None


class ShuffleStage(NamedTuple):
    """A wide operator as a first-class plan node.

    Executed by :meth:`DistributedContext.run_shuffle`: every input runs its
    map side (narrow chain + combiner + partitioner bucketing + spilling) as
    one ``run_tasks`` pass, the driver routes the resulting
    :class:`~repro.runtime.spill.BucketPayload` descriptors to reduce-side
    partitions, and ``reduce_stages`` streams those payloads in a second
    ``run_tasks`` pass.

    Attributes:
        operation: metric/explain name (``"reduceByKey"``, ``"join"``, ...).
        inputs: one entry for single-input shuffles, two for coGroup/joins
            (records are then tagged with their input index on the map side).
        num_output_partitions: reduce-side partition count.
        reduce_stages: stage chain applied to each merged bucket (empty for
            ``partitionBy`` -- the buckets *are* the result).
        partitioner: bucketing partitioner, applied to the pair key (the
            tagged pair's key for two inputs).
        result_partitioner: partitioner metadata of the output dataset.
        join_type: ``"inner"``/``"full"`` for joins.
        strategy: ``"shuffle"``, ``"auto"`` (pick broadcast hash join when a
            side is small enough) or ``"broadcast"`` (force it).
        consumer: the planner's generated function an inner join hands its
            co-grouped sides to inside the join task (already bound into
            ``reduce_stages``; kept here for the broadcast resolution).
        zips: co-partitioned two-input operators run inside the reduce task
            (:meth:`Dataset._zip_narrow`), in order, each ``(side, function,
            reduced_left)``: ``function`` gets ``[reduced, side partition]``
            (``[side partition, reduced]`` when ``reduced_left`` is False),
            ``reduced`` being the reduce output or the previous zip's.
    """

    operation: str
    inputs: tuple[ShuffleInput, ...]
    num_output_partitions: int
    reduce_stages: tuple[NarrowStage, ...]
    partitioner: Any = None
    result_partitioner: Any = None
    join_type: str | None = None
    strategy: str = "shuffle"
    consumer: Callable[[Iterable[Any]], list[Any]] | None = None
    zips: tuple[tuple[Any, Callable[[list[Any]], list[Any]], bool], ...] = ()


class ShuffleWriteStats(NamedTuple):
    """Per-map-task shuffle-write accounting, returned as the first element of
    every map-side output (ahead of the bucket payloads)."""

    records_in: int
    records_out: int
    bytes_out: int
    spilled_bytes: int = 0
    spill_files: int = 0
    peak_memory: int = 0
    #: Records the map-side combine consumed: ``records_in``, unless a
    #: generated fold exit combined upstream (:class:`FoldedRecords`).
    combined_in: int = 0


class SaltedKey(NamedTuple):
    """A hot key salted with its map task index (adaptive skew handling).

    When the driver's pre-shuffle sample flags a key as hot, every map task
    emits its (already combined) partial for that key under
    ``SaltedKey(key, task_index)`` and buckets it by ``(key, task_index)`` --
    spreading the hot key's per-task partials across reduce partitions
    instead of piling them onto one.  The reduce side passes the salted
    records through untouched (each ``(key, salt)`` is unique), and the
    driver folds them back in map-task order, reproducing the exact left
    fold the unsalted reduce would have performed.  A tuple subclass, so
    :func:`repro.runtime.partitioner.stable_hash` covers it.
    """

    key: Any
    salt: int


def pair_key(record: Any) -> Any:
    """Bucketing key of an untagged key-value record."""
    return record[0]


def tagged_key(record: Any) -> Any:
    """Bucketing key of a ``(side, (key, value))`` record."""
    return record[1][0]


def tag_record(side: int, record: Any) -> tuple[int, Any]:
    """Tag a record with its input index (map side of two-input shuffles)."""
    return (side, record)


class FoldedRecords(list):
    """One partition's ``(key, value)`` records, already combined per key.

    Returned by the generated ``fold_by_key`` exit
    (:mod:`repro.algebra.codegen`), which folds inside its loop instead of
    appending every pair for :func:`apply_combiner` to re-walk.  ``consumed``
    is the number of records that reached the fold -- what the map-side
    combine counters report, since the writer only ever sees the result.
    """

    def __init__(self, records: Iterable[Any], consumed: int):
        super().__init__(records)
        self.consumed = consumed


def fold_partition(fold: Callable[[list[Any]], Any], records: list[Any]) -> list[Any]:
    """One partition reduced to ``[fold(records)]`` inside its task
    (:meth:`Dataset.fold_partitions`)."""
    return [fold(records)]


def apply_combiner(
    combiner: tuple[Any, ...], records: list[Any], columnar: bool = False
) -> list[Any]:
    """Run a map-side combiner spec over one partition's key-value records.

    ``("folded", fn)`` marks records a generated fold exit already combined
    with ``fn`` (:class:`FoldedRecords`): they pass through untouched.

    With ``columnar`` and a combiner
    :func:`~repro.runtime.columnar.combiner_vectorizable` accepts (a
    :class:`~repro.runtime.columnar.VectorizedCombine` fold or the adaptive
    ``("group",)`` collect), the grouped fold runs through
    :func:`~repro.runtime.columnar.combine_batch`; any failure there falls
    back to this record path (the kernel never mutates ``records``).
    """
    kind = combiner[0]
    if kind == "folded":
        return records
    if columnar and records and columnar_mod.combiner_vectorizable(combiner):
        try:
            return columnar_mod.combine_batch(combiner, records)
        except Exception:
            pass
    accumulator: dict[Any, Any] = {}
    if kind == "reduce":
        function = combiner[1]
        for key, value in records:
            if key in accumulator:
                accumulator[key] = function(accumulator[key], value)
            else:
                accumulator[key] = value
    elif kind == "group":
        # Adaptive map-side grouping (groupByKey on heavily duplicated
        # keys): collapse each task's records into one (key, [values])
        # partial so the shuffle moves one record per (task, key) instead of
        # one per input record.  Insertion order = first-occurrence order and
        # each list keeps record order, so the reduce side's extend-merge
        # reproduces the plain groupByKey output exactly.
        for key, value in records:
            if key in accumulator:
                accumulator[key].append(value)
            else:
                accumulator[key] = [value]
    else:  # pragma: no cover - guarded by the Dataset constructors
        raise ValueError(f"unknown combiner kind {kind!r}")
    return list(accumulator.items())


def estimate_bytes(value: Any) -> int:
    """Approximate serialized size of a value (the 'network' bytes)."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        if isinstance(value, list):
            return sum(sys.getsizeof(element) for element in value)
        return sys.getsizeof(value)


#: Records sampled per map task when extrapolating shuffle-write bytes.
BYTES_SAMPLE_SIZE = 64


def estimate_shuffle_bytes(buckets: list[Iterable[Any]]) -> int:
    """Extrapolated serialized size of in-memory shuffle output.

    Pickling everything just for a metric would double serialization cost on
    the hot path (and run even under the sequential executor), so only the
    first :data:`BYTES_SAMPLE_SIZE` records are measured and scaled by the
    record count.  The sample is a deterministic function of the bucket
    contents, keeping the metric identical across executor modes.
    """
    total = sum(len(bucket) for bucket in buckets)
    if total == 0:
        return 0
    sample: list[Any] = []
    for bucket in buckets:
        if len(sample) >= BYTES_SAMPLE_SIZE:
            break
        sample.extend(bucket[: BYTES_SAMPLE_SIZE - len(sample)])
    return (estimate_bytes(sample) * total) // len(sample)


def _writer_output(
    writer: spill_mod.BucketWriter, records_in: int, combined_in: int = 0
) -> list[Any]:
    """Finalize a map task's writer into ``[stats, payload_0, ...]``.

    ``bytes_out`` counts the spilled run bytes exactly (they *were*
    serialized) plus a sampled estimate of the in-memory remainders, so the
    metric agrees with the historical all-in-memory estimate when nothing
    spills.
    """
    payloads = writer.finish()
    records_out = sum(payload.record_count for payload in payloads)
    bytes_out = writer.spilled_bytes + estimate_shuffle_bytes(
        [payload.records for payload in payloads]
    )
    stats = ShuffleWriteStats(
        records_in,
        records_out,
        bytes_out,
        writer.spilled_bytes,
        writer.spill_files,
        writer.peak_memory,
        combined_in,
    )
    return [stats, *payloads]


def _vector_buckets(
    partitioner: Any, key_of: Callable[[Any], Any], records: list[Any], columnar: bool
) -> list[int] | None:
    """Vectorized map-side bucket assignment for scalar int keys, or None.

    Valid only when per-record bucketing provably equals ``key % n``: a plain
    :class:`HashPartitioner` over untagged pairs whose key column is resident
    as an int64 array (the upstream batch segment just produced it) and every
    key satisfies ``hash(key) == key`` -- i.e. ``|key| < 2**61 - 1`` (CPython
    hashes ints modulo the Mersenne prime ``2**61 - 1``) and ``key != -1``
    (``hash(-1)`` is ``-2``).  Python and numpy agree on the sign of ``%``
    for a positive modulus, so ``np.mod`` reproduces ``partition()`` exactly.
    """
    np = columnar_mod.np
    if not columnar or np is None or key_of is not pair_key:
        return None
    if type(partitioner) is not HashPartitioner:
        return None
    part = _resident_part(records)
    if part is None:
        return None
    template = part.template
    if template == "*" or template[0] != "tuple" or not template[1] or template[1][0] != "*":
        return None
    keys = part.columns[0]
    if not isinstance(keys, np.ndarray) or keys.dtype.kind != "i":
        return None
    bound = (1 << 61) - 1
    if not bool(np.all((keys > -bound) & (keys < bound) & (keys != -1))):
        return None
    _BATCH_STATS["vector_bucket_tasks"] += 1
    return np.mod(keys, partitioner.num_partitions).tolist()


def shuffle_write(
    partitioner: Any,
    combiner: tuple[Any, ...] | None,
    key_of: Callable[[Any], Any],
    spill: SpillSpec | None,
    input_index: int,
    records: list[Any],
    index: int,
    columnar: bool = False,
    hot_keys: frozenset = frozenset(),
) -> list[Any]:
    """Map-side shuffle writer: combine (optionally), bucket by key, spill
    over budget.

    Returns ``[stats, payload_0, ..., payload_{n-1}]``; the driver pops the
    stats and routes the payloads to reduce-side partitions.  Runs inside
    executor tasks, so the partitioner must hash process-stably (see
    :func:`repro.runtime.partitioner.stable_hash`) and ``spill`` must point
    at a directory shared with worker processes.  A combiner's accumulator
    stays in memory (bounded by the task's distinct keys); the bucketed
    *output* is what spills.  The whole partition is placed in one
    :meth:`~repro.runtime.partitioner.Partitioner.partition_all` call and
    handed to the writer in one :meth:`~repro.runtime.spill.BucketWriter.write`.
    ``hot_keys`` salts those keys (see :func:`salted_shuffle_write`).
    """
    records_in = len(records)
    combined_in = getattr(records, "consumed", records_in)
    if combiner is not None:
        records = apply_combiner(combiner, records, columnar)
    targets = None if hot_keys else _vector_buckets(partitioner, key_of, records, columnar)
    if targets is None:
        if key_of is pair_key:
            keys = [record[0] for record in records]
        else:
            keys = list(map(key_of, records))
        if hot_keys:
            records = list(records)
            for position, key in enumerate(keys):
                if key in hot_keys:
                    salted = keys[position] = SaltedKey(key, index)
                    records[position] = (salted, records[position][1])
        targets = partitioner.partition_all(keys)
    writer = spill_mod.BucketWriter(partitioner.num_partitions, spill, f"i{input_index}-m{index}")
    writer.write(targets, records)
    return _writer_output(writer, records_in, combined_in)


def salted_shuffle_write(
    partitioner: Any,
    combiner: tuple[Any, ...] | None,
    key_of: Callable[[Any], Any],
    spill: SpillSpec | None,
    input_index: int,
    hot_keys: frozenset,
    records: list[Any],
    index: int,
    columnar: bool = False,
) -> list[Any]:
    """:func:`shuffle_write` with hot-key salting (adaptive skew handling).

    ``hot_keys`` was decided by the driver from one global pre-shuffle
    sample, so every map task salts the *same* keys: after the combiner runs
    (one partial per key per task), a hot key's partial is emitted as
    ``(SaltedKey(key, index), value)`` and bucketed by ``(key, index)``;
    everything else buckets normally.  Only valid for single-input keyed
    shuffles whose records are plain ``(key, value)`` pairs.
    """
    return shuffle_write(
        partitioner, combiner, key_of, spill, input_index, records, index, columnar, hot_keys
    )


def prepartitioned_write(
    num_output: int,
    records: list[Any],
    index: int,
) -> list[Any]:
    """Map-side writer for an input already partitioned like the shuffle.

    Every record of map partition ``index`` is, by the partitioner equality
    the caller verified, already destined for reduce partition ``index`` --
    so the whole partition becomes one in-memory payload routed straight to
    bucket ``index``.  Nothing is re-bucketed, spilled or counted as shuffle
    traffic: the stats report zero records/bytes moved.
    """
    payloads = [
        BucketPayload((), tuple(records) if bucket == index else ())
        for bucket in range(num_output)
    ]
    return [ShuffleWriteStats(len(records), 0, 0), *payloads]


# No shuffle runs this writer: bench/trace.py's WRAP_TABLE is its only reader.
def repartition_write(
    num_output: int,
    spill: SpillSpec | None,
    input_index: int,
    records: list[Any],
    index: int,
) -> list[Any]:
    """Round-robin shuffle writer for ``repartition`` (keys not required).

    The start offset rotates with the map partition index so small partitions
    do not all pile into bucket 0; placement stays deterministic under every
    executor because it depends only on ``(index, position)``.
    """
    writer = spill_mod.BucketWriter(num_output, spill, f"i{input_index}-m{index}")
    writer.write([(index + position) % num_output for position in range(len(records))], records)
    return _writer_output(writer, len(records))


# -- reduce-side bucket processors ------------------------------------------------
#
# Each processor receives its reduce partition as a list of BucketPayloads
# (one per contributing map task, in map-task order) and streams the records
# back through the spill layer, applying its combiner incrementally -- the
# full record list is never materialized unless the operator's semantics
# require it (grouping keeps its value lists, joins build their hash sides).


def read_bucket(payloads: list[BucketPayload]) -> list[Any]:
    """Materialize one reduce partition (partitionBy, where the routed
    records *are* the result)."""
    return list(spill_mod.iter_merged(payloads))


def reduce_bucket(function: Callable[[Any, Any], Any], payloads: list[BucketPayload]) -> list[Any]:
    """Merge key-value records with ``function`` (reduceByKey reduce side).

    Streams the payloads and combines incrementally: live memory is one
    accumulator entry per distinct key plus one spill run, regardless of how
    many records were shuffled.
    """
    accumulator: dict[Any, Any] = {}
    for key, value in spill_mod.iter_merged(payloads):
        if key in accumulator:
            accumulator[key] = function(accumulator[key], value)
        else:
            accumulator[key] = value
    return list(accumulator.items())


def group_bucket(payloads: list[BucketPayload]) -> list[Any]:
    """Group key-value records into ``(key, [values])`` (groupByKey reduce side)."""
    groups: dict[Any, list[Any]] = {}
    for key, value in spill_mod.iter_merged(payloads):
        groups.setdefault(key, []).append(value)
    return list(groups.items())


def group_merge_bucket(payloads: list[BucketPayload]) -> list[Any]:
    """groupByKey reduce side for map-side-grouped input: merge ``(key,
    [values])`` partials by list concatenation.

    ``iter_merged`` streams partials in map-task order and each partial's
    list keeps record order, so the concatenated value lists -- and the
    first-seen key order -- are identical to :func:`group_bucket` over the
    ungrouped records.
    """
    groups: dict[Any, list[Any]] = {}
    for key, values in spill_mod.iter_merged(payloads):
        if key in groups:
            groups[key].extend(values)
        else:
            groups[key] = list(values)
    return list(groups.items())


def _group_values(records: Iterable[Any]) -> dict[Any, list[Any]]:
    """Group one side's ``(key, value)`` records into ``{key: [values]}``.

    Plain dicts (insertion-ordered) rather than sets keep the output order
    independent of per-process hash randomization.
    """
    groups: dict[Any, list[Any]] = {}
    for key, value in records:
        groups.setdefault(key, []).append(value)
    return groups


def split_tagged(payloads: list[BucketPayload]) -> tuple[dict[Any, list[Any]], dict[Any, list[Any]]]:
    """Group one reduce partition's tagged ``(side, (key, value))`` stream
    per side, like :func:`_group_values` on each input's records."""
    left: dict[Any, list[Any]] = {}
    right: dict[Any, list[Any]] = {}
    for side, (key, value) in spill_mod.iter_merged(payloads):
        target = left if side == 0 else right
        target.setdefault(key, []).append(value)
    return left, right


def _cogroup_sides(left: dict[Any, list[Any]], right: dict[Any, list[Any]]) -> list[Any]:
    """Merge per-side group dicts into ``(key, ([left], [right]))`` records."""
    merged: list[Any] = []
    for key, left_values in left.items():
        merged.append((key, (left_values, right.get(key, []))))
    for key, right_values in right.items():
        if key not in left:
            merged.append((key, ([], right_values)))
    return merged


def cogroup_bucket(payloads: list[BucketPayload]) -> list[Any]:
    """coGroup reduce side: ``(key, ([left values], [right values]))``."""
    left, right = split_tagged(payloads)
    return _cogroup_sides(left, right)


_MISSING = object()


def _merge_sides(
    function: Callable[[Any, Any], Any] | None, left: Iterable[Any], right: Iterable[Any]
) -> list[Any]:
    """The array merge of two ``(key, value)`` record streams: ``⊳`` when
    ``function`` is None, ``⊳⊕`` otherwise -- what ``co_group`` followed by
    a per-key choose / combine used to produce, without building the groups.

    ``⊳`` keeps a key's last right value, or its last left value if it has no
    right value.  ``⊳⊕`` folds a key's right values left to right, seeded
    with the first, and a key with a left value gets ``function(last left
    value, folded)``.  Output order is the coGroup's: keys with a left value
    in first-left-occurrence order, then right-only keys in first-right-
    occurrence order -- dict insertion order, since re-assigning a key keeps
    its place and its first key object.  Right values are folded in stream
    order, so when ``function`` raises on two keys, which error surfaces
    first may differ from the per-key form.
    """
    merged = dict(left)
    if function is None:
        merged.update(right)
        return list(merged.items())
    folded: dict[Any, Any] = {}
    for key, value in right:
        held = folded.get(key, _MISSING)
        folded[key] = value if held is _MISSING else function(held, value)
    for key, value in folded.items():
        held = merged.get(key, _MISSING)
        merged[key] = value if held is _MISSING else function(held, value)
    return list(merged.items())


def merge_bucket(function: Callable[[Any, Any], Any] | None, payloads: list[BucketPayload]) -> list[Any]:
    """Array-merge reduce side (``⊳`` / ``⊳⊕``, see :func:`_merge_sides`):
    one pass over a tagged bucket, writing the merged records directly."""
    sides: tuple[list[Any], list[Any]] = ([], [])
    for side, record in spill_mod.iter_merged(payloads):
        sides[side].append(record)
    return _merge_sides(function, *sides)


def _matched_groups(
    left: dict[Any, list[Any]], right: dict[Any, list[Any]]
) -> Iterator[tuple[Any, list[Any], list[Any]]]:
    """The inner join's co-grouped sides, ``(key, left values, right values)``."""
    for key, left_values in left.items():
        right_values = right.get(key)
        if right_values:
            yield key, left_values, right_values


def _join_sides(
    how: str,
    left: dict[Any, list[Any]],
    right: dict[Any, list[Any]],
    consumer: Callable[[Iterable[Any]], list[Any]] | None = None,
) -> list[Any]:
    """Expand per-side group dicts according to the join type.

    An inner join with a ``consumer`` hands it the co-grouped sides instead
    (and returns what it returns): its nested ``for a in left values: for b
    in right values`` visits the pairs in the order they are expanded here.
    """
    out: list[Any] = []
    if how == "inner":
        groups = _matched_groups(left, right)
        if consumer is not None:
            return consumer(groups)
        for key, left_values, right_values in groups:
            out.extend((key, (a, b)) for a in left_values for b in right_values)
    elif how == "full":
        for key, left_values in left.items():
            right_values = right.get(key) or [None]
            out.extend((key, (a, b)) for a in left_values for b in right_values)
        for key, right_values in right.items():
            if key not in left:
                out.extend((key, (None, b)) for b in right_values)
    else:  # pragma: no cover - guarded by the Dataset join constructors
        raise ValueError(f"unknown join type {how!r}")
    return out


def join_bucket(how: str, payloads: list[BucketPayload], consumer: Any = None) -> list[Any]:
    """Join reduce side: cogroup one bucket and expand per the join type
    (or hand the groups to ``consumer``, see :func:`_join_sides`)."""
    left, right = split_tagged(payloads)
    return _join_sides(how, left, right, consumer)


# -- narrow (shuffle-free) wide-operator passes -----------------------------------
#
# When a keyed dataset already carries the partitioner a wide operator would
# shuffle with, every key's records are confined to one partition and the
# operator degenerates to an independent per-partition pass.  These functions
# mirror the reduce-side bucket processors exactly (same accumulation
# structures, same first-seen ordering), so the narrow path is record-for-
# record identical to the shuffle it replaces.


def narrow_group_partition(records: list[Any]) -> list[Any]:
    """groupByKey over one already-key-partitioned partition."""
    groups: dict[Any, list[Any]] = {}
    for key, value in records:
        groups.setdefault(key, []).append(value)
    return list(groups.items())


def zip_cogroup_partition(partition: list[Any]) -> list[Any]:
    """coGroup of co-partitioned inputs; ``partition`` is ``[left, right]``."""
    left_records, right_records = partition
    return _cogroup_sides(_group_values(left_records), _group_values(right_records))


def zip_merge_partition(function: Callable[[Any, Any], Any] | None, partition: list[Any]) -> list[Any]:
    """Array merge of co-partitioned inputs; ``partition`` is ``[left, right]``."""
    left_records, right_records = partition
    return _merge_sides(function, left_records, right_records)


class ZippedBucket(list):
    """One reduce task's input when co-partitioned operators run inside it:
    the bucket's payloads, then partition ``i`` of each zipped side."""


def zipped_reduce(
    stages: tuple[NarrowStage, ...],
    zips: tuple[tuple[Callable[[list[Any]], list[Any]], bool], ...],
    partition: list[Any],
    index: int,
) -> list[Any]:
    """A reduce task that runs ``stages`` over its bucket's payloads, then
    each ``(function, reduced_left)`` zip with the next side partition: the
    zip passes of :meth:`Dataset._zip_narrow`, in the same task."""
    cut = len(partition) - len(zips)
    records = partition[:cut]
    for stage in stages:
        records = apply_stage(stage, records, index)
    for (function, reduced_left), side in zip(zips, partition[cut:], strict=True):
        records = function([records, side] if reduced_left else [side, records])
    return records


def zip_join_partition(how: str, partition: list[Any], consumer: Any = None) -> list[Any]:
    """Join of co-partitioned inputs; ``partition`` is ``[left, right]``."""
    left_records, right_records = partition
    return _join_sides(how, _group_values(left_records), _group_values(right_records), consumer)


def broadcast_join_partition(
    broadcast_side: str, lookup: dict[Any, list[Any]], records: list[Any]
) -> list[Any]:
    """Probe-side task of a broadcast (inner) hash join.

    ``lookup`` holds the broadcast (build) side; ``records`` are the probe
    side's key-value records.  A ``functools.partial`` over this function
    ships the lookup table to worker processes like a real broadcast variable.
    A join with a consumer runs the consumer's ``probe`` twin instead (see
    :func:`repro.algebra.codegen.generate`), which does this loop itself.
    """
    out: list[Any] = []
    if broadcast_side == "right":
        for key, value in records:
            matches = lookup.get(key)
            if matches:
                out.extend((key, (value, match)) for match in matches)
    else:
        for key, value in records:
            matches = lookup.get(key)
            if matches:
                out.extend((key, (match, value)) for match in matches)
    return out


def is_probe(stage: NarrowStage) -> bool:
    """Whether ``stage`` is a broadcast hash join's probe (either form)."""
    function = stage.function
    return isinstance(function, functools.partial) and (
        function.func is broadcast_join_partition or "lookup" in function.keywords
    )


# No shuffle runs this reducer: bench/trace.py's WRAP_TABLE is its only reader.
def sort_bucket(
    key_function: Callable[[Any], Any], ascending: bool, payloads: list[BucketPayload]
) -> list[Any]:
    """One bucket's records, stably sorted by ``key_function``."""
    return sorted(read_bucket(payloads), key=key_function, reverse=not ascending)


def _stage_combiner(function: functools.partial) -> tuple[Any, ...] | None:
    """The combiner spec a whole-partition stage closure runs, if any (a
    ``"folded"`` spec runs nothing: its fold is the generated stage before)."""
    combiner = None
    if function.func is apply_combiner and function.args:
        combiner = function.args[0]
    elif function.func in (shuffle_write, salted_shuffle_write) and len(function.args) > 1:
        combiner = function.args[1]
    return None if combiner is None or combiner[0] == "folded" else combiner


def vectorization_counts(stages: Iterable[NarrowStage]) -> tuple[int, int]:
    """Plan-time vectorization accounting for one stage chain.

    Returns ``(vectorized, fallbacks)``: record-function stages that will run
    as batch kernels vs. those that stay on the record path while columnar
    execution is on -- a stage outside the chain's :func:`batch_length`
    prefix is a fallback even when it has a kernel, matching what
    :func:`compose` will execute.  Counted from the *plan* -- like
    ``shuffles_eliminated`` -- so the numbers are identical across executor
    modes (a worker-side per-partition fallback cannot be observed from the
    driver under the process executor).  Whole-partition stages are only
    counted when they are ``apply_combiner`` / ``shuffle_write`` closures
    carrying a combiner (the shapes with a grouped-fold/collect kernel) and
    when they are generated row-segment stages, which stand for that many
    record-path operators; structural passes such as ``read_bucket`` do no
    per-record work and are skipped.
    """
    chain = tuple(stages)
    vectorized = batch_length(chain)
    fallbacks = 0
    for stage in chain[vectorized:]:
        function = stage.function
        if stage.kind in _VECTOR_KINDS:
            fallbacks += 1
        elif hasattr(function, "operators"):
            fallbacks += function.operators
        elif isinstance(function, functools.partial):
            combiner = _stage_combiner(function)
            if combiner is not None:
                enabled = bool(function.keywords.get("columnar"))
                if enabled and columnar_mod.combiner_vectorizable(combiner):
                    vectorized += 1
                else:
                    fallbacks += 1
    return vectorized, fallbacks


def vectorization_report(stages: Iterable[NarrowStage]) -> list[tuple[str, str | None, str]]:
    """Per-stage vectorization outcomes for explain output.

    One ``(kind, kernel, note)`` entry per counted stage (same selection as
    :func:`vectorization_counts`): ``kernel`` is the batch-kernel name when
    the stage will run batched (note ``"batch"``), else ``None`` with the
    fallback reason -- ``"no batch kernel"``, ``"chain not fully
    lowerable"``, or ``"memoized record-path fallback"`` once a runtime
    fallback has been memoized for the chain's batch.
    """
    chain = tuple(stages)
    batch = chain[: batch_length(chain)]
    memoized = bool(batch) and _memoized_fallback(batch)
    entries: list[tuple[str, str | None, str]] = []
    for stage in batch:
        if memoized:
            entries.append((stage.kind, None, "memoized record-path fallback"))
        else:
            entries.append((stage.kind, type(stage.function).__name__, "batch"))
    for stage in chain[len(batch) :]:
        function = stage.function
        if stage.kind in _VECTOR_KINDS:
            if stage_vectorizable(stage):
                entries.append((stage.kind, None, "chain not fully lowerable"))
            else:
                entries.append((stage.kind, None, "no batch kernel"))
        elif isinstance(function, functools.partial):
            combiner = _stage_combiner(function)
            if combiner is None:
                continue
            enabled = bool(function.keywords.get("columnar"))
            if enabled and columnar_mod.combiner_vectorizable(combiner):
                kernel = "grouped-collect" if combiner[0] == "group" else "grouped-fold"
                entries.append(("combine", kernel, "batch"))
            else:
                entries.append(("combine", None, "no combiner kernel"))
    return entries
