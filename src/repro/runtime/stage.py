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
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from repro.runtime import spill as spill_mod
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


def compose(stages: Iterable[NarrowStage]) -> Callable[[list[Any], int], list[Any]]:
    """Fuse a stage chain into a single per-partition task."""
    chain = tuple(stages)

    def fused(records: list[Any], index: int) -> list[Any]:
        for stage in chain:
            records = apply_stage(stage, records, index)
        return records

    return fused


def describe(stages: Iterable[NarrowStage]) -> str:
    """A compact human-readable pipeline label, e.g. ``"map→filter→map_values"``."""
    return "→".join(stage.kind for stage in stages)


def operator_count(stages: Iterable[NarrowStage]) -> int:
    """Logical operators behind a stage chain: a generated row-segment stage
    (:mod:`repro.algebra.codegen`) stands for as many as it replaced, a
    broadcast join's probe for none (its join counts it), a zipped chain for
    its chain's (its zips count as eliminated shuffles)."""
    return sum(
        0 if is_probe(stage)
        else operator_count(stage.function.args[0]) if getattr(stage.function, "func", None) is zipped_chain
        else getattr(stage.function, "operators", 1)
        for stage in stages
    )


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
        join_type: ``"inner"`` for a join, None otherwise.
        strategy: ``"shuffle"`` or, for a join not yet resolved, ``"auto"``
            (pick a broadcast hash join when a side is small enough).
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


def apply_combiner(combiner: tuple[Any, ...], records: list[Any]) -> list[Any]:
    """Run a map-side combiner spec over one partition's key-value records.

    ``("folded", fn)`` marks records a generated fold exit already combined
    with ``fn`` (:class:`FoldedRecords`): they pass through untouched.
    """
    kind = combiner[0]
    if kind == "folded":
        return records
    accumulator: dict[Any, Any] = {}
    if kind == "reduce":
        _fold_into(accumulator, combiner[1], records)
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


def shuffle_write(
    partitioner: Any,
    combiner: tuple[Any, ...] | None,
    tagged: bool,
    spill: SpillSpec | None,
    input_index: int,
    records: list[Any],
    index: int,
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
    *output* is what spills.  Records are ``(key, value)`` pairs, or
    ``(side, (key, value))`` when ``tagged``; the writer reads, places and
    appends each record in one pass
    (:meth:`~repro.runtime.spill.BucketWriter.write_keyed`).
    ``hot_keys`` salts those keys (see :func:`salted_shuffle_write`).
    """
    records_in = len(records)
    combined_in = getattr(records, "consumed", records_in)
    if combiner is not None:
        records = apply_combiner(combiner, records)
    writer = spill_mod.BucketWriter(partitioner.num_partitions, spill, f"i{input_index}-m{index}")
    if hot_keys:
        records = [
            (SaltedKey(record[0], index), record[1]) if record[0] in hot_keys else record
            for record in records
        ]
    writer.write_keyed(partitioner, records, tagged)
    return _writer_output(writer, records_in, combined_in)


def salted_shuffle_write(
    partitioner: Any,
    combiner: tuple[Any, ...] | None,
    tagged: bool,
    spill: SpillSpec | None,
    input_index: int,
    hot_keys: frozenset,
    records: list[Any],
    index: int,
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
        partitioner, combiner, tagged, spill, input_index, records, index, hot_keys
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
    _fold_into(accumulator, function, spill_mod.iter_merged(payloads))
    return list(accumulator.items())


_MISSING = object()


def _fold_into(
    accumulator: dict[Any, Any], function: Callable[[Any, Any], Any], records: Iterable[Any]
) -> None:
    """Fold each ``(key, value)`` into ``accumulator``: ``held ⊕ value``
    when the key is held, else ``value``.  One ``get`` hashes each key
    once before the store (a tuple does not cache its hash)."""
    get = accumulator.get
    for key, value in records:
        held = get(key, _MISSING)
        accumulator[key] = value if held is _MISSING else function(held, value)


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
    _fold_into(folded, function, right)
    _fold_into(merged, function, folded.items())
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
    left: dict[Any, list[Any]],
    right: dict[Any, list[Any]],
    consumer: Callable[[Iterable[Any]], list[Any]] | None = None,
) -> list[Any]:
    """Inner-join per-side group dicts into ``(key, (left, right))`` pairs.

    With a ``consumer`` the co-grouped sides go to it instead (and this
    returns what it returns): its nested ``for a in left values: for b in
    right values`` visits the pairs in the order they are expanded here.
    """
    groups = _matched_groups(left, right)
    if consumer is not None:
        return consumer(groups)
    return [
        (key, (a, b)) for key, left_values, right_values in groups for a in left_values for b in right_values
    ]


def join_bucket(payloads: list[BucketPayload], consumer: Any = None) -> list[Any]:
    """Join reduce side: cogroup one bucket and inner-join it (or hand the
    groups to ``consumer``, see :func:`_join_sides`)."""
    left, right = split_tagged(payloads)
    return _join_sides(left, right, consumer)


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
    """One task's input when co-partitioned operators run inside it: a reduce
    bucket's payloads (or a narrow chain's source partition), then partition
    ``i`` of each zipped side."""


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
    return zipped_chain(stages, zips, [partition[:cut], *partition[cut:]], index)


def zipped_chain(
    stages: tuple[NarrowStage, ...],
    zips: tuple[tuple[Callable[[list[Any]], list[Any]], bool], ...],
    partition: list[Any],
    index: int,
) -> list[Any]:
    """:func:`zipped_reduce` for a narrow task: ``stages`` run over the
    :class:`ZippedBucket`'s first element, its source partition."""
    records = partition[0]
    for stage in stages:
        records = apply_stage(stage, records, index)
    for (function, reduced_left), side in zip(zips, partition[1:], strict=True):
        records = function([records, side] if reduced_left else [side, records])
    return records


def zip_join_partition(partition: list[Any], consumer: Any = None) -> list[Any]:
    """Join of co-partitioned inputs; ``partition`` is ``[left, right]``."""
    left_records, right_records = partition
    return _join_sides(_group_values(left_records), _group_values(right_records), consumer)


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
