"""Execution metrics for the local DISC runtime.

Wall-clock numbers vary from machine to machine, so the benchmark suite also
asserts on *structural* metrics: how many shuffle stages a query ran, how many
records and (estimated serialized) bytes crossed the simulated network, how
effective map-side combining was, and which join strategy the planner picked.
These are the quantities that determine the relative performance shapes the
paper reports (e.g. the DIABLO KMeans shuffles far more data than the
hand-written broadcast version).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any


@dataclass
class Metrics:
    """Counters accumulated by a :class:`~repro.runtime.context.DistributedContext`."""

    #: Number of shuffle stages executed (groupByKey / reduceByKey / join / ...).
    shuffles: int = 0
    #: Number of records written to the simulated shuffle.
    shuffled_records: int = 0
    #: Estimated serialized bytes written to the simulated shuffle.
    shuffled_bytes: int = 0
    #: Number of narrow (per-partition) tasks executed.
    narrow_tasks: int = 0
    #: Number of datasets materialized.
    datasets_created: int = 0
    #: Number of broadcast variables created.
    broadcasts: int = 0
    #: Records scanned by narrow operations (a proxy for compute volume).
    records_processed: int = 0
    #: Number of fused narrow stages executed (one per forced pipeline, not
    #: one per operator -- a map→filter→map_values chain counts once).
    fused_stages: int = 0
    #: Total narrow operators folded into fused stages.
    fused_operators: int = 0
    #: Row segments the planner lowered to one generated per-partition
    #: function instead of a stage per operator (counted at plan time, so
    #: identical across executor modes; see :mod:`repro.algebra.codegen`).
    generated_segments: int = 0
    #: Tasks actually dispatched to cluster workers (0 under the sequential
    #: executor and for driver fallbacks) -- executor-specific by design.
    parallel_tasks: int = 0
    #: Map-side shuffle tasks executed (one per input partition per shuffle).
    shuffle_map_tasks: int = 0
    #: Reduce-side shuffle tasks executed (one per output bucket per shuffle).
    shuffle_reduce_tasks: int = 0
    #: Records entering map-side combiners (pre-aggregation input).
    combiner_input_records: int = 0
    #: Records leaving map-side combiners (what actually gets shuffled).
    combiner_output_records: int = 0
    #: Bytes written to shuffle spill files (0 unless spilling is enabled
    #: via ``spill_threshold_bytes`` and a shuffle actually exceeded it).
    spilled_bytes: int = 0
    #: Spill files created by shuffle map tasks.
    spill_files: int = 0
    #: Largest estimated in-memory bucket footprint any single map task
    #: reached between flushes -- should hover near the spill threshold when
    #: spilling is active (only tracked while spilling is enabled).
    peak_shuffle_memory: int = 0
    #: Wide operators that executed with *no* ShuffleStage at all because
    #: their input(s) already carried the required partitioner (narrow
    #: reduce/group/aggregate passes and co-partitioned narrow joins).
    shuffles_eliminated: int = 0
    #: Joins / co-groups executed as co-partitioned narrow zip stages
    #: (a subset of ``shuffles_eliminated``).
    narrow_joins: int = 0
    #: Shuffle inputs whose map-side bucketing pass was skipped because the
    #: input was already partitioned by the shuffle's partitioner (the other
    #: side still shuffles; this side moves zero records/bytes).
    prepartitioned_inputs: int = 0
    #: Loop-invariant datasets reused from the while-loop cache instead of
    #: being recomputed (and re-shuffled) by a later iteration.
    loop_invariant_reuses: int = 0
    #: Record-function stages planned to run as columnar batch kernels
    #: (``map``/``flat_map``/``filter``/``map_values`` chains and
    #: vectorizable map-side combiners).  Counted at plan time, so identical
    #: across executor modes; 0 unless the context runs with ``columnar=True``.
    vectorized_stages: int = 0
    #: Record-function stages that stayed on the record path while columnar
    #: execution was on (unrecognized functions, combiners without a kernel,
    #: and whole chains that were not fully lowerable).
    columnar_fallbacks: int = 0
    #: Batch runs skipped straight to the record path because an earlier
    #: partition of the same (plan-cached) segment already fell back -- the
    #: memoized-fallback conversion-tax savings.  Runtime counters, so only
    #: the driver-side (sequential) executor reports them; cluster workers
    #: keep theirs worker-side.
    columnar_memoized_skips: int = 0
    #: Batch runs that resumed from a resident ColumnarPartition produced by
    #: the previous force instead of re-running ``from_records``.
    columnar_resident_reuses: int = 0
    #: Map-side shuffle tasks whose bucket assignment ran vectorized over a
    #: resident int key column instead of hashing record-at-a-time.
    columnar_vector_bucket_tasks: int = 0
    #: Comprehension evaluations served from a plan stored with the program
    #: (the run only bound its inputs and lowered it, building nothing).
    plan_cache_hits: int = 0
    #: Hot keys salted by the adaptive shuffle path: their per-map-task
    #: partials were spread across reduce partitions and final-folded by the
    #: driver (counted once per salted key per shuffle).
    salted_keys: int = 0
    #: Force-time adaptive execution decisions taken (salting, map-side
    #: grouping, histogram-driven range bounds, broadcast re-decisions).
    adaptive_decisions: int = 0
    #: Cluster-mode task batches that ran in the driver instead of on workers
    #: (no task_spec, or a chain that could not cross the wire).  0 under the
    #: sequential executor.
    cluster_fallbacks: int = 0
    #: Task input partitions a cluster wave named in the workers' resident
    #: stores (a previous wave's output, or a driver list pushed earlier)
    #: instead of shipping their records.
    resident_partition_reuses: int = 0
    #: Serialized shuffle-payload bytes that passed *through the driver* in
    #: cluster mode.  Zero in a healthy cluster run: reduce inputs move
    #: worker-to-worker, and this counter only grows when a driver fallback
    #: produced or consumed real payloads.
    driver_payload_bytes: int = 0
    #: Pickled bytes of driver-held record lists pushed to cluster workers
    #: (inputs; a chain of waves over resident task outputs pushes nothing).
    driver_pushed_bytes: int = 0
    #: Frame bytes of records cluster-mode *driver code* pulled from workers
    #: (reads of resident task outputs, task replies an action asked to
    #: carry the records) and how many of those were fetches of their own.
    driver_fetched_bytes: int = 0
    driver_fetches: int = 0
    #: Shuffle bucket payloads a cluster worker fetched from a peer worker's
    #: serve socket (the worker-to-worker shuffle transfers).
    worker_payload_fetches: int = 0
    #: Serialized frame bytes moved by those worker-to-worker fetches.
    worker_payload_bytes: int = 0
    #: Shuffle bucket payloads a cluster worker read from its own store
    #: (map and reduce for that bucket landed on the same worker).
    worker_payload_local_reads: int = 0
    #: Per-operation shuffle counts (operation name -> count).
    shuffle_operations: dict[str, int] = field(default_factory=dict)
    #: Chosen join strategies ("broadcast" / "shuffle" / "cartesian" -> count).
    join_strategies: dict[str, int] = field(default_factory=dict)
    #: Per-stage detail log: one dict per executed shuffle stage.
    shuffle_stage_log: list[dict] = field(default_factory=list)
    #: One dict per eliminated (or partially eliminated) shuffle:
    #: ``{"operation": ..., "kind": "narrow"|"prepartitioned-input",
    #: "reason": ...}`` -- rendered by ``explain_metrics``.
    elimination_log: list[dict] = field(default_factory=list)
    #: One dict per adaptive decision: ``{"operation": ..., "kind":
    #: "salted-reduce"|"map-side-grouping"|"histogram-range-bounds"|
    #: "broadcast-join", "reason": ...}`` -- rendered by ``explain_metrics``.
    adaptive_log: list[dict] = field(default_factory=list)

    def record_shuffle(self, operation: str, records: int) -> None:
        """Account for one shuffle stage moving ``records`` records."""
        self.shuffles += 1
        self.shuffled_records += records
        self.shuffle_operations[operation] = self.shuffle_operations.get(operation, 0) + 1

    def record_shuffle_stage(
        self,
        operation: str,
        records: int,
        bytes_moved: int,
        map_tasks: int,
        reduce_tasks: int,
    ) -> None:
        """Account for one executed :class:`~repro.runtime.stage.ShuffleStage`."""
        self.record_shuffle(operation, records)
        self.shuffled_bytes += bytes_moved
        self.shuffle_map_tasks += map_tasks
        self.shuffle_reduce_tasks += reduce_tasks
        self.shuffle_stage_log.append(
            {
                "operation": operation,
                "records": records,
                "bytes": bytes_moved,
                "map_tasks": map_tasks,
                "reduce_tasks": reduce_tasks,
            }
        )

    def record_combiner(self, records_in: int, records_out: int) -> None:
        """Account for one map-side combine pass (pre-shuffle aggregation)."""
        self.combiner_input_records += records_in
        self.combiner_output_records += records_out

    @property
    def combiner_hit_rate(self) -> float:
        """Fraction of combiner input records eliminated before the shuffle
        (0.0 when no combiner ran)."""
        if self.combiner_input_records == 0:
            return 0.0
        saved = self.combiner_input_records - self.combiner_output_records
        return saved / self.combiner_input_records

    def record_spill(self, spilled_bytes: int, spill_files: int, peak_memory: int) -> None:
        """Account for one spill-enabled shuffle's out-of-core traffic."""
        self.spilled_bytes += spilled_bytes
        self.spill_files += spill_files
        self.peak_shuffle_memory = max(self.peak_shuffle_memory, peak_memory)

    def record_shuffle_eliminated(self, operation: str, reason: str, narrow_join: bool = False) -> None:
        """Account for one wide operator lowered to a narrow (shuffle-free) pass."""
        self.shuffles_eliminated += 1
        if narrow_join:
            self.narrow_joins += 1
        self.elimination_log.append(
            {"operation": operation, "kind": "narrow", "reason": reason}
        )

    def record_prepartitioned_input(self, operation: str, reason: str) -> None:
        """Account for one shuffle input whose map-side shuffle was skipped."""
        self.prepartitioned_inputs += 1
        self.elimination_log.append(
            {"operation": operation, "kind": "prepartitioned-input", "reason": reason}
        )

    def record_loop_invariant_reuse(self) -> None:
        """Account for one loop-invariant dataset served from the loop cache."""
        self.loop_invariant_reuses += 1

    def record_plan_cache_hit(self) -> None:
        """Account for one comprehension evaluation served from a stored plan."""
        self.plan_cache_hits += 1

    def record_salted_keys(self, count: int) -> None:
        """Account for ``count`` hot keys salted by one adaptive shuffle."""
        self.salted_keys += count

    def record_adaptive_decision(self, operation: str, kind: str, reason: str) -> None:
        """Account for one force-time adaptive execution decision."""
        self.adaptive_decisions += 1
        self.adaptive_log.append({"operation": operation, "kind": kind, "reason": reason})

    def record_join_strategy(self, strategy: str) -> None:
        """Account for one join planned as ``strategy``."""
        self.join_strategies[strategy] = self.join_strategies.get(strategy, 0) + 1

    def record_narrow(self, tasks: int, records: int) -> None:
        """Account for a narrow stage of ``tasks`` tasks over ``records`` records."""
        self.narrow_tasks += tasks
        self.records_processed += records

    def record_fused(self, operators: int) -> None:
        """Account for one fused narrow stage covering ``operators`` operators."""
        self.fused_stages += 1
        self.fused_operators += operators

    def record_consumer(self, consumer: Any, columnar: bool) -> None:
        """Account for a join consumer: one fused stage of the join task,
        standing for as many record-path operators as a generated function
        says it replaced (see ``stage.operator_count``)."""
        operators = getattr(consumer, "operators", 1)
        self.record_fused(operators)
        if columnar:
            self.record_vectorization(0, operators)

    def record_generated_segment(self) -> None:
        """Account for one row segment lowered to a generated function."""
        self.generated_segments += 1

    def record_vectorization(self, vectorized: int, fallbacks: int) -> None:
        """Account for one columnar-enabled plan's stage classification."""
        self.vectorized_stages += vectorized
        self.columnar_fallbacks += fallbacks

    def record_columnar_runtime(self, stats: dict[str, int]) -> None:
        """Merge one batch of :func:`repro.runtime.stage.consume_batch_stats`."""
        self.columnar_memoized_skips += stats.get("memoized_skips", 0)
        self.columnar_resident_reuses += stats.get("resident_reuses", 0)
        self.columnar_vector_bucket_tasks += stats.get("vector_bucket_tasks", 0)

    def record_parallel_tasks(self, tasks: int) -> None:
        """Account for ``tasks`` tasks dispatched to cluster workers."""
        self.parallel_tasks += tasks

    def record_cluster_fallback(self) -> None:
        """Account for one cluster-mode task batch executed in the driver."""
        self.cluster_fallbacks += 1

    def record_resident_reuse(self, partitions: int) -> None:
        """Account for ``partitions`` partitions reused from worker stores."""
        self.resident_partition_reuses += partitions

    def record_driver_payload(self, payload_bytes: int) -> None:
        """Account for shuffle-payload bytes that crossed through the driver."""
        self.driver_payload_bytes += payload_bytes

    def record_driver_push(self, pushed_bytes: int) -> None:
        """Account for record bytes the driver pushed to cluster workers."""
        self.driver_pushed_bytes += pushed_bytes

    def record_driver_fetch(self, fetched_bytes: int, fetches: int = 1) -> None:
        """Account for record bytes driver code pulled from cluster workers."""
        self.driver_fetched_bytes += fetched_bytes
        self.driver_fetches += fetches

    def record_worker_payload(self, fetches: int, fetch_bytes: int, local_reads: int) -> None:
        """Merge one worker's payload-transfer counters into the driver view."""
        self.worker_payload_fetches += fetches
        self.worker_payload_bytes += fetch_bytes
        self.worker_payload_local_reads += local_reads

    def record_dataset(self) -> None:
        self.datasets_created += 1

    def record_broadcast(self) -> None:
        self.broadcasts += 1

    def reset(self) -> None:
        """Zero every counter (benchmarks call this between runs)."""
        for spec in fields(self):
            default = spec.default_factory() if spec.default is MISSING else spec.default
            setattr(self, spec.name, default)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the int counters plus the ``broadcast_joins``
        / ``shuffle_joins`` counts (handy for reporting).

        ``parallel_tasks`` and the cluster counters depend on the executor
        mode; every other counter is a function of the plan and the data.
        """
        counters = {
            spec.name: getattr(self, spec.name) for spec in fields(self) if spec.default is not MISSING
        }
        counters["broadcast_joins"] = self.join_strategies.get("broadcast", 0)
        counters["shuffle_joins"] = self.join_strategies.get("shuffle", 0)
        return counters
