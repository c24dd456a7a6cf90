"""Differential harness for the lazy fusing engine and its executors.

Every Figure 3 workload is run through the sequential loop-language
interpreter (the correctness oracle) and through the translated plan under
both executors (``sequential``, ``cluster``); all three results must agree.
Property-style tests check that operator fusion is observable only in the
narrow-stage metrics: fused pipelines preserve partitioner metadata and leave
the shuffle/record metrics untouched.
"""

from __future__ import annotations

import contextlib
import functools

import pytest

from test_soundness_programs import assert_same_outputs, values_match

from repro.api.config import EXECUTOR_MODES
from repro.errors import ExecutionError, WorkerLostError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner
from repro.workloads import workload_for_program

#: Programs whose plans must run generated row segments
#: (asserted inside the differential sweeps here and in
#: test_cluster_equivalence): a scalar fold, a join → reduceByKey and a loop.
GENERATED_PROGRAMS = ("linear_regression", "matrix_multiplication", "pagerank")

#: Programs whose hash join feeds a ``+=`` group-by: the join must hand its
#: co-grouped sides to a generated consumer that folds by key, not build the
#: joined pairs for a later stage to append and a combiner to re-walk.
FOLDING_JOIN_PROGRAMS = ("matrix_multiplication", "pagerank")


def assert_folding_consumer(name: str, trace: list) -> None:
    """The planner's trace names each join's fused consumer by its label."""
    if name in FOLDING_JOIN_PROGRAMS:
        assert any(
            "consumer fused into the join task: cogroup" in line and line.endswith("→fold_by_key(+)")
            for line in trace
        ), f"{name}: no join ran a folding consumer"


#: Workload sizes small enough for the tree-walking interpreter oracle.
SIZES = {
    "conditional_sum": 300,
    "equal": 200,
    "string_match": 200,
    "word_count": 400,
    "histogram": 200,
    "linear_regression": 200,
    "group_by": 300,
    "matrix_addition": 6,
    "matrix_multiplication": 5,
    "pagerank": 40,
    "kmeans": 220,
    "matrix_factorization": 6,
}


def workload(name: str) -> dict:
    return workload_for_program(name, SIZES[name])


@functools.lru_cache(maxsize=None)
def interpreter_outputs(name: str) -> dict:
    """The sequential-interpreter oracle, computed once per program."""
    spec = get_program(name)
    return diablo_for(spec).interpret(spec.source, dict(workload(name)))


@contextlib.contextmanager
def broadcast_threshold(ctx: DistributedContext, threshold: int):
    """``ctx`` with its broadcast-join threshold at ``threshold`` inside the
    block: 0 makes every join shuffle, a large one broadcasts the smaller side."""
    saved, ctx.broadcast_join_threshold = ctx.broadcast_join_threshold, threshold
    try:
        yield ctx
    finally:
        ctx.broadcast_join_threshold = saved


def _joined(left, right, threshold: int) -> list:
    with broadcast_threshold(left.context, threshold):
        return sorted(left.join(right).collect())


def context_on(executor: str, **options) -> DistributedContext:
    """A context on ``executor``: the driver loop, or two cluster workers."""
    if executor == "cluster":
        return ClusterContext(cluster_workers=2, **options)
    return DistributedContext(**options)


#: Counters of where tasks ran and how data moved between processes: they
#: differ between the executors by design.  ``shuffle_reduce_tasks`` is one:
#: an in-memory partitionBy concatenates its buckets in the driver, while the
#: cluster reads its remote buckets in reduce tasks.
EXECUTOR_COUNTERS = (
    "parallel_tasks",
    "shuffle_reduce_tasks",
    "resident_partition_reuses",
    "driver_pushed_bytes",
    "driver_fetched_bytes",
    "driver_fetches",
    "worker_payload_fetches",
    "worker_payload_bytes",
    "worker_payload_local_reads",
)


def plan_counters(context: DistributedContext) -> dict:
    """The metrics snapshot without :data:`EXECUTOR_COUNTERS`."""
    snapshot = context.metrics.snapshot()
    for counter in EXECUTOR_COUNTERS:
        snapshot.pop(counter)
    return snapshot


@functools.lru_cache(maxsize=None)
def run_translated_under(name: str, mode: str, spill_threshold_bytes: int | None = None) -> dict:
    spec = get_program(name)
    with context_on(mode, num_partitions=4, spill_threshold_bytes=spill_threshold_bytes) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**workload(name))
        outputs = translated_outputs(name, result)
        if name in GENERATED_PROGRAMS:
            # The closure-per-qualifier path is gone: these plans can only
            # have run as generated row segments, under every executor.
            assert context.metrics.generated_segments > 0, f"{name}/{mode}: nothing generated"
        assert_folding_consumer(name, result.trace)
        if spill_threshold_bytes is not None and context.metrics.shuffles > 0:
            assert context.metrics.spilled_bytes > 0, f"{name}: shuffled but never spilled"
            assert context.metrics.spill_files > 0
        return outputs


class _Outputs:
    """Adapter so assert_same_outputs can read plain output dicts."""

    def __init__(self, outputs: dict):
        self._outputs = outputs

    def __getitem__(self, name):
        return self._outputs[name]

    def array(self, name):
        return self._outputs[name]


@pytest.mark.parametrize("mode", EXECUTOR_MODES)
@pytest.mark.parametrize("name", table2_program_names())
def test_every_figure3_workload_matches_interpreter(name, mode):
    spec = get_program(name)
    translated = run_translated_under(name, mode)
    assert_same_outputs(spec, _Outputs(translated), interpreter_outputs(name))


@pytest.mark.parametrize("name", ["word_count", "pagerank", "kmeans"])
def test_executor_modes_agree_exactly(name):
    """The executors run the same plan, so results are bit-identical."""
    assert run_translated_under(name, "cluster") == run_translated_under(name, "sequential")


def test_values_match_helper_tolerates_float_noise():
    assert values_match(1.0, 1.0 + 1e-12)
    assert not values_match(1.0, 1.1)


# ---------------------------------------------------------------------------
# Fusion properties
# ---------------------------------------------------------------------------


class TestFusion:
    def test_chain_runs_as_one_pass_with_no_intermediates(self):
        """map→filter→map_values executes as one run_tasks pass and allocates
        zero intermediate Datasets (the Issue 1 acceptance criterion)."""
        ctx = DistributedContext(num_partitions=4)
        base = ctx.parallelize([(i, i) for i in range(40)]).materialize()
        ctx.metrics.reset()
        chained = (
            base.map(lambda pair: (pair[0], pair[1] + 1))
            .filter(lambda pair: pair[1] % 2 == 0)
            .map_values(lambda value: value * 10)
        )
        assert ctx.metrics.datasets_created == 0, "chaining must not materialize"
        assert ctx.metrics.narrow_tasks == 0
        result = chained.collect_as_map()
        assert ctx.metrics.datasets_created == 1, "one dataset for the whole chain"
        assert ctx.metrics.fused_stages == 1, "one fused pass, not three"
        assert ctx.metrics.fused_operators == 3
        assert ctx.metrics.narrow_tasks == base.num_partitions
        assert result == {i: (i + 1) * 10 for i in range(40) if (i + 1) % 2 == 0}

    def test_fused_pipeline_preserves_partitioner_metadata(self):
        ctx = DistributedContext(num_partitions=4)
        partitioner = HashPartitioner(4)
        placed = ctx.parallelize([(i, i) for i in range(20)]).partition_by(partitioner)
        pipeline = placed.filter(lambda p: p[0] > 2).map_values(lambda v: v + 1)
        assert pipeline.partitioner == partitioner, "pending chain keeps the partitioner"
        pipeline.materialize()
        assert pipeline.partitioner == partitioner, "forcing keeps the partitioner"
        assert placed.map(lambda p: p).partitioner is None, "map drops the partitioner"

    def test_fusion_does_not_change_shuffle_metrics(self):
        """The same pipeline forced per-operator (cache between every op) and
        fully fused must shuffle the same stages and records."""

        def pipeline(ctx, step):
            ds = ctx.parallelize([(i % 7, float(i)) for i in range(200)])
            ds = step(ds.map(lambda p: (p[0], p[1] + 1)))
            ds = step(ds.filter(lambda p: p[0] != 3))
            ds = step(ds.map_values(lambda v: v * 2))
            return ds.reduce_by_key(lambda a, b: a + b).collect_as_map()

        fused_ctx = DistributedContext(num_partitions=4)
        fused_result = pipeline(fused_ctx, lambda ds: ds)
        unfused_ctx = DistributedContext(num_partitions=4)
        unfused_result = pipeline(unfused_ctx, lambda ds: ds.cache())

        assert fused_result == unfused_result
        fused, unfused = fused_ctx.metrics, unfused_ctx.metrics
        assert fused.shuffles == unfused.shuffles
        assert fused.shuffled_records == unfused.shuffled_records
        assert fused.shuffle_operations == unfused.shuffle_operations
        # Fusion is visible only in the narrow-stage counters.
        assert fused.fused_stages == 1
        assert unfused.fused_stages == 3

    def test_shuffle_metrics_identical_across_executors(self):
        snapshots = {}
        for mode in EXECUTOR_MODES:
            with context_on(mode, num_partitions=4) as ctx:
                ds = ctx.parallelize([(i % 5, i) for i in range(100)])
                ds.map_values(lambda v: v + 1).reduce_by_key(lambda a, b: a + b).collect()
                snapshots[mode] = plan_counters(ctx)
        assert snapshots["sequential"] == snapshots["cluster"]


# ---------------------------------------------------------------------------
# Wide operators: every executor vs. a plain-Python oracle
# ---------------------------------------------------------------------------

def _add(a, b):
    return a + b


def _key_value(i):
    # String keys on purpose: they exercise the process-stable partitioner
    # hashing.
    return (f"k{i % 7}", i)


#: Left/right key-value inputs shared by the join/co_group oracle tests;
#: overlapping, disjoint and duplicated keys included.
_LEFT_PAIRS = [(f"k{i % 5}", i) for i in range(40)]
_RIGHT_PAIRS = [(f"k{i % 8}", i * 10) for i in range(24)]


def _wide_pipelines(ctx):
    """Every wide operator, as (name, thunk) pairs over fresh datasets."""
    pairs = [_key_value(i) for i in range(150)]
    left = ctx.parallelize(_LEFT_PAIRS)
    right = ctx.parallelize(_RIGHT_PAIRS)
    return [
        ("group_by_key", lambda: sorted(
            (k, sorted(vs)) for k, vs in ctx.parallelize(pairs).group_by_key().collect()
        )),
        ("reduce_by_key", lambda: sorted(
            ctx.parallelize(pairs).reduce_by_key(_add).collect()
        )),
        ("co_group", lambda: sorted(
            (k, (sorted(ls), sorted(rs))) for k, (ls, rs) in left.co_group(right).collect()
        )),
        ("join", lambda: _joined(left, right, 0)),
        ("join_broadcast", lambda: _joined(left, right, 1_000)),
        ("full_outer_join", lambda: sorted(left.full_outer_join(right).collect())),
    ]


def _oracle_results():
    """Plain-Python reference results for :func:`_wide_pipelines`."""
    pairs = [_key_value(i) for i in range(150)]
    groups: dict = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    left_groups: dict = {}
    for k, v in _LEFT_PAIRS:
        left_groups.setdefault(k, []).append(v)
    right_groups: dict = {}
    for k, v in _RIGHT_PAIRS:
        right_groups.setdefault(k, []).append(v)
    all_keys = set(left_groups) | set(right_groups)
    inner = sorted(
        (k, (a, b)) for k in all_keys for a in left_groups.get(k, []) for b in right_groups.get(k, [])
    )
    left_outer = sorted(
        (k, (a, b))
        for k in left_groups
        for a in left_groups[k]
        for b in (right_groups.get(k) or [None])
    )
    # Full outer = every left row (None-filled when unmatched) plus the
    # unmatched right rows.
    full_outer = sorted(
        left_outer
        + [(k, (None, b)) for k in right_groups if k not in left_groups for b in right_groups[k]]
    )
    return {
        "group_by_key": sorted((k, sorted(vs)) for k, vs in groups.items()),
        "reduce_by_key": sorted((k, sum(vs)) for k, vs in groups.items()),
        "co_group": sorted(
            (k, (sorted(left_groups.get(k, [])), sorted(right_groups.get(k, []))))
            for k in all_keys
        ),
        "join": inner,
        "join_broadcast": inner,
        "full_outer_join": full_outer,
    }


class TestWideOperatorEquivalence:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_wide_operators_match_oracle_under_every_executor(self, mode):
        oracle = _oracle_results()
        with context_on(mode, num_partitions=4) as ctx:
            for name, thunk in _wide_pipelines(ctx):
                assert thunk() == oracle[name], f"{name} diverged under {mode!r}"

    def test_wide_operator_metrics_identical_across_executors(self):
        """Shuffle structure (stages, records, bytes, combiner effectiveness)
        is a function of the plan and the data, not of the executor."""
        snapshots = {}
        for mode in EXECUTOR_MODES:
            with context_on(mode, num_partitions=4) as ctx:
                for _name, thunk in _wide_pipelines(ctx):
                    thunk()
                snapshots[mode] = plan_counters(ctx)
        assert snapshots["sequential"] == snapshots["cluster"]

# ---------------------------------------------------------------------------
# Out-of-core shuffles: the spill path must be invisible in the results
# ---------------------------------------------------------------------------

#: Forces every shuffled record straight to disk -- the harshest spill setting.
TINY_SPILL = 1

#: Figure 3 programs whose translation actually shuffles (the wide-operator
#: differential set; the rest are pure narrow pipelines with nothing to spill).
SPILLING_PROGRAMS = (
    "word_count",
    "histogram",
    "group_by",
    "matrix_addition",
    "matrix_multiplication",
    "pagerank",
    "kmeans",
    "matrix_factorization",
)


class TestSpillEquivalence:
    """The acceptance criterion of the out-of-core shuffle: with a ~1-byte
    budget every wide operator spills every record, and nothing changes."""

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_wide_operators_spilled_match_oracle_under_every_executor(self, mode):
        oracle = _oracle_results()
        with context_on(mode, num_partitions=4, spill_threshold_bytes=TINY_SPILL) as ctx:
            for name, thunk in _wide_pipelines(ctx):
                assert thunk() == oracle[name], f"{name} diverged under spill + {mode!r}"
            assert ctx.metrics.spilled_bytes > 0
            assert ctx.metrics.spill_files > 0
            assert ctx.metrics.peak_shuffle_memory > 0
            assert ctx.shuffle_store.active_shuffle_dirs() == [], (
                "per-shuffle spill dirs must be removed as soon as each shuffle completes"
            )

    def test_spill_metrics_identical_across_executors(self):
        """Spill traffic is a function of the plan, the data and the budget
        -- not of the executor (runs are flushed at deterministic points)."""
        snapshots = {}
        for mode in EXECUTOR_MODES:
            with context_on(mode, num_partitions=4, spill_threshold_bytes=TINY_SPILL) as ctx:
                for _name, thunk in _wide_pipelines(ctx):
                    thunk()
                snapshots[mode] = plan_counters(ctx)
        assert snapshots["sequential"] == snapshots["cluster"]
        assert snapshots["sequential"]["spilled_bytes"] > 0

    def test_spilled_results_equal_in_memory_results(self, monkeypatch):
        """The same pipelines with and without spilling are bit-identical --
        unsorted, so output ordering is covered too."""
        # The nightly job exports DIABLO_SPILL_THRESHOLD_BYTES, which would
        # silently turn harvest(None) into a second spilled run and make
        # this comparison vacuous; pin the in-memory side down.
        monkeypatch.delenv("DIABLO_SPILL_THRESHOLD_BYTES", raising=False)

        def harvest(threshold):
            with DistributedContext(
                num_partitions=4, spill_threshold_bytes=threshold, broadcast_join_threshold=0
            ) as ctx:
                pairs = [_key_value(i) for i in range(150)]
                return {
                    "reduce": ctx.parallelize(pairs).reduce_by_key(_add).collect(),
                    "group": ctx.parallelize(pairs).group_by_key().collect(),
                    "join": ctx.parallelize(_LEFT_PAIRS).join(ctx.parallelize(_RIGHT_PAIRS)).collect(),
                }

        assert harvest(None) == harvest(TINY_SPILL)

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    @pytest.mark.parametrize("name", SPILLING_PROGRAMS)
    def test_figure3_wide_workloads_spilled_match_interpreter(self, name, mode):
        spec = get_program(name)
        translated = run_translated_under(name, mode, spill_threshold_bytes=TINY_SPILL)
        assert_same_outputs(spec, _Outputs(translated), interpreter_outputs(name))

    def test_spill_files_cleaned_up_after_context_close(self, tmp_path):
        ctx = DistributedContext(
            num_partitions=4, spill_threshold_bytes=TINY_SPILL, spill_dir=str(tmp_path)
        )
        ctx.parallelize([_key_value(i) for i in range(80)]).group_by_key().collect()
        root = ctx.shuffle_store.root
        assert root is not None and root.startswith(str(tmp_path))
        ctx.close()
        import os

        assert not os.path.exists(root), "close() must remove the spill root"

    def test_spill_files_cleaned_up_after_crash(self, tmp_path):
        """A reduce-side failure mid-shuffle must not leak the shuffle's
        spill directory."""
        with DistributedContext(
            num_partitions=4, spill_threshold_bytes=TINY_SPILL, spill_dir=str(tmp_path)
        ) as ctx:
            # Keys are unique within each (contiguous) partition, so the
            # map-side combiner never calls the function and the map side
            # spills successfully; keys repeat across partitions, so the
            # reduce-side merge calls it and crashes mid-shuffle.
            pairs = ctx.parallelize([(f"k{i}", i) for i in range(15)] * 2)
            with pytest.raises(ZeroDivisionError):
                pairs.reduce_by_key(_failing_combine).collect()
            assert ctx.metrics.spilled_bytes > 0, "the map side must have spilled first"
            assert ctx.shuffle_store.active_shuffle_dirs() == [], (
                "failed shuffles must clean their spill dirs"
            )


def _failing_combine(_a, _b):
    raise ZeroDivisionError("reduce-side boom")


# ---------------------------------------------------------------------------
# Join strategy selection
# ---------------------------------------------------------------------------


class TestJoinStrategySelection:
    def _sides(self, ctx, right_size):
        left = ctx.parallelize([(i % 10, i) for i in range(100)])
        right = ctx.parallelize([(k, k * 100) for k in range(right_size)])
        return left, right

    def test_small_side_at_threshold_is_broadcast(self):
        with DistributedContext(num_partitions=4, broadcast_join_threshold=8) as ctx:
            left, right = self._sides(ctx, 8)  # exactly at the threshold
            result = sorted(left.join(right).collect())
            assert ctx.metrics.join_strategies == {"broadcast": 1}
            assert ctx.metrics.shuffle_operations.get("join") is None
            assert result == sorted(
                (i % 10, (i, (i % 10) * 100)) for i in range(100) if i % 10 < 8
            )

    def test_side_above_threshold_shuffles(self):
        with DistributedContext(num_partitions=4, broadcast_join_threshold=8) as ctx:
            left, right = self._sides(ctx, 9)  # one past the threshold
            left.join(right).materialize()
            assert ctx.metrics.join_strategies == {"shuffle": 1}
            assert ctx.metrics.shuffle_operations.get("join") == 1

    def test_broadcast_and_shuffle_agree_on_results(self):
        with DistributedContext(num_partitions=4) as ctx:
            left, right = self._sides(ctx, 7)
            broadcast = _joined(left, right, 1_000)
            shuffled = _joined(left, right, 0)
            assert ctx.metrics.join_strategies == {"broadcast": 1, "shuffle": 1}
            assert broadcast == shuffled

    def test_full_outer_join_never_broadcasts(self):
        with DistributedContext(num_partitions=4, broadcast_join_threshold=1_000) as ctx:
            left, right = self._sides(ctx, 4)
            left.full_outer_join(right).materialize()
            assert ctx.metrics.join_strategies == {"shuffle": 1}


# ---------------------------------------------------------------------------
# Cluster dispatch of wide stages, and task errors
# ---------------------------------------------------------------------------


def _failing_step(_value):
    raise ZeroDivisionError("boom")


def _failing_os_step(_value):
    raise FileNotFoundError("no such file: boom")


@pytest.fixture(scope="class")
def cluster():
    with context_on("cluster", num_partitions=4) as context:
        yield context


class TestClusterDispatch:
    def test_groupby_join_pipeline_runs_on_the_workers(self, cluster):
        """Map side and reduce side of a groupBy/join pipeline both dispatch
        through ``run_tasks`` to the workers, and nothing falls back."""
        cluster.metrics.reset()
        keyed = cluster.parallelize(range(200)).map(_key_value)
        grouped = keyed.reduce_by_key(_add)
        lookup = cluster.parallelize([(f"k{i}", i) for i in range(7)])
        with broadcast_threshold(cluster, 0):
            joined = grouped.join(lookup).collect()
        assert len(joined) == 7
        assert cluster.metrics.parallel_tasks > 0
        assert cluster.metrics.cluster_fallbacks == 0
        assert cluster.metrics.shuffle_map_tasks > 0
        assert cluster.metrics.shuffle_reduce_tasks > 0

    def test_a_closure_in_a_wide_stage_ships_by_value(self, cluster):
        captured = {"offset": 1}
        cluster.metrics.reset()
        ds = cluster.parallelize([(i % 5, i) for i in range(50)])
        result = ds.reduce_by_key(lambda a, b: a + b + captured["offset"] - 1)
        assert sorted(result.collect()) == [(k, sum(range(k, 50, 5))) for k in range(5)]
        assert cluster.metrics.cluster_fallbacks == 0

    @pytest.mark.parametrize(
        "step, error", [(_failing_step, ZeroDivisionError), (_failing_os_step, FileNotFoundError)]
    )
    def test_task_errors_carry_the_user_exception(self, cluster, step, error):
        """An exception raised by user code -- an ``OSError`` included -- is a
        task error, not a lost worker, and the cluster keeps running."""
        with pytest.raises(ExecutionError) as caught:
            cluster.parallelize(range(10)).map(step).collect()
        assert not isinstance(caught.value, WorkerLostError)
        assert type(caught.value.__cause__) is error
        assert sorted(cluster.parallelize(range(5)).collect()) == list(range(5))
