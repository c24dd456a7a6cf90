"""Differential harness for the lazy fusing engine and its executor modes.

Every Figure 3 workload is run through the sequential loop-language
interpreter (the correctness oracle) and through the translated plan under
all three executor modes (``sequential``, ``threads``, ``processes``); all
four results must agree.  Property-style tests check that operator fusion is
observable only in the narrow-stage metrics: fused pipelines preserve
partitioner metadata and leave the shuffle/record metrics untouched.
"""

from __future__ import annotations

import functools
import operator

import pytest

from test_soundness_programs import assert_same_outputs, values_match

from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.runtime.context import EXECUTOR_MODES, DistributedContext
from repro.runtime.partitioner import HashPartitioner
from repro.workloads import generators, workload_for_program

#: Programs whose plans must run generated row segments under every executor
#: (asserted inside the differential sweeps here, in test_columnar and in
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
    inputs = workload_for_program(name, SIZES[name])
    if name == "matrix_factorization":
        # With a dense R the interpreter's implicit-zero reads coincide with
        # the translator's sparse semantics (see sources.py notes).
        inputs["R"] = generators.random_matrix(SIZES[name], SIZES[name], seed=3)
    return inputs


@functools.lru_cache(maxsize=None)
def interpreter_outputs(name: str) -> dict:
    """The sequential-interpreter oracle, computed once per program."""
    spec = get_program(name)
    return diablo_for(spec).interpret(spec.source, dict(workload(name)))


def run_translated_under(name: str, mode: str, spill_threshold_bytes: int | None = None) -> dict:
    spec = get_program(name)
    with DistributedContext(
        num_partitions=4, executor=mode, spill_threshold_bytes=spill_threshold_bytes
    ) as context:
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
    """The three executors run the same plan, so results are bit-identical."""
    by_mode = {mode: run_translated_under(name, mode) for mode in EXECUTOR_MODES}
    reference = by_mode["sequential"]
    for mode in ("threads", "processes"):
        assert by_mode[mode] == reference, f"{name}: {mode} differs from sequential"


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
        pipeline = placed.filter(lambda p: p[0] > 2).map_values(lambda v: v + 1).sample(0.9)
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
            with DistributedContext(num_partitions=4, executor=mode) as ctx:
                ds = ctx.parallelize([(i % 5, i) for i in range(100)])
                ds.map_values(lambda v: v + 1).reduce_by_key(lambda a, b: a + b).collect()
                snapshot = ctx.metrics.snapshot()
                # Executor-specific by design: where the tasks ran, not what
                # the plan moved.
                snapshot.pop("process_fallbacks")
                snapshot.pop("parallel_tasks")
                snapshots[mode] = snapshot
        assert snapshots["sequential"] == snapshots["threads"] == snapshots["processes"]


# ---------------------------------------------------------------------------
# Wide operators: every executor mode vs. a plain-Python oracle
# ---------------------------------------------------------------------------

# Module-level functions so the stage chains pickle and the "processes"
# executor genuinely ships the map and reduce sides to worker processes.


def _add(a, b):
    return a + b


def _key_value(i):
    # String keys on purpose: worker processes have different hash seeds, so
    # this exercises the process-stable partitioner hashing.
    return (f"k{i % 7}", i)


def _pair_sum(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _seq_count_sum(acc, value):
    return (acc[0] + 1, acc[1] + value)


def _identity(x):
    return x


#: Left/right key-value inputs shared by the join/co_group oracle tests;
#: overlapping, disjoint and duplicated keys included.
_LEFT_PAIRS = [(f"k{i % 5}", i) for i in range(40)]
_RIGHT_PAIRS = [(f"k{i % 8}", i * 10) for i in range(24)]


def _wide_pipelines(ctx):
    """Every wide operator, as (name, thunk) pairs over fresh datasets."""
    records = [i - 30 for i in range(120)]
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
        ("aggregate_by_key", lambda: sorted(
            ctx.parallelize(pairs).aggregate_by_key((0, 0), _seq_count_sum, _pair_sum).collect()
        )),
        ("distinct", lambda: sorted(
            ctx.parallelize([i % 9 for i in range(90)]).distinct().collect()
        )),
        ("sort_by", lambda: ctx.parallelize(records).sort_by(_identity).collect()),
        ("sort_by_desc", lambda: ctx.parallelize(records).sort_by(_identity, ascending=False).collect()),
        ("repartition", lambda: sorted(ctx.parallelize(records).repartition(3).collect())),
        ("co_group", lambda: sorted(
            (k, (sorted(ls), sorted(rs))) for k, (ls, rs) in left.co_group(right).collect()
        )),
        ("join", lambda: sorted(left.join(right, strategy="shuffle").collect())),
        ("join_broadcast", lambda: sorted(left.join(right, strategy="broadcast").collect())),
        ("left_outer_join", lambda: sorted(left.left_outer_join(right).collect())),
        ("right_outer_join", lambda: sorted(left.right_outer_join(right).collect())),
        ("full_outer_join", lambda: sorted(left.full_outer_join(right).collect())),
    ]


def _oracle_results():
    """Plain-Python reference results for :func:`_wide_pipelines`."""
    records = [i - 30 for i in range(120)]
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
    right_outer = sorted(
        (k, (a, b))
        for k in right_groups
        for b in right_groups[k]
        for a in (left_groups.get(k) or [None])
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
        "aggregate_by_key": sorted((k, (len(vs), sum(vs))) for k, vs in groups.items()),
        "distinct": sorted(set(i % 9 for i in range(90))),
        "sort_by": sorted(records),
        "sort_by_desc": sorted(records, reverse=True),
        "repartition": sorted(records),
        "co_group": sorted(
            (k, (sorted(left_groups.get(k, [])), sorted(right_groups.get(k, []))))
            for k in all_keys
        ),
        "join": inner,
        "join_broadcast": inner,
        "left_outer_join": left_outer,
        "right_outer_join": right_outer,
        "full_outer_join": full_outer,
    }


class TestWideOperatorEquivalence:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_wide_operators_match_oracle_under_every_executor(self, mode):
        oracle = _oracle_results()
        with DistributedContext(num_partitions=4, executor=mode) as ctx:
            for name, thunk in _wide_pipelines(ctx):
                assert thunk() == oracle[name], f"{name} diverged under {mode!r}"

    def test_wide_operator_metrics_identical_across_executors(self):
        """Shuffle structure (stages, records, bytes, combiner effectiveness)
        is a function of the plan and the data, not of the executor."""
        snapshots = {}
        for mode in EXECUTOR_MODES:
            with DistributedContext(num_partitions=4, executor=mode) as ctx:
                for _name, thunk in _wide_pipelines(ctx):
                    thunk()
                snapshot = ctx.metrics.snapshot()
                snapshot.pop("process_fallbacks")
                snapshot.pop("parallel_tasks")
                snapshots[mode] = snapshot
        assert snapshots["sequential"] == snapshots["threads"] == snapshots["processes"]

    def test_sort_by_key_output_keeps_a_range_partitioner(self):
        from repro.runtime.partitioner import RangePartitioner

        with DistributedContext(num_partitions=4) as ctx:
            pairs = [(i % 50, i) for i in range(200)]
            ordered = ctx.parallelize(pairs).sort_by_key()
            ordered.materialize()
            assert isinstance(ordered.partitioner, RangePartitioner)
            # Every partition holds one contiguous key range.
            previous_max = None
            for partition in ordered.partitions:
                if not partition:
                    continue
                if previous_max is not None:
                    assert partition[0][0] >= previous_max
                previous_max = partition[-1][0]
            # The partitioner is *usable*: a follow-up keyed shuffle honors it.
            regrouped = ordered.reduce_by_key(_add)
            assert len(regrouped.collect()) == 50

    def test_sort_by_arbitrary_key_drops_the_partitioner(self):
        # A RangePartitioner over key_function(record) values must NOT be
        # advertised as a record[0] partitioner: downstream keyed shuffles
        # would bucket with the wrong key type.
        with DistributedContext(num_partitions=4) as ctx:
            pairs = [(f"k{i}", i % 13) for i in range(60)]
            by_value = ctx.parallelize(pairs).sort_by(lambda pair: pair[1])
            assert by_value.partitioner is None
            # The regression: this used to crash comparing str keys against
            # the int range bounds inherited from the sort.
            regrouped = by_value.reduce_by_key(_add)
            assert len(regrouped.collect()) == 60

    def test_repartition_is_lazy_and_counted_as_a_shuffle(self):
        with DistributedContext(num_partitions=4) as ctx:
            ds = ctx.parallelize(range(40)).map(_identity).repartition(6)
            assert not ds.is_materialized
            assert ctx.metrics.shuffles == 0
            assert ds.num_partitions == 6
            assert sorted(ds.collect()) == list(range(40))
            assert ctx.metrics.shuffle_operations.get("repartition") == 1


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
        with DistributedContext(
            num_partitions=4, executor=mode, spill_threshold_bytes=TINY_SPILL
        ) as ctx:
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
            with DistributedContext(
                num_partitions=4, executor=mode, spill_threshold_bytes=TINY_SPILL
            ) as ctx:
                for _name, thunk in _wide_pipelines(ctx):
                    thunk()
                snapshot = ctx.metrics.snapshot()
                snapshot.pop("process_fallbacks")
                snapshot.pop("parallel_tasks")
                snapshots[mode] = snapshot
        assert snapshots["sequential"] == snapshots["threads"] == snapshots["processes"]

    def test_spilled_results_equal_in_memory_results(self, monkeypatch):
        """The same pipelines with and without spilling are bit-identical --
        unsorted, so output ordering is covered too."""
        # The nightly job exports DIABLO_SPILL_THRESHOLD_BYTES, which would
        # silently turn harvest(None) into a second spilled run and make
        # this comparison vacuous; pin the in-memory side down.
        monkeypatch.delenv("DIABLO_SPILL_THRESHOLD_BYTES", raising=False)

        def harvest(threshold):
            with DistributedContext(num_partitions=4, spill_threshold_bytes=threshold) as ctx:
                pairs = [_key_value(i) for i in range(150)]
                return {
                    "reduce": ctx.parallelize(pairs).reduce_by_key(_add).collect(),
                    "group": ctx.parallelize(pairs).group_by_key().collect(),
                    "sort": ctx.parallelize([i % 13 for i in range(120)]).sort_by(_identity).collect(),
                    "sort_desc": ctx.parallelize([i % 13 for i in range(120)])
                    .sort_by(_identity, ascending=False)
                    .collect(),
                    "join": ctx.parallelize(_LEFT_PAIRS)
                    .join(ctx.parallelize(_RIGHT_PAIRS), strategy="shuffle")
                    .collect(),
                    "repartition": ctx.parallelize(range(75)).repartition(3).collect(),
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
        for how in ("join", "left_outer_join", "right_outer_join"):
            with DistributedContext(num_partitions=4) as ctx:
                left, right = self._sides(ctx, 7)
                broadcast = sorted(getattr(left, how)(right, strategy="broadcast").collect())
                shuffled = sorted(getattr(left, how)(right, strategy="shuffle").collect())
                assert broadcast == shuffled, how

    def test_full_outer_join_never_broadcasts(self):
        with DistributedContext(num_partitions=4, broadcast_join_threshold=1_000) as ctx:
            left, right = self._sides(ctx, 4)
            left.full_outer_join(right).materialize()
            assert ctx.metrics.join_strategies == {"shuffle": 1}

    def test_invalid_strategy_rejected(self):
        with DistributedContext(num_partitions=4) as ctx:
            left, right = self._sides(ctx, 4)
            with pytest.raises(ValueError):
                left.join(right, strategy="sideways")


# ---------------------------------------------------------------------------
# Executor dispatch of wide stages (the Issue 2 acceptance criterion)
# ---------------------------------------------------------------------------


class TestWideStageDispatch:
    def test_groupby_join_pipeline_runs_on_the_process_pool(self):
        """Map side and reduce side of a groupBy/join pipeline both dispatch
        through ``run_tasks``: in "processes" mode with picklable stages the
        executor task count is positive and nothing falls back."""
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            keyed = ctx.parallelize(range(200)).map(_key_value)
            grouped = keyed.reduce_by_key(_add)
            lookup = ctx.parallelize([(f"k{i}", i) for i in range(7)])
            joined = grouped.join(lookup, strategy="shuffle")
            result = sorted(joined.collect())
            assert len(result) == 7
            assert ctx.metrics.parallel_tasks > 0
            assert ctx.metrics.process_fallbacks == 0
            assert ctx.metrics.shuffle_map_tasks > 0
            assert ctx.metrics.shuffle_reduce_tasks > 0

    def test_unpicklable_wide_stage_falls_back_to_driver(self):
        captured = {"offset": 1}
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            ds = ctx.parallelize([(i % 5, i) for i in range(50)])
            result = ds.reduce_by_key(lambda a, b: a + b + captured["offset"] - 1)
            assert len(result.collect()) == 5
            assert ctx.metrics.process_fallbacks > 0


# ---------------------------------------------------------------------------
# Process-executor behavior
# ---------------------------------------------------------------------------


def _failing_step(_value):
    raise ZeroDivisionError("boom")


def _failing_os_step(_value):
    raise FileNotFoundError("no such file: boom")


class TestProcessExecutor:
    def test_picklable_chain_crosses_the_process_boundary(self):
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            ds = ctx.parallelize(range(100)).map(functools.partial(operator.mul, 3))
            assert sorted(ds.collect()) == [3 * i for i in range(100)]
            assert ctx.metrics.process_fallbacks == 0

    def test_unpicklable_lambda_falls_back_to_driver(self):
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            captured = {"offset": 7}
            ds = ctx.parallelize(range(50)).map(lambda x: x + captured["offset"])
            assert sorted(ds.collect()) == [i + 7 for i in range(50)]
            assert ctx.metrics.process_fallbacks == 1

    def test_worker_errors_surface_as_execution_errors(self):
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            with pytest.raises(ExecutionError):
                ctx.parallelize(range(8)).map(_failing_step).collect()

    def test_os_errors_from_user_code_are_task_errors_not_fallbacks(self):
        # Regression: OSError subclasses raised by user code must not be
        # mistaken for pool-infrastructure failures (which would silently
        # re-run the job in the driver and leak the raw exception).
        with DistributedContext(num_partitions=4, executor="processes") as ctx:
            with pytest.raises(ExecutionError):
                ctx.parallelize(range(8)).map(_failing_os_step).collect()
            assert ctx.metrics.process_fallbacks == 0

    def test_values_match_helper_tolerates_float_noise(self):
        assert values_match(1.0, 1.0 + 1e-12)
        assert not values_match(1.0, 1.1)
