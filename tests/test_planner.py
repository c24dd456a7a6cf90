"""The partition-aware planner: shuffle elimination, loop-invariant caching,
common-subexpression sharing -- and the differential guarantee that none of
it changes results.

Covers the PR 5 acceptance criteria:

* co-partitioned joins / group-bys execute **zero** ShuffleStages, and
  ``explain()`` / ``explain_metrics`` report each elimination with a reason;
* loop-invariant inputs are shuffled exactly once -- PageRank iterations 2+
  shuffle only the mutated side (asserted on the per-iteration structural
  metrics in ``ProgramResult.iteration_metrics``);
* every Figure 3 workload produces identical outputs with the planner on and
  off, under both executors, including with spilling forced at a 1-byte
  threshold.
"""

from __future__ import annotations

import pytest

from test_executor_equivalence import broadcast_threshold, context_on
from test_soundness_programs import assert_same_outputs, values_match

from repro import Diablo
from repro.algebra import runner
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.algebra.explain import explain_metrics
from repro.algebra.plan import HashJoinNode, NarrowNode, render_plan
from repro.algebra.planner import LoopInvariantCache
from repro.api.config import EXECUTOR_MODES
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner
from repro.workloads import workload_for_program


@pytest.fixture
def ctx():
    return DistributedContext(num_partitions=4)


def _add(a, b):
    return a + b


# ---------------------------------------------------------------------------
# Narrow (shuffle-free) wide operators over co-partitioned inputs
# ---------------------------------------------------------------------------


class TestNarrowFastPaths:
    """Co-partitioned inputs execute wide operators with zero ShuffleStages."""

    def _sides(self, ctx):
        partitioner = HashPartitioner(4)
        left = ctx.parallelize([(i % 7, i) for i in range(42)]).partition_by(partitioner)
        right = ctx.parallelize([(i % 7, i * 10) for i in range(21)]).partition_by(partitioner)
        return left, right

    def test_copartitioned_join_runs_zero_shuffles(self, ctx):
        left, right = self._sides(ctx)
        ctx.metrics.reset()
        joined = left.join(right)
        result = sorted(joined.collect())
        assert ctx.metrics.shuffles == 0, "co-partitioned join must not shuffle"
        assert ctx.metrics.shuffles_eliminated == 1
        assert ctx.metrics.narrow_joins == 1
        assert ctx.metrics.join_strategies == {"narrow": 1}
        # Same records as a shuffle join of the same pairs, unplaced.
        with broadcast_threshold(ctx, 0):
            unplaced = ctx.parallelize(left.collect()).join(ctx.parallelize(right.collect()))
            shuffled = sorted(unplaced.collect())
        assert ctx.metrics.join_strategies == {"narrow": 1, "shuffle": 1}
        assert result == shuffled

    def test_copartitioned_cogroup_runs_zero_shuffles(self, ctx):
        left, right = self._sides(ctx)
        ctx.metrics.reset()
        grouped = left.co_group(right)
        result = grouped.collect()
        assert ctx.metrics.shuffles == 0
        assert ctx.metrics.narrow_joins == 1
        assert {k for k, _ in result} == set(range(7))

    def test_copartitioned_full_outer_join_matches_shuffle_results(self, ctx):
        partitioner = HashPartitioner(4)
        left = ctx.parallelize([(i % 5, i) for i in range(30)]).partition_by(partitioner)
        right = ctx.parallelize([(i % 8, -i) for i in range(24)]).partition_by(partitioner)
        narrow = sorted(left.full_outer_join(right).collect())
        shuffled = sorted(left.full_outer_join(right, partitioner=HashPartitioner(2)).collect())
        assert narrow == shuffled

    def test_keyed_reduce_on_partitioned_input_runs_zero_shuffles(self, ctx):
        left, _right = self._sides(ctx)
        ctx.metrics.reset()
        reduced = left.reduce_by_key(_add)
        assert dict(reduced.collect()) == {
            k: sum(i for i in range(42) if i % 7 == k) for k in range(7)
        }
        assert ctx.metrics.shuffles == 0
        assert ctx.metrics.shuffles_eliminated == 1
        assert reduced.partitioner == HashPartitioner(4), "narrow reduce keeps placement"

    def test_keyed_group_on_partitioned_input(self, ctx):
        left, _right = self._sides(ctx)
        ctx.metrics.reset()
        grouped = dict(left.group_by_key().map_values(sorted).collect())
        assert ctx.metrics.shuffles == 0
        assert grouped == {k: sorted(i for i in range(42) if i % 7 == k) for k in range(7)}

    def test_requesting_a_different_partitioner_still_shuffles(self, ctx):
        left, _right = self._sides(ctx)
        ctx.metrics.reset()
        left.reduce_by_key(_add, partitioner=HashPartitioner(2)).materialize()
        assert ctx.metrics.shuffles == 1, "an explicit different placement is honored"
        assert ctx.metrics.shuffles_eliminated == 0

    def test_plan_optimize_off_disables_elimination(self):
        with DistributedContext(num_partitions=4, plan_optimize=False) as ctx:
            partitioner = HashPartitioner(4)
            left = ctx.parallelize([(i % 7, i) for i in range(42)]).partition_by(partitioner)
            ctx.metrics.reset()
            left.reduce_by_key(_add).materialize()
            assert ctx.metrics.shuffles == 1
            assert ctx.metrics.shuffles_eliminated == 0

    def test_explain_reports_the_elimination(self, ctx):
        left, right = self._sides(ctx)
        joined = left.join(right)
        assert "shuffle eliminated" in joined.explain()
        assert "both sides partitioned by HashPartitioner(4)" in joined.explain()
        reduced = left.reduce_by_key(_add)
        assert "reduceByKey" in reduced.explain()
        assert "shuffle eliminated" in reduced.explain()

    def test_explain_metrics_lists_eliminations_and_reuses(self, ctx):
        left, right = self._sides(ctx)
        ctx.metrics.reset()
        left.join(right).materialize()
        ctx.metrics.record_loop_invariant_reuse()
        report = "\n".join(explain_metrics(ctx.metrics))
        assert "shuffles eliminated: 1" in report
        assert "narrow joins: 1" in report
        assert "both sides partitioned by" in report
        assert "loop-invariant reuses: 1" in report

    def test_narrow_paths_agree_across_executors(self):
        collected = {}
        for mode in EXECUTOR_MODES:
            with context_on(mode, num_partitions=4) as ctx:
                left, right = self._sides(ctx)
                ctx.metrics.reset()
                collected[mode] = {
                    "join": left.join(right).collect(),
                    "reduce": left.reduce_by_key(_add).collect(),
                    "cogroup": left.co_group(right).collect(),
                    "shuffles": ctx.metrics.shuffles,
                    "eliminated": ctx.metrics.shuffles_eliminated,
                }
        assert collected["sequential"] == collected["cluster"]
        assert collected["sequential"]["shuffles"] == 0


class TestPrepartitionedMapSideBypass:
    """One pre-partitioned input of a two-sided shuffle moves zero bytes."""

    def test_cogroup_with_one_placed_side_skips_its_map_side(self, ctx):
        placed = ctx.parallelize([(i % 6, i) for i in range(60)]).partition_by(HashPartitioner(4))
        loose = ctx.parallelize([(i % 6, -i) for i in range(30)])
        ctx.metrics.reset()
        # .map() drops the partitioner on the loose side, so only the placed
        # side is eligible for the bypass.
        grouped = placed.co_group(loose.map(lambda pair: pair))
        result = dict(grouped.collect())
        assert ctx.metrics.shuffles == 1
        assert ctx.metrics.prepartitioned_inputs == 1
        # Only the loose side's 30 records crossed the shuffle.
        assert ctx.metrics.shuffled_records == 30
        assert set(result) == set(range(6))
        for key in range(6):
            left_values, right_values = result[key]
            assert sorted(left_values) == [i for i in range(60) if i % 6 == key]
            assert sorted(right_values) == sorted(-i for i in range(30) if i % 6 == key)

    def test_bypass_matches_full_shuffle_results_exactly(self):
        def run(optimize):
            with DistributedContext(num_partitions=4, plan_optimize=optimize) as ctx:
                placed = ctx.parallelize([(i % 6, i) for i in range(60)]).partition_by(
                    HashPartitioner(4)
                )
                loose = ctx.parallelize([(i % 6, -i) for i in range(30)]).map(lambda p: p)
                return placed.co_group(loose).collect()

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Common sub-expression elimination (one statement)
# ---------------------------------------------------------------------------


class TestCommonSubexpressions:
    def test_repeated_subterm_is_computed_once(self, ctx):
        # { (x, y) | (i, x) <- C, (j, y) <- C, j == i } where C is the *same*
        # nested comprehension sub-term on both sides.
        nested = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.CBinOp("*", ir.CVar("v"), ir.CConst(2)))),
            (ir.Generator(ir.PTuple((ir.PVar("k"), ir.PVar("v"))), ir.CVar("V")),),
        )
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("x"), ir.CVar("y"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("x"))), nested),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("y"))), nested),
                ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CVar("i"))),
            ),
        )
        evaluator = TermEvaluator(
            EvaluationEnvironment(ctx, {"V": ctx.parallelize_pairs({i: i for i in range(8)})})
        )
        result = sorted(evaluator.evaluate_bag(comp).collect())
        assert result == [(i * 2, i * 2) for i in range(8)]
        assert any("CSE" in entry for entry in evaluator.trace), evaluator.trace
        # Both generators resolved the nested sub-term to one cached dataset.
        assert ("bag", nested) in evaluator._term_dataset_cache

    def test_rebound_key_variable_invalidates_partitioner_claim(self, ctx):
        # { (k, +/v) | (i, v) <- V, group by k : i % 2, let k = k + 1 }:
        # the rows stay placed by the OLD k, so the head's (new) k must NOT
        # inherit the partitioner -- a later narrow join keyed on the new k
        # would otherwise read mis-placed partitions.
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.CVar("v"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("i"), ir.CConst(2))),
                ir.LetBinding(ir.PVar("k"), ir.CBinOp("+", ir.CVar("k"), ir.CConst(1))),
            ),
        )
        evaluator = TermEvaluator(
            EvaluationEnvironment(ctx, {"V": ctx.parallelize_pairs({i: i * 10 for i in range(12)})})
        )
        result = evaluator.evaluate_bag(comp).materialize()
        assert result.partitioner is None, "rebound key must drop the placement claim"
        # Joining against a correctly-placed dataset must see every key.
        other = ctx.parallelize([(1, "odd"), (2, "even")]).partition_by(
            HashPartitioner(ctx.num_partitions)
        )
        joined = dict(result.join(other).collect())
        assert set(joined) == {1, 2}

    def test_unrebound_group_key_keeps_the_partitioner(self, ctx):
        # Control for the rebinding test: without the let, the head re-keys
        # by the group key and the partitioner survives.
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("i"), ir.CConst(2))),
            ),
        )
        evaluator = TermEvaluator(
            EvaluationEnvironment(ctx, {"V": ctx.parallelize_pairs({i: i for i in range(12)})})
        )
        result = evaluator.evaluate_bag(comp).materialize()
        assert result.partitioner == HashPartitioner(ctx.num_partitions)

    def test_empty_generator_short_circuits_later_domains(self, ctx):
        # { x | (i, x) <- Empty, (j, y) <- range(1, 1/0) }: the second domain
        # must never be evaluated when the first generator is empty -- the
        # interpreter oracle never reaches the inner loop either.
        comp = ir.Comprehension(
            ir.CVar("x"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("x"))), ir.CVar("Empty")),
                ir.Generator(
                    ir.PTuple((ir.PVar("j"), ir.PVar("y"))),
                    ir.RangeTerm(
                        ir.CConst(1),
                        ir.CBinOp("/", ir.CConst(1), ir.CConst(0)),
                    ),
                ),
            ),
        )
        evaluator = TermEvaluator(EvaluationEnvironment(ctx, {"Empty": ctx.empty()}))
        assert evaluator.evaluate_bag(comp).collect() == []

    def test_stacked_group_bys_on_the_same_key_eliminate_the_second_shuffle(self, ctx):
        # { (k2, +/w) | (i, v) <- V, group by k : i % 3, let w = +/v,
        #   group by k2 : k } -- the second group-by keys by the first's
        # output key, so its shuffle is eliminated.
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k2"), ir.Aggregate("+", ir.CVar("w")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("i"), ir.CConst(3))),
                ir.LetBinding(ir.PVar("w"), ir.Aggregate("+", ir.CVar("v"))),
                ir.GroupBy(ir.PVar("k2"), ir.CVar("k")),
            ),
        )
        evaluator = TermEvaluator(
            EvaluationEnvironment(ctx, {"V": ctx.parallelize_pairs({i: i for i in range(12)})})
        )
        ctx.metrics.reset()
        result = dict(evaluator.evaluate_bag(comp).collect())
        assert result == {
            k: sum(i for i in range(12) if i % 3 == k) for k in range(3)
        }
        assert ctx.metrics.shuffles == 1, "second group-by must reuse the placement"
        assert ctx.metrics.shuffles_eliminated == 1

    def test_plan_is_exposed_and_renderable(self, ctx):
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("a"), ir.CVar("b"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("a"))), ir.CVar("X")),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("b"))), ir.CVar("Y")),
                ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CVar("i"))),
            ),
        )
        evaluator = TermEvaluator(
            EvaluationEnvironment(
                ctx,
                {
                    "X": ctx.parallelize_pairs({1: "a"}),
                    "Y": ctx.parallelize_pairs({1: "b"}),
                },
            )
        )
        evaluator.evaluate_bag(comp).collect()
        plan = evaluator.last_plan
        assert plan is not None
        assert isinstance(plan, NarrowNode)
        assert isinstance(plan.child, HashJoinNode)
        rendered = render_plan(plan)
        assert "HashJoin" in rendered
        assert "Scan" in rendered


# ---------------------------------------------------------------------------
# Loop-invariant hoisting
# ---------------------------------------------------------------------------

LOOP_SOURCE = """
var A: vector[double] = vector();
var k: int = 0;
while (k < 4) {
  k += 1;
  for i = 0, 9 do
    A[i] += W[i];
};
"""


class TestLoopInvariantHoisting:
    def test_invariant_merge_side_is_shuffled_exactly_once(self, ctx):
        with Diablo(ctx) as diablo:
            result = diablo.compile(LOOP_SOURCE).run(W={i: float(i) for i in range(10)})
        assert result.array("A") == {i: 4.0 * i for i in range(10)}
        iterations = result.iteration_metrics
        assert len(iterations) == 4
        # Iteration 1 pays the one-time placement of the invariant side...
        assert iterations[0]["shuffles"] > 0
        assert iterations[0]["loop_invariant_reuses"] == 0
        # ...and iterations 2+ reuse it: zero shuffles, zero bytes.
        for entry in iterations[1:]:
            assert entry["shuffles"] == 0
            assert entry["shuffled_bytes"] == 0
            assert entry["loop_invariant_reuses"] >= 1
            assert entry["narrow_joins"] >= 1
        assert ctx.metrics.shuffle_operations.get("partitionBy") == 1
        assert any("loop-invariant" in line for line in result.trace)

    def test_mutated_variables_are_never_treated_as_invariant(self, ctx):
        source = """
        var A: vector[double] = vector();
        var B: vector[double] = vector();
        var k: int = 0;
        for i = 0, 4 do
          A[i] := 0.0;
        while (k < 3) {
          k += 1;
          for i = 0, 4 do
            B[i] := A[i] + 1.0;
          for i = 0, 4 do
            A[i] := B[i];
        };
        """
        with Diablo(ctx) as diablo:
            result = diablo.compile(source).run()
        # A and B are both assigned in the body: every iteration must see the
        # fresh values, not a cached snapshot.
        assert result.array("A") == {i: 3.0 for i in range(5)}
        assert result.array("B") == {i: 3.0 for i in range(5)}
        assert all(entry["loop_invariant_reuses"] == 0 for entry in result.iteration_metrics)

    def test_a_join_of_two_unassigned_arrays_runs_once_per_loop(self, ctx):
        # A ⋈ B is the build side of the join with X; the loop assigns
        # neither A nor B, so iteration 1 caches the joined rows and
        # iterations 2+ reuse them instead of joining A and B again.
        source = """
        var X: vector[double] = vector();
        var Y: vector[double] = vector();
        var k: int = 0;
        for i = 0, 9 do X[i] := 1.0;
        while (k < 3) {
          k += 1;
          for i = 0, 9 do
            Y[i] := A[i] * B[i] - X[i];
          for i = 0, 9 do
            X[i] := Y[i];
        };
        """
        inputs = {"A": {i: float(i) for i in range(10)}, "B": {i: 2.0 for i in range(10)}}
        with Diablo(ctx) as diablo:
            result = diablo.compile(source).run(**inputs)
            expected = diablo.interpret(source, dict(inputs))["X"]
        assert result.array("X") == expected
        trace = result.trace
        assert [line for line in trace if line.startswith("loop-invariant join side")] == [
            "loop-invariant join side cached (materialized): build rows",
            "loop-invariant join side reused: build rows",
            "loop-invariant join side reused: build rows",
        ]
        assert len([line for line in trace if line.startswith("HashJoin[B on")]) == 1
        assert [entry["loop_invariant_reuses"] for entry in result.iteration_metrics] == [0, 1, 1]

    def test_the_loop_cache_is_emptied_when_the_loop_ends(self, ctx, monkeypatch):
        # The loop's evaluators and plans form a reference cycle that holds
        # the cache; emptied, its datasets need not wait for the cyclic GC.
        caches = []

        class Recorded(LoopInvariantCache):
            def __init__(self, invariants):
                super().__init__(invariants)
                caches.append(self)

        monkeypatch.setattr(runner, "LoopInvariantCache", Recorded)
        with Diablo(ctx) as diablo:
            result = diablo.compile(LOOP_SOURCE).run(W={i: float(i) for i in range(10)})
        assert result.array("A") == {i: 4.0 * i for i in range(10)}
        assert ctx.metrics.loop_invariant_reuses == 3
        assert len(caches) == 1 and len(caches[0]) == 0

    def test_cache_invalidation_drops_dependent_entries(self):
        cache = LoopInvariantCache(frozenset({"E", "C"}))
        cache.put(("merge-side", "termE"), "dsE", frozenset({"E"}))
        cache.put(("merge-side", "termC"), "dsC", frozenset({"C"}))
        assert cache.get(("merge-side", "termE")) == "dsE"
        dropped = cache.invalidate("E")
        assert dropped == 1
        assert cache.get(("merge-side", "termE")) is None
        assert cache.get(("merge-side", "termC")) == "dsC"

    def test_plan_optimize_off_disables_hoisting(self):
        with DistributedContext(num_partitions=4, plan_optimize=False) as ctx:
            with Diablo(ctx) as diablo:
                result = diablo.compile(LOOP_SOURCE).run(W={i: float(i) for i in range(10)})
            assert result.array("A") == {i: 4.0 * i for i in range(10)}
            assert ctx.metrics.loop_invariant_reuses == 0
            assert ctx.metrics.shuffles_eliminated == 0


# ---------------------------------------------------------------------------
# Figure 3: PageRank / KMeans structural assertions (the acceptance criteria)
# ---------------------------------------------------------------------------


def _run_program(name, inputs, executor="sequential", **context_kwargs):
    spec = get_program(name)
    with context_on(executor, num_partitions=4, **context_kwargs) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**inputs)
        outputs = translated_outputs(name, result)
        return result, outputs, context.metrics


class TestPageRankIterations:
    def test_iterations_2_plus_shuffle_only_the_mutated_side(self):
        inputs = workload_for_program("pagerank", 40)
        inputs["num_steps"] = 4
        result, _outputs, metrics = _run_program("pagerank", inputs)
        iterations = [m for m in result.iteration_metrics if m["loop"] == 1]
        assert len(iterations) == 4
        first, rest = iterations[0], iterations[1:]
        for entry in rest:
            # The loop-invariant inputs (edge list, degree vector, the
            # constant rank reset) were shuffled in iteration 1 only:
            # later iterations re-shuffle strictly less...
            assert entry["shuffled_bytes"] < first["shuffled_bytes"]
            assert entry["shuffles"] < first["shuffles"]
            # ...namely just the mutated side, reusing the cached invariants.
            assert entry["loop_invariant_reuses"] >= 1
        # Steady state: iterations 2+ all shuffle exactly the same (mutated)
        # data volume.
        assert len({entry["shuffled_bytes"] for entry in rest}) == 1
        # Four placement shuffles for the whole run, each exactly once: the
        # invariant merge side, the invariant join side placed by the key its
        # consumer folds by, and the program-level placements of C and of P's
        # initial ranks (both assigned straight from a range into a fresh
        # array, so they arrive unplaced).
        assert metrics.shuffle_operations == {"partitionBy": 4, "reduceByKey": 1}

    def test_optimized_run_matches_unoptimized_and_interpreter(self):
        inputs = workload_for_program("pagerank", 40)
        inputs["num_steps"] = 3
        _result, optimized, on_metrics = _run_program("pagerank", inputs)
        _result2, unoptimized, off_metrics = _run_program(
            "pagerank", inputs, plan_optimize=False
        )
        spec = get_program("pagerank")
        for array in spec.array_outputs:
            assert set(optimized[array]) == set(unoptimized[array])
            for key in optimized[array]:
                assert values_match(optimized[array][key], unoptimized[array][key])
        assert on_metrics.shuffled_bytes < off_metrics.shuffled_bytes
        diablo = diablo_for(spec)
        oracle = diablo.interpret(spec.source, dict(inputs))
        assert_same_outputs(spec, _Outputs(optimized), oracle)


class TestKMeansElimination:
    def test_planner_reduces_kmeans_shuffled_bytes(self):
        inputs = workload_for_program("kmeans", 220)
        _result, optimized, on_metrics = _run_program("kmeans", inputs)
        _result2, unoptimized, off_metrics = _run_program("kmeans", inputs, plan_optimize=False)
        assert on_metrics.shuffled_bytes < off_metrics.shuffled_bytes
        # Both settings lost the merge into the fresh `closest`; the planner
        # places that range-built array once instead, so it wins on volume,
        # not on the shuffle count.
        assert on_metrics.shuffled_records < off_metrics.shuffled_records
        assert on_metrics.shuffles <= off_metrics.shuffles
        assert on_metrics.narrow_joins >= 1
        spec = get_program("kmeans")
        for array in spec.array_outputs:
            assert set(optimized[array]) == set(unoptimized[array])
            for key in optimized[array]:
                assert values_match(optimized[array][key], unoptimized[array][key])


class TestProgramLevelPlacement:
    """The whole-program pass (PR 7): an *input* read by >= 2 keyed consumers
    is hash-partitioned once up front, and the joins that read it exploit the
    placement (the keying maps preserve it), so both consumers run narrow."""

    SOURCE = """
    var C: vector[double] = vector();
    var D: vector[double] = vector();
    for i = 0, 99 do
      C[i] := W[i] + V[i];
    for i = 0, 99 do
      D[i] := W[i] * V[i];
    """

    def _run(self, **context_kwargs):
        # A threshold below the input size: the W-joins-V statements cannot
        # broadcast, so without placement each one shuffles both inputs.
        context_kwargs.setdefault("broadcast_join_threshold", 50)
        with DistributedContext(num_partitions=4, **context_kwargs) as context:
            with Diablo(context) as diablo:
                result = diablo.compile(self.SOURCE).run(
                    W={i: float(i) for i in range(100)},
                    V={i: 1.0 for i in range(100)},
                )
            return result, context.metrics

    def test_multiply_consumed_inputs_are_placed_up_front(self):
        result, metrics = self._run()
        for name in ("V", "W"):
            assert any(
                line.startswith(f"{name}: program-level placement for 2 keyed consumer(s)")
                for line in result.trace
            ), result.trace
        # One placement shuffle per input, then both W-joins-V run narrow.
        assert metrics.shuffle_operations.get("partitionBy", 0) == 2
        assert metrics.narrow_joins >= 2
        assert metrics.shuffles_eliminated >= 2
        assert result.array("C") == {i: float(i) + 1.0 for i in range(100)}
        assert result.array("D") == {i: float(i) for i in range(100)}

    def test_placement_matches_unoptimized_outputs(self):
        result_on, metrics_on = self._run()
        result_off, metrics_off = self._run(plan_optimize=False)
        assert not any("program-level placement" in line for line in result_off.trace)
        assert metrics_off.shuffle_operations.get("partitionBy", 0) == 0
        # Two placement shuffles replace four join-side shuffles.
        assert metrics_on.shuffled_bytes < metrics_off.shuffled_bytes
        for array in ("C", "D"):
            assert result_on.array(array) == result_off.array(array)


class _Outputs:
    """Adapter so assert_same_outputs can read plain output dicts."""

    def __init__(self, outputs):
        self._outputs = outputs

    def __getitem__(self, name):
        return self._outputs[name]

    def array(self, name):
        return self._outputs[name]


# ---------------------------------------------------------------------------
# Differential: planner on vs. off across every Figure 3 workload
# ---------------------------------------------------------------------------

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


def _workload(name):
    inputs = workload_for_program(name, SIZES[name])
    if name == "matrix_factorization":
        from repro.workloads import generators

        inputs["R"] = generators.random_matrix(SIZES[name], SIZES[name], seed=3)
    return inputs


def _outputs_match(spec, left, right):
    for scalar in spec.scalar_outputs:
        assert values_match(left[scalar], right[scalar]), scalar
    for array in spec.array_outputs:
        assert set(left[array]) == set(right[array]), array
        for key in left[array]:
            assert values_match(left[array][key], right[array][key]), (array, key)


@pytest.mark.parametrize("name", table2_program_names())
def test_planner_on_off_differential(name):
    spec = get_program(name)
    inputs = _workload(name)
    _r1, on_outputs, _m1 = _run_program(name, inputs)
    _r2, off_outputs, _m2 = _run_program(name, inputs, plan_optimize=False)
    _outputs_match(spec, on_outputs, off_outputs)


@pytest.mark.parametrize("mode", EXECUTOR_MODES)
@pytest.mark.parametrize("name", ["pagerank", "kmeans", "word_count", "group_by"])
def test_planner_with_spilling_matches_unoptimized(name, mode):
    """Planner on + 1-byte spill threshold vs. planner off, per executor."""
    spec = get_program(name)
    inputs = _workload(name)
    if name == "pagerank":
        inputs["num_steps"] = 2
    _r1, on_outputs, _m1 = _run_program(name, inputs, executor=mode, spill_threshold_bytes=1)
    _r2, off_outputs, _m2 = _run_program(name, inputs, plan_optimize=False)
    _outputs_match(spec, on_outputs, off_outputs)
