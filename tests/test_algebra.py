"""Tests for the comprehension evaluator, the program runner and plan explanation."""

import pytest

from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.algebra.explain import explain_term
from repro.algebra.runner import ProgramRunner
from repro.comprehension import ir
from repro.errors import ExecutionError
from repro.runtime import segments
from repro.runtime.context import DistributedContext
from repro.translate.translator import DiabloCompiler


@pytest.fixture
def ctx():
    return DistributedContext(num_partitions=4)


def evaluator(ctx, **values):
    return TermEvaluator(EvaluationEnvironment(ctx, values))


class TestTermEvaluator:
    def test_scan_and_filter(self, ctx):
        # { v | (i, v) <- V, v > 10 }
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(ir.CBinOp(">", ir.CVar("v"), ir.CConst(10))),
            ),
        )
        ev = evaluator(ctx, V=ctx.parallelize_pairs({0: 5, 1: 20, 2: 30}))
        assert sorted(ev.evaluate_bag(comp).collect()) == [20, 30]

    def test_equi_join_is_used(self, ctx):
        # { (a, b) | (i, a) <- X, (j, b) <- Y, j == i }
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("a"), ir.CVar("b"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("a"))), ir.CVar("X")),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("b"))), ir.CVar("Y")),
                ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CVar("i"))),
            ),
        )
        ev = evaluator(
            ctx,
            X=ctx.parallelize_pairs({1: "a1", 2: "a2"}),
            Y=ctx.parallelize_pairs({2: "b2", 3: "b3"}),
        )
        result = ev.evaluate_bag(comp).collect()
        assert result == [("a2", "b2")]
        assert any("hash join" in entry for entry in ev.trace)

    def test_missing_join_key_uses_broadcast_product(self, ctx):
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("a"), ir.CVar("b"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("a"))), ir.CVar("X")),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("b"))), ir.CVar("Y")),
            ),
        )
        ev = evaluator(
            ctx,
            X=ctx.parallelize_pairs({1: "a"}),
            Y=ctx.parallelize_pairs({2: "b", 3: "c"}),
        )
        assert len(ev.evaluate_bag(comp).collect()) == 2
        assert any("broadcast" in entry for entry in ev.trace)

    def test_group_by_aggregation_uses_reduce_by_key(self, ctx):
        # { (k, +/v) | (i, v) <- V, group by k : v % 2 }
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("v"), ir.CConst(2))),
            ),
        )
        ev = evaluator(ctx, V=ctx.parallelize_pairs({i: i for i in range(6)}))
        result = dict(ev.evaluate_bag(comp).collect())
        assert result == {0: 0 + 2 + 4, 1: 1 + 3 + 5}
        assert any("reduceByKey" in entry for entry in ev.trace)

    def test_general_group_by_lifts_variables(self, ctx):
        # { (k, v) | (i, v) <- V, group by k : i % 2 } -- v is lifted to a bag.
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.CVar("v"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("i"), ir.CConst(2))),
            ),
        )
        ev = evaluator(ctx, V=ctx.parallelize_pairs({i: i * 10 for i in range(4)}))
        result = {k: sorted(v) for k, v in ev.evaluate_bag(comp).collect()}
        assert result == {0: [0, 20], 1: [10, 30]}
        assert any("groupByKey" in entry for entry in ev.trace)

    def test_range_generator(self, ctx):
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("i"), ir.CConst(0))),
            (ir.Generator(ir.PVar("i"), ir.RangeTerm(ir.CConst(1), ir.CConst(3))),),
        )
        ev = evaluator(ctx)
        assert sorted(ev.evaluate_bag(comp).collect()) == [(1, 0), (2, 0), (3, 0)]

    def test_merge_terms(self, ctx):
        term = ir.Merge(ir.CVar("A"), ir.CVar("B"))
        ev = evaluator(ctx, A={1: 10, 2: 20}, B={2: 99})
        assert ev.evaluate_bag(term).collect_as_map() == {1: 10, 2: 99}

    def test_merge_with_terms(self, ctx):
        term = ir.MergeWith("+", ir.CVar("A"), ir.CVar("B"))
        ev = evaluator(ctx, A={1: 10}, B={1: 5, 2: 7})
        assert ev.evaluate_bag(term).collect_as_map() == {1: 15, 2: 7}

    def test_local_evaluation_of_scalar_terms(self, ctx):
        ev = evaluator(ctx, x=3)
        term = ir.CBinOp("*", ir.CVar("x"), ir.CConst(4))
        assert ev.evaluate(term) == 12

    def test_in_range_predicate(self, ctx):
        ev = evaluator(ctx)
        assert ev.evaluate_local(ir.InRange(ir.CConst(3), ir.CConst(1), ir.CConst(5)), {})
        assert not ev.evaluate_local(ir.InRange(ir.CConst(9), ir.CConst(1), ir.CConst(5)), {})

    def test_aggregate_over_empty_bag_is_identity(self, ctx):
        ev = evaluator(ctx, V=[])
        assert ev.evaluate_local(ir.Aggregate("+", ir.CVar("V")), {}) == 0

    def test_unknown_variable_raises(self, ctx):
        with pytest.raises(ExecutionError):
            evaluator(ctx).evaluate(ir.CVar("missing"))

    def test_condition_before_any_generator_can_empty_result(self, ctx):
        comp = ir.Comprehension(
            ir.CConst(1),
            (
                ir.Condition(ir.CBinOp(">", ir.CVar("n"), ir.CConst(10))),
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
            ),
        )
        ev = evaluator(ctx, n=5, V=ctx.parallelize_pairs({1: 1}))
        assert ev.evaluate(comp) == []


class TestProgramRunner:
    def test_missing_input_is_reported(self, ctx):
        compiled = DiabloCompiler().compile("var s: double = 0.0; for v in V do s += v;")
        runner = ProgramRunner(ctx)
        with pytest.raises(ExecutionError) as error:
            runner.run(compiled.target, {})
        assert "V" in str(error.value)

    def test_scalar_result_and_array_result(self, ctx):
        compiled = DiabloCompiler().compile(
            "var s: double = 0.0; var C: vector[double] = vector(); for v in V do { s += v; C[0] += v; }"
        )
        runner = ProgramRunner(ctx)
        result = runner.run(compiled.target, {"V": [1.0, 2.0]})
        assert result.scalar("s") == 3.0
        assert result.array("C") == {0: 3.0}

    def test_array_accessor_rejects_scalars(self, ctx):
        compiled = DiabloCompiler().compile("var s: double = 0.0; for v in V do s += v;")
        result = ProgramRunner(ctx).run(compiled.target, {"V": [1.0]})
        with pytest.raises(ExecutionError):
            result.array("s")

    def test_empty_collection_keeps_initial_scalar(self, ctx):
        compiled = DiabloCompiler().compile("var s: double = 42.0; for v in V do s += v;")
        result = ProgramRunner(ctx).run(compiled.target, {"V": []})
        assert result.scalar("s") == 42.0

    def test_while_loop_executes_until_condition_false(self, ctx):
        compiled = DiabloCompiler().compile("var k: int = 0; while (k < 4) k += 1;")
        result = ProgramRunner(ctx).run(compiled.target, {})
        assert result.scalar("k") == 4

    def test_dataset_inputs_are_accepted(self, ctx):
        compiled = DiabloCompiler().compile("var s: double = 0.0; for v in V do s += v;")
        dataset = ctx.indexed([1.0, 2.0, 3.0])
        result = ProgramRunner(ctx).run(compiled.target, {"V": dataset})
        assert result.scalar("s") == 6.0

    def test_getitem_access(self, ctx):
        compiled = DiabloCompiler().compile("var s: double = 0.0; for v in V do s += v;")
        result = ProgramRunner(ctx).run(compiled.target, {"V": [2.0]})
        assert result["s"] == 2.0


class TestExplain:
    def test_matrix_multiplication_plan_shape(self):
        result = DiabloCompiler().compile(
            """
            var R: matrix[double] = matrix();
            for i = 0, n-1 do
              for j = 0, n-1 do
                for k = 0, n-1 do
                  R[i,j] += M[i,k]*N[k,j];
            """
        )
        update = result.target.statements[-1]
        summary = explain_term(update.term, {"M", "N", "R"})
        assert summary.hash_joins == 1
        assert summary.reduce_by_keys == 1
        # R is fresh and the reduce's keys are unique: no merge into R.
        assert summary.merges == 0
        assert "M" in summary.scans and "N" in summary.scans

    def test_kmeans_assignment_contains_centroid_join(self):
        from repro.evaluation.harness import diablo_for
        from repro.programs import get_program

        spec = get_program("kmeans")
        diablo = diablo_for(spec)
        compiled = diablo.compile(spec.source)
        arrays = compiled.target.array_names() | {
            name for name, info in compiled.target.variables.items() if info.is_collection
        }
        summaries = [explain_term(s.term, arrays) for s in compiled.target.assignments()]
        # At least one generated statement combines the point and centroid
        # datasets without a join key (the expensive plan the paper describes).
        assert any(s.broadcast_joins >= 1 for s in summaries)

    def test_plan_summary_rendering(self):
        result = DiabloCompiler().compile("for i = 1, 10 do V[i] += W[i];")
        summary = explain_term(result.target.statements[-1].term, {"V", "W"})
        text = str(summary)
        assert "reduceByKey" in text
        assert summary.shuffle_operations >= 1


class TestLocalBag:
    """``segments.local_bag``, the one conversion of a bag value to the list a
    generator ranges over (driver and generated code alike).  It keeps no
    cache: an id-keyed one used to serve stale bags and pin datasets."""

    def test_the_dataset_is_not_kept_alive(self, ctx):
        import gc
        import weakref

        dataset = ctx.parallelize([1, 2, 3])
        reference = weakref.ref(dataset)
        assert segments.local_bag(dataset) == [1, 2, 3]
        del dataset
        gc.collect()
        assert reference() is None

    def test_every_call_reads_its_own_value(self, ctx):
        first, second = ctx.parallelize(["first"]), ctx.parallelize(["second"])
        assert segments.local_bag(first) == ["first"]
        assert segments.local_bag(second) == ["second"]
        bag = segments.local_bag(first)
        assert segments.local_bag(first) == bag and segments.local_bag(first) is not bag

    def test_values_become_lists(self):
        assert segments.local_bag({1: "a"}) == [(1, "a")]
        assert segments.local_bag((1, 2)) == [1, 2] and segments.local_bag({3}) == [3]
        assert segments.local_bag(7) == [7]
