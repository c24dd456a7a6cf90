"""Differential oracle for adaptive skew-aware execution (PR 7).

The adaptive layer may only change *how* skewed shuffles execute -- sampled
histograms, hot-key salting, map-side grouping -- never *what* they
compute.  These tests pin that guarantee on zipf-skewed data on both
executors, with and without spilling forced at a 1-byte threshold, by
comparing adaptive runs bit-for-bit against adaptive-off runs.
"""

from __future__ import annotations

import pytest

from test_executor_equivalence import context_on

from repro.api.config import EXECUTOR_MODES
from repro.runtime.context import DistributedContext
from repro.workloads import skewed_pairs


def _records(count=6_000, num_keys=20, seed=11):
    return [
        (row["K"], row["A"]) for row in skewed_pairs(count, num_keys=num_keys, seed=seed)
    ]


def _run(adaptive, executor="sequential", spill=None):
    """Group and reduce the same skewed pairs; return plain values."""
    records = _records()
    with context_on(
        executor,
        num_partitions=4,
        adaptive=adaptive,
        spill_threshold_bytes=spill,
    ) as ctx:
        data = ctx.parallelize(records)
        grouped = {k: list(vs) for k, vs in data.group_by_key().collect()}
        reduced = dict(data.reduce_by_key(lambda a, b: a + b).collect())
        decisions = ctx.metrics.adaptive_decisions
    return grouped, reduced, decisions


class TestAdaptiveDifferential:
    @pytest.mark.parametrize("executor", EXECUTOR_MODES)
    def test_adaptive_matches_static_bit_for_bit(self, executor):
        grouped_on, reduced_on, decisions = _run(True, executor)
        grouped_off, reduced_off, off_decisions = _run(False, executor)
        assert off_decisions == 0
        assert decisions >= 1, "skewed shuffles must trigger adaptive decisions"
        # Grouped values arrive in a salted / map-side-combined order; the
        # per-key multisets must still be identical.
        assert grouped_on.keys() == grouped_off.keys()
        for key in grouped_on:
            assert sorted(grouped_on[key]) == sorted(grouped_off[key]), key
        assert reduced_on == reduced_off

    @pytest.mark.parametrize("executor", EXECUTOR_MODES)
    def test_adaptive_matches_static_under_spilling(self, executor):
        grouped_on, reduced_on, _ = _run(True, executor, spill=1)
        grouped_off, reduced_off, _ = _run(False, executor, spill=1)
        assert grouped_on.keys() == grouped_off.keys()
        for key in grouped_on:
            assert sorted(grouped_on[key]) == sorted(grouped_off[key]), key
        assert reduced_on == reduced_off

    def test_noncommutative_fold_order_is_preserved(self):
        # Salting splits a hot key across tasks; the final fold must stitch
        # the partials back in task order so non-commutative (but
        # associative) monoids -- string concatenation -- are unaffected.
        records = [("hot", f"<{i}>") for i in range(500)]
        records += [(f"cold{i}", f"[{i}]") for i in range(30)]
        results = {}
        for adaptive in (True, False):
            with DistributedContext(num_partitions=4, adaptive=adaptive) as ctx:
                reduced = ctx.parallelize(records).reduce_by_key(lambda a, b: a + b)
                results[adaptive] = dict(reduced.collect())
                if adaptive:
                    assert ctx.metrics.salted_keys >= 1
        assert results[True] == results[False]


class TestSamplerSeesThePreFoldKeyStream:
    """A generated chain that feeds a reduceByKey folds by key inside its
    loop, so its output shows every key once per task.  The adaptive sampler
    must keep deciding from the key stream as it was *before* the fold."""

    @pytest.mark.parametrize("columnar", [False, True])
    def test_translated_skewed_group_by_still_salts_its_hot_key(self, columnar):
        from repro.evaluation.harness import diablo_for, translated_outputs
        from repro.programs import get_program
        from repro.workloads import skewed_workload_for_program

        spec = get_program("group_by")
        inputs = skewed_workload_for_program("group_by", 4_000)
        outputs, metrics = {}, {}
        for adaptive in (True, False):
            with DistributedContext(num_partitions=4, adaptive=adaptive, columnar=columnar) as ctx:
                compiled = diablo_for(spec, ctx).compile(spec.source)
                outputs[adaptive] = translated_outputs("group_by", compiled.run(**inputs))
                metrics[adaptive] = ctx.metrics
                generated = compiled.translation.target.segments
                assert any(segment.exit[0] == "fold_by_key" for segment in generated), (
                    "the chain did not fold inside its loop: this test would prove nothing"
                )
        assert outputs[True] == outputs[False]
        # The values the unfused plan (every (key, value) appended, then
        # combined) produced on this input: one Zipf head key, 22 % of the
        # sample.  A sample of the folded output sees 0 hot keys.
        assert metrics[True].salted_keys == 1
        assert metrics[True].adaptive_log == [
            {
                "operation": "reduceByKey",
                "kind": "salted-reduce",
                "reason": "1 hot key(s) at sampled share(s) 22%",
            }
        ]
        assert metrics[False].adaptive_decisions == 0
        # The combiner counters still describe the fold: every record in,
        # one partial per (task, key) out.
        for run in metrics.values():
            assert run.combiner_input_records == 4_000
            assert run.combiner_output_records == run.shuffled_records < 4_000

    def test_the_sampled_twin_emits_one_record_per_input_record(self):
        from repro.algebra import codegen
        from repro.comprehension import ir
        from test_codegen import bindings_for

        with DistributedContext(num_partitions=2) as ctx:
            bindings = bindings_for(ctx)
            pair = ir.PTuple((ir.PVar("k"), ir.PVar("v")))
            plus = codegen.fold_operator("+", bindings.monoids)
            exit_ = ("fold_by_key", ir.CVar("k"), ("value", "v"), *plus)
            fold = codegen.generate(codegen.Segment(("bind", pair), (), exit_), bindings, {})
            records = [("hot", 1)] * 90 + [(f"cold{i}", 1) for i in range(10)]
            partials = ctx.parallelize(records, 2).map_partitions(fold)
            folded = partials.reduce_by_key(lambda a, b: a + b, folded=True)
            assert dict(folded.collect()) == {"hot": 90, **{f"cold{i}": 1 for i in range(10)}}
            assert ctx.metrics.salted_keys == 1, "decided from 100 sampled keys, not from 11 folded ones"
            assert (ctx.metrics.combiner_input_records, ctx.metrics.combiner_output_records) == (100, 12)

