"""The kept ``Dataset`` surface, and the bench-pinned stage functions.

Each operator test runs on both executors, with and without every shuffled
record spilled at a 1-byte budget, and must give the same answer on all
four: range placement through ``partition_by``, ``aggregate``,
``co_group``, forced broadcast and shuffle inner joins, the co-partitioned
(zipped) inner join, ``merge_with``, ``count_by_value`` and ``take``.  The stage-level tests
pin ``sort_bucket`` and ``repartition_write`` (no shuffle runs them, but the
trace table wraps them, so they must keep working), ``reduce_bucket``'s
fold order, and the build-left form of
``broadcast_join_partition``, and the map-side combiner ``apply_combiner``.
"""

from __future__ import annotations

import math
import operator

import pytest

from test_executor_equivalence import broadcast_threshold, context_on

from repro.runtime import spill, stage
from repro.runtime.partitioner import HashPartitioner, RangePartitioner

#: (executor, spill threshold in bytes): 1 byte sends every shuffled record to disk.
SETTINGS = [("sequential", None), ("sequential", 1), ("cluster", None), ("cluster", 1)]


@pytest.fixture(scope="module", params=SETTINGS, ids=lambda s: f"{s[0]}-spill{s[1]}")
def ctx(request):
    executor, threshold = request.param
    with context_on(executor, num_partitions=4, spill_threshold_bytes=threshold) as context:
        yield context


class TestKeptOperators:
    def test_partition_by_range_places_keys_by_bound(self, ctx):
        partitioner = RangePartitioner(3, [10, 20])
        pairs = [((i * 7) % 30, i) for i in range(30)]
        placed = ctx.parallelize(pairs).partition_by(partitioner)
        assert placed.partitioner == partitioner
        parts = placed.partitions
        assert [sorted(key for key, _ in part) for part in parts] == [
            list(range(0, 11)),  # a key equal to a bound stays below it
            list(range(11, 21)),
            list(range(21, 30)),
        ]

    def test_aggregate_folds_within_then_across_partitions(self, ctx):
        dataset = ctx.parallelize(range(1, 101))
        count_and_sum = dataset.aggregate(
            (0, 0),
            lambda acc, value: (acc[0] + 1, acc[1] + value),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert count_and_sum == (100, 5050)
        # A non-commutative fold sees the records in partition order.
        concatenated = dataset.aggregate((), lambda acc, v: acc + (v,), operator.add)
        assert list(concatenated) == dataset.collect()

    def test_aggregate_of_empty_dataset_is_zero(self, ctx):
        assert ctx.empty().aggregate(0, operator.add, operator.add) == 0

    def test_co_group_collects_both_sides_per_key(self, ctx):
        left = ctx.parallelize([(i % 3, i) for i in range(9)])
        right = ctx.parallelize([(k, -k) for k in (1, 2, 2, 5)])
        grouped = {
            key: (sorted(lefts), sorted(rights))
            for key, (lefts, rights) in left.co_group(right).collect()
        }
        assert grouped == {
            0: ([0, 3, 6], []),
            1: ([1, 4, 7], [-1]),
            2: ([2, 5, 8], [-2, -2]),
            5: ([], [-5]),
        }

    def test_forced_broadcast_and_shuffle_joins_agree(self, ctx):
        left = ctx.parallelize([(i % 5, i) for i in range(40)])
        right = ctx.parallelize([(k % 4, k * 10) for k in range(8)])
        expected = sorted(
            (lk, (lv, rv)) for lk, lv in left.collect() for rk, rv in right.collect() if lk == rk
        )
        ctx.metrics.reset()
        with broadcast_threshold(ctx, 1_000):
            assert sorted(left.join(right).collect()) == expected
        assert ctx.metrics.join_strategies == {"broadcast": 1}
        assert ctx.metrics.shuffles == 0
        ctx.metrics.reset()
        with broadcast_threshold(ctx, 0):
            assert sorted(left.join(right).collect()) == expected
        assert ctx.metrics.join_strategies == {"shuffle": 1}

    def test_inner_join_drops_the_unmatched_keys_of_both_sides(self, ctx):
        left = ctx.parallelize([("a", 1), ("a", 2), ("b", 3)])
        right = ctx.parallelize([("a", 10), ("c", 30), ("c", 31)])
        for threshold in (1_000, 0):
            with broadcast_threshold(ctx, threshold):
                assert sorted(left.join(right).collect()) == [("a", (1, 10)), ("a", (2, 10))]

    def test_copartitioned_join_zips_partitions_by_index(self, ctx):
        partitioner = HashPartitioner(4)
        left = ctx.parallelize([(k, k) for k in range(20)]).partition_by(partitioner).materialize()
        right = ctx.parallelize([(k, k * k) for k in range(0, 30, 2)]).partition_by(partitioner).materialize()
        ctx.metrics.reset()
        joined = left.join(right)
        assert joined.partitioner == partitioner
        assert dict(joined.collect()) == {k: (k, k * k) for k in range(0, 20, 2)}
        assert ctx.metrics.shuffles == 0
        assert ctx.metrics.join_strategies == {"narrow": 1}

    def test_merge_with_folds_shared_keys_left_first_and_keeps_the_rest(self, ctx):
        left = ctx.parallelize([(k, float(k)) for k in range(12)])
        right = ctx.parallelize([(k, 0.5) for k in range(6, 18)])
        merged = left.merge_with(right, operator.sub).collect_as_map()
        assert merged == {
            **{k: float(k) for k in range(6)},
            **{k: k - 0.5 for k in range(6, 12)},
            **{k: 0.5 for k in range(12, 18)},
        }

    def test_count_by_value(self, ctx):
        words = ["x", "y", "x", "z", "x", "y"] * 5
        assert ctx.parallelize(words).count_by_value() == {"x": 15, "y": 10, "z": 5}

    def test_take_stops_at_the_records_there_are(self, ctx):
        assert ctx.empty().take(3) == []
        assert ctx.parallelize(range(5)).take(10) == list(range(5))
        assert ctx.parallelize(range(50)).filter(lambda v: v % 7 == 0).take(3) == [0, 7, 14]


def _payloads(records, targets, spill_spec, tag="m0"):
    writer = spill.BucketWriter(max(targets, default=0) + 1, spill_spec, tag)
    writer.write(targets, records)
    return writer.finish()


class TestSortBucket:
    RECORDS = [((i * 7 + 3) % 10, i) for i in range(300)]  # many equal keys

    def test_ascending_is_a_stable_sort(self):
        payloads = _payloads(self.RECORDS, [0] * len(self.RECORDS), None)
        result = stage.sort_bucket(lambda record: record[0], True, payloads)
        assert result == sorted(self.RECORDS, key=lambda record: record[0])

    def test_descending_keeps_equal_keys_in_arrival_order(self):
        payloads = _payloads(self.RECORDS, [0] * len(self.RECORDS), None)
        result = stage.sort_bucket(lambda record: record[0], False, payloads)
        assert [key for key, _ in result] == sorted((key for key, _ in self.RECORDS), reverse=True)
        for key in range(10):
            positions = [position for k, position in result if k == key]
            assert positions == sorted(positions)

    def test_spilled_runs_sort_like_in_memory_records(self, tmp_path):
        spec = spill.SpillSpec(str(tmp_path), 1)
        half = len(self.RECORDS) // 2
        spilled = _payloads(self.RECORDS[:half], [0] * half, spec, "m0") + _payloads(
            self.RECORDS[half:], [0] * (len(self.RECORDS) - half), spec, "m1"
        )
        assert all(payload.runs for payload in spilled)
        in_memory = _payloads(self.RECORDS, [0] * len(self.RECORDS), None)
        key = operator.itemgetter(0)
        for ascending in (True, False):
            assert stage.sort_bucket(key, ascending, spilled) == stage.sort_bucket(
                key, ascending, in_memory
            )

    def test_empty_bucket(self):
        assert stage.sort_bucket(lambda record: record, True, []) == []


class TestReduceBucket:
    """The reduce side gives the left fold in stream order, types and signed
    zeros included, for built-in and Python-level combines alike."""

    VALUES = [1, -0.0, 2.5, True, 0.0, 3, -1, 2**70, 0.5, -0.0]
    RECORDS = [((position % 3, "k"), value) for position, value in enumerate(VALUES)]

    @pytest.mark.parametrize(
        "function",
        [operator.add, operator.mul, lambda a, b: a + b, lambda a, b: a * b],
        ids=["add", "mul", "called-add", "called-mul"],
    )
    def test_folds_left_in_stream_order(self, function):
        expected = {}
        for key, value in self.RECORDS:
            expected[key] = function(expected[key], value) if key in expected else value
        payloads = _payloads(self.RECORDS[:4], [0] * 4, None) + _payloads(self.RECORDS[4:], [0] * 6, None)
        assert repr(stage.reduce_bucket(function, payloads)) == repr(list(expected.items()))


class TestApplyCombiner:
    """The map-side combiner folds each key left in record order and emits
    the keys in first-seen order, exactly as the record stream gives them."""

    def test_reduce_folds_per_key_in_first_seen_key_order(self):
        records = [(3, 1.0), (1, 2.0), (3, 3.0), (2, 4.0), (1, 5.0)]
        assert stage.apply_combiner(("reduce", operator.add), records) == [(3, 4.0), (1, 7.0), (2, 4.0)]

    def test_group_keeps_first_seen_key_order_and_record_order(self):
        records = [(3, 1.0), (1, 2.0), (3, 3.0), (2, 4.0), (1, 5.0), (3, 6.0)]
        expected = [(3, [1.0, 3.0, 6.0]), (1, [2.0, 5.0]), (2, [4.0])]
        assert stage.apply_combiner(("group",), records) == expected

    def test_min_folds_keep_nan_and_the_first_signed_zero(self):
        ((key, nan),) = stage.apply_combiner(("reduce", min), [(0, float("nan")), (0, 1.0)])
        assert key == 0 and math.isnan(nan)
        ((_, zero),) = stage.apply_combiner(("reduce", min), [(0, -0.0), (0, 0.0)])
        assert math.copysign(1.0, zero) == -1.0

    def test_integer_products_stay_exact_python_ints(self):
        records = [(0, 2**20), (0, 2**20), (0, 2**25)]
        assert stage.apply_combiner(("reduce", operator.mul), records) == [(0, 2**65)]

    def test_unhashable_keys_raise_instead_of_misgrouping(self):
        with pytest.raises(TypeError):
            stage.apply_combiner(("reduce", operator.add), [([0], 1.0), ([0], 2.0)])

    def test_folded_records_pass_through_untouched(self):
        records = [(1, 2.0), (1, 3.0)]
        assert stage.apply_combiner(("folded", operator.add), records) is records


class TestRepartitionWrite:
    def _buckets(self, num_output, spill_spec, records, index):
        stats, *payloads = stage.repartition_write(num_output, spill_spec, 0, records, index)
        return stats, [list(spill.iter_payload(payload)) for payload in payloads]

    def test_start_offset_rotates_with_the_map_index(self):
        records = list("abcde")
        _, first = self._buckets(3, None, records, 0)
        _, second = self._buckets(3, None, records, 1)
        assert first == [["a", "d"], ["b", "e"], ["c"]]
        assert second == [["c"], ["a", "d"], ["b", "e"]]

    def test_spilled_buckets_hold_what_in_memory_buckets_hold(self, tmp_path):
        records = [(i, "v" * (i % 5)) for i in range(200)]
        stats, in_memory = self._buckets(4, None, records, 2)
        _, spilled = self._buckets(4, spill.SpillSpec(str(tmp_path), 1), records, 2)
        assert spilled == in_memory
        assert stats.records_in == stats.records_out == len(records)
        assert sorted(record for bucket in in_memory for record in bucket) == records
        assert [len(bucket) for bucket in in_memory] == [50, 50, 50, 50]


class TestBroadcastJoinPartition:
    def test_left_build_side_keeps_the_left_value_first(self):
        lookup = {"a": [1, 2], "b": [3]}
        probe = [("a", 10), ("c", 30), ("b", 20)]
        assert stage.broadcast_join_partition("left", lookup, probe) == [
            ("a", (1, 10)),
            ("a", (2, 10)),
            ("b", (3, 20)),
        ]

    def test_right_build_side_keeps_the_probe_value_first(self):
        lookup = {"a": [1, 2]}
        assert stage.broadcast_join_partition("right", lookup, [("a", 10), ("z", 0)]) == [
            ("a", (10, 1)),
            ("a", (10, 2)),
        ]
