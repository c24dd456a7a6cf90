"""Regression tests for latent runtime bugs fixed alongside the columnar work.

Each test encodes the *observable* wrong behaviour of the pre-fix code:

- ``aggregate_by_key`` seeded every key's accumulator with the same ``zero``
  object, so an in-place-mutating ``seq_op`` corrupted all keys.
- ``RangePartitioner.from_sample`` emitted duplicate split points on skewed
  samples, leaving empty partitions and one hot partition for ``sort_by``.
- ``_try_broadcast_join`` sized each side from the pre-chain source, so a
  side shrunk under the threshold by a captured ``filter`` never broadcast.
- ``Dataset.take``/``first`` forced every partition even for ``take(1)``.
- ``operators.update_field`` wrote tuple position ``_0`` to the *last*
  component and let ``_3`` on a pair escape as a bare ``IndexError``.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.operators import update_field
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner, RangePartitioner


def append_acc(acc, value):
    acc.append(value)
    return acc


class TestAggregateByKeyZeroAliasing:
    def test_list_zero_is_not_shared_between_keys(self):
        with DistributedContext(num_partitions=2) as ctx:
            data = ctx.parallelize_pairs([("a", 1), ("b", 2), ("a", 3), ("c", 4)])
            result = dict(data.aggregate_by_key([], append_acc, lambda a, b: a + b).collect())
        assert result == {"a": [1, 3], "b": [2], "c": [4]}

    def test_list_zero_on_the_narrow_keyed_pass(self):
        with DistributedContext(num_partitions=2) as ctx:
            data = ctx.parallelize_pairs([("a", 1), ("b", 2), ("a", 3)]).partition_by(
                HashPartitioner(2)
            )
            eliminated = ctx.metrics.shuffles_eliminated
            result = dict(data.aggregate_by_key([], append_acc, lambda a, b: a + b).collect())
            assert ctx.metrics.shuffles_eliminated == eliminated + 1, "must hit the narrow pass"
        assert result == {"a": [1, 3], "b": [2]}

    def test_dict_zero_is_not_shared_between_keys(self):
        def count_into(acc, value):
            acc[value] = acc.get(value, 0) + 1
            return acc

        def merge_counts(a, b):
            for key, count in b.items():
                a[key] = a.get(key, 0) + count
            return a

        with DistributedContext(num_partitions=2) as ctx:
            data = ctx.parallelize_pairs([("x", "p"), ("y", "q"), ("x", "p")])
            result = dict(data.aggregate_by_key({}, count_into, merge_counts).collect())
        assert result == {"x": {"p": 2}, "y": {"q": 1}}


class TestRangePartitionerSkewedSample:
    def test_from_sample_deduplicates_bounds(self):
        partitioner = RangePartitioner.from_sample(4, [5] * 37 + [1, 9])
        assert len(partitioner.bounds) == len(set(partitioner.bounds))
        assert partitioner.num_partitions == len(partitioner.bounds) + 1

    def test_from_sample_constant_sample_collapses(self):
        partitioner = RangePartitioner.from_sample(4, [7] * 100)
        assert partitioner.bounds == [7]
        assert partitioner.num_partitions == 2

    def test_sort_with_heavy_key_repetition(self):
        records = [(5, "dup")] * 40 + [(1, "lo"), (9, "hi"), (3, "mid")]
        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize_raw(records)
            ordered = data.sort_by_key()
            collected = ordered.collect()
            assert collected == sorted(records, key=lambda kv: kv[0])
            assert isinstance(ordered.partitioner, RangePartitioner)
            bounds = ordered.partitioner.bounds
            assert len(bounds) == len(set(bounds)), "skewed sample must not repeat split points"


class TestBroadcastJoinSizing:
    def test_filter_shrunk_side_flips_to_broadcast(self):
        with DistributedContext(num_partitions=2, broadcast_join_threshold=5) as ctx:
            left = ctx.parallelize_pairs([(i, i) for i in range(100)])
            right = ctx.parallelize_pairs([(i, -i) for i in range(100)]).filter(
                lambda kv: kv[0] < 3
            )
            result = sorted(left.join(right).collect())
            assert ctx.metrics.join_strategies == {"broadcast": 1}
        assert result == [(i, (i, -i)) for i in range(3)]

    def test_fallback_to_shuffle_runs_the_chain_once(self):
        calls: list[int] = []

        def spy(kv):
            calls.append(kv[0])
            return kv

        with DistributedContext(num_partitions=2, broadcast_join_threshold=5) as ctx:
            left = ctx.parallelize_pairs([(i, i) for i in range(50)])
            right = ctx.parallelize_pairs([(i, -i) for i in range(50)]).map(spy)
            result = sorted(left.join(right).collect())
            assert ctx.metrics.join_strategies == {"shuffle": 1}
        assert result == [(i, (i, -i)) for i in range(50)]
        assert len(calls) == 50, "the captured chain must not run twice"


class TestTakeIsIncremental:
    def test_take_one_never_touches_later_partitions(self):
        seen: list[int] = []

        def spy(x):
            seen.append(x)
            return x

        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize(range(100)).map(spy)
            assert data.take(1) == [0]
            assert seen, "the first partition's stage must run"
            assert max(seen) < 25, "later partitions' stage functions must not be invoked"
            # The dataset stays pending and still evaluates fully afterwards.
            assert data.collect() == list(range(100))

    def test_first_never_touches_later_partitions(self):
        seen: list[int] = []

        def spy(x):
            seen.append(x)
            return x

        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize(range(100)).map(spy)
            assert data.first() == 0
            assert max(seen) < 25

    def test_take_spans_partitions_when_needed(self):
        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize(range(10))
            assert data.take(7) == list(range(7))
            assert data.take(99) == list(range(10))
            assert data.take(0) == []

    def test_take_skips_empty_leading_partitions(self):
        with DistributedContext(num_partitions=3) as ctx:
            data = ctx.parallelize_raw([]).union(ctx.parallelize([42]))
            assert data.first() == 42

    def test_first_on_empty_dataset_raises(self):
        with DistributedContext(num_partitions=2) as ctx:
            with pytest.raises(ExecutionError):
                ctx.empty().first()

    def test_take_on_filtered_chain(self):
        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize(range(100)).filter(lambda x: x % 10 == 9)
            assert data.take(2) == [9, 19]


class TestUpdateFieldTupleRange:
    def test_in_range_positions_update(self):
        assert update_field((1, 2), "_1", 9) == (9, 2)
        assert update_field((1, 2), "_2", 9) == (1, 9)

    @pytest.mark.parametrize("attribute", ["_0", "_3", "_-1"])
    def test_out_of_range_position_raises_execution_error(self, attribute):
        with pytest.raises(ExecutionError, match="out of range"):
            update_field((1, 2), attribute, 9)

    def test_non_numeric_position_raises_execution_error(self):
        with pytest.raises(ExecutionError, match="bad tuple projection"):
            update_field((1, 2), "_x", 9)
