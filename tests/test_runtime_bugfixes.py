"""Regression tests for latent runtime bugs in the join, take and field-update paths.

Each test encodes the *observable* wrong behaviour of the pre-fix code:

- ``_try_broadcast_join`` sized each side from the pre-chain source, so a
  side shrunk under the threshold by a captured ``filter`` never broadcast.
- ``Dataset.take`` forced every partition even for ``take(1)``.
- ``operators.update_field`` wrote tuple position ``_0`` to the *last*
  component and let ``_3`` on a pair escape as a bare ``IndexError``.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.operators import update_field
from repro.runtime.context import DistributedContext


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

    def test_take_spans_partitions_when_needed(self):
        with DistributedContext(num_partitions=4) as ctx:
            data = ctx.parallelize(range(10))
            assert data.take(7) == list(range(7))
            assert data.take(99) == list(range(10))
            assert data.take(0) == []

    def test_take_skips_empty_leading_partitions(self):
        with DistributedContext(num_partitions=3) as ctx:
            data = ctx.parallelize(range(9)).filter(lambda x: x == 8).materialize()
            assert [len(partition) for partition in data.partitions] == [0, 0, 1]
            assert data.take(1) == [8]

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
