"""Partitioner semantics: equality/hashing, metadata preservation through
every narrow operator, placement no-ops and co-partitioning errors.

The partition-aware planner (PR 5) keys every shuffle-elimination decision on
``Partitioner.__eq__``, so these semantics are load-bearing: a false positive
would silently mis-bucket keys, a false negative would only cost a shuffle.
"""

import json
import os
import pickle
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ExecutionError
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner, Partitioner, RangePartitioner, stable_hash
from repro.runtime.stage import SaltedKey
from repro.workloads import zipf_keys


@pytest.fixture
def ctx():
    return DistributedContext(num_partitions=4)


class TestPartitionerEquality:
    def test_hash_partitioners_equal_on_num_partitions(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))
        assert HashPartitioner(4) != HashPartitioner(8)

    def test_hash_vs_range_never_equal(self):
        # Same partition count, different placement function: treating these
        # as interchangeable would route keys to the wrong buckets.
        assert HashPartitioner(3) != RangePartitioner(3, [10, 20])
        assert RangePartitioner(3, [10, 20]) != HashPartitioner(3)

    def test_range_partitioners_compare_bounds(self):
        assert RangePartitioner(3, [10, 20]) == RangePartitioner(3, [10, 20])
        assert hash(RangePartitioner(3, [10, 20])) == hash(RangePartitioner(3, [10, 20]))
        assert RangePartitioner(3, [10, 20]) != RangePartitioner(3, [10, 30])

    def test_range_partitioners_compare_num_partitions(self):
        assert RangePartitioner(3, [10, 20]) != RangePartitioner(4, [10, 20, 30])

    def test_base_class_equality_is_type_strict(self):
        assert Partitioner(4) != HashPartitioner(4)

    def test_invalid_partitioners_rejected(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            RangePartitioner(3, [10])  # needs num_partitions - 1 bounds


class TestPartitionerPreservation:
    """Which narrow operators may keep partitioner metadata.

    Key-preserving operators (filter / map_values / sample) keep it; anything
    that can rewrite the record (map / flat_map / map_partitions) must drop
    it unless the caller promises key stability via
    ``preserves_partitioning=True``.
    """

    def _placed(self, ctx):
        return ctx.parallelize([(i, i) for i in range(40)]).partition_by(HashPartitioner(4))

    def test_filter_preserves(self, ctx):
        placed = self._placed(ctx)
        assert placed.filter(lambda p: p[0] > 3).partitioner == HashPartitioner(4)

    def test_map_values_preserves(self, ctx):
        placed = self._placed(ctx)
        assert placed.map_values(lambda v: v + 1).partitioner == HashPartitioner(4)

    def test_sample_preserves(self, ctx):
        placed = self._placed(ctx)
        assert placed.sample(0.5).partitioner == HashPartitioner(4)

    def test_map_drops_by_default(self, ctx):
        placed = self._placed(ctx)
        assert placed.map(lambda p: p).partitioner is None

    def test_flat_map_drops_by_default(self, ctx):
        placed = self._placed(ctx)
        assert placed.flat_map(lambda p: [p]).partitioner is None

    def test_map_partitions_drops(self, ctx):
        placed = self._placed(ctx)
        assert placed.map_partitions(lambda records: records).partitioner is None

    def test_map_with_preserves_partitioning_keeps(self, ctx):
        placed = self._placed(ctx)
        kept = placed.map(lambda p: (p[0], p[1] * 2), preserves_partitioning=True)
        assert kept.partitioner == HashPartitioner(4)

    def test_flat_map_with_preserves_partitioning_keeps(self, ctx):
        placed = self._placed(ctx)
        kept = placed.flat_map(lambda p: [(p[0], v) for v in range(2)], preserves_partitioning=True)
        assert kept.partitioner == HashPartitioner(4)

    def test_preservation_survives_forcing(self, ctx):
        placed = self._placed(ctx)
        chain = placed.filter(lambda p: True).map_values(lambda v: v).sample(0.9)
        chain.materialize()
        assert chain.partitioner == HashPartitioner(4)

    def test_merge_preserves_the_cogroup_partitioner(self, ctx):
        left = ctx.parallelize([(1, "a"), (2, "b")])
        right = ctx.parallelize([(2, "B"), (3, "C")])
        merged = left.merge(right).materialize()
        assert merged.partitioner == HashPartitioner(ctx.num_partitions)
        assert merged.collect_as_map() == {1: "a", 2: "B", 3: "C"}


class TestPlacement:
    def test_partition_by_is_a_no_op_when_already_placed(self, ctx):
        placed = ctx.parallelize([(i, i) for i in range(20)]).partition_by(HashPartitioner(4))
        ctx.metrics.reset()
        again = placed.partition_by(HashPartitioner(4))
        assert again is placed, "re-placing with an equal partitioner must be free"
        assert ctx.metrics.shuffles == 0

    def test_partition_by_with_a_different_partitioner_shuffles(self, ctx):
        placed = ctx.parallelize([(i, i) for i in range(20)]).partition_by(HashPartitioner(4))
        ctx.metrics.reset()
        replaced = placed.partition_by(HashPartitioner(2))
        assert replaced.partitioner == HashPartitioner(2)
        assert ctx.metrics.shuffles == 1

    def test_partition_by_groups_keys_per_partition(self, ctx):
        placed = ctx.parallelize([(i % 8, i) for i in range(64)]).partition_by(HashPartitioner(4))
        partitioner = placed.partitioner
        for index, partition in enumerate(placed.partitions):
            for key, _value in partition:
                assert partitioner.partition(key) == index

    def test_zip_partitions_partition_count_mismatch_raises(self, ctx):
        left = ctx.parallelize(range(10), num_partitions=4)
        right = ctx.parallelize(range(10), num_partitions=3)
        with pytest.raises(ExecutionError, match="same number of partitions"):
            left.zip_partitions(right, lambda a, b: a + b)


class TestSkewAwarePartitioning:
    """Range bounds from skewed samples, and hot-key salting (PR 7).

    Under a Zipf key distribution, split points taken from *distinct* keys
    would pack the hot head range into one partition; both ``from_sample``
    (duplicates in the raw sample carry the frequency) and ``from_histogram``
    (explicit counts) must spread the load instead.
    """

    ZIPF_KEYS = 1_000
    ZIPF_DRAWS = 4_000

    def _balance(self, partitioner: RangePartitioner, keys: list[int]) -> list[int]:
        counts = [0] * partitioner.num_partitions
        for key in keys:
            counts[partitioner.partition(key)] += 1
        return counts

    def test_from_sample_balances_zipf_keys(self):
        keys = zipf_keys(self.ZIPF_DRAWS, self.ZIPF_KEYS, seed=101)
        partitioner = RangePartitioner.from_sample(4, keys)
        counts = self._balance(partitioner, keys)
        assert partitioner.num_partitions >= 2
        assert all(count > 0 for count in counts), "a partition went empty"
        # The hottest key (~1/5 of the mass) cannot be split, so perfect 25%
        # quarters are unreachable -- but no partition may own a majority.
        assert max(counts) < len(keys) // 2, f"skewed split: {counts}"

    def test_from_histogram_balances_zipf_keys(self):
        keys = zipf_keys(self.ZIPF_DRAWS, self.ZIPF_KEYS, seed=103)
        histogram = sorted(Counter(keys).items())
        partitioner = RangePartitioner.from_histogram(4, histogram)
        counts = self._balance(partitioner, keys)
        assert partitioner.num_partitions >= 2
        assert all(count > 0 for count in counts), "a partition went empty"
        assert max(counts) < len(keys) // 2, f"skewed split: {counts}"

    def test_from_histogram_matches_from_sample_on_exact_counts(self):
        # A histogram with the sample's exact multiplicities must induce the
        # same frequency-weighted quantiles as the raw sample itself.
        keys = zipf_keys(500, 40, seed=107)
        by_sample = RangePartitioner.from_sample(4, keys)
        by_histogram = RangePartitioner.from_histogram(4, sorted(Counter(keys).items()))
        assert self._balance(by_histogram, keys) == pytest.approx(
            self._balance(by_sample, keys), rel=0.25
        )

    def test_salted_keys_hash_stably_and_spread(self):
        key = "hot-key"
        salted = [SaltedKey(key, salt) for salt in range(8)]
        # Tuple subclass: stable_hash's tuple branch covers it, and the value
        # is reproducible (no per-process str-hash randomization leaks in).
        for record in salted:
            assert stable_hash(record) == stable_hash(SaltedKey(key, record.salt))
        partitions = {HashPartitioner(4).partition(record) for record in salted}
        assert len(partitions) > 1, "salting failed to spread the hot key"

    def test_salted_reduce_matches_unsalted_exactly(self):
        # Non-commutative fold: exactness requires the driver to fold salted
        # partials back in map-task order, so string concatenation is the
        # sharpest probe (floats would hide reordering in associativity).
        records = [("hot", str(index)) for index in range(400)]
        records += [(f"cold-{index}", "x") for index in range(40)]
        concat = lambda a, b: a + b  # noqa: E731
        with DistributedContext(num_partitions=4, adaptive=False) as context:
            expected = dict(context.parallelize(records).reduce_by_key(concat).collect())
        with DistributedContext(num_partitions=4, adaptive=True) as context:
            actual = dict(context.parallelize(records).reduce_by_key(concat).collect())
            assert context.metrics.salted_keys > 0, "the hot key was not salted"
        assert actual == expected


#: Scalars whose stable hash is the built-in one, at the edges of CPython's
#: numeric hash: equal across types (1 / 1.0 / True), hash(-1) == -2, the
#: Mersenne modulus 2**61 - 1, beyond 64 bits, signed zero, NaN.
_EDGE_NUMBERS = (1, 1.0, True, False, 0, -1, -1.0, 2**61 - 1, 2**61, 2**64, -(2**64), -0.0, float("nan"))

_SCALAR_KEYS = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "\ud800", "a\udfffb"]),
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.binary(max_size=6),
)

_KEYS = st.recursive(
    _SCALAR_KEYS,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.builds(SaltedKey, children, st.integers(min_value=0, max_value=64)),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=8,
)


Point = namedtuple("Point", "x y")

#: Tuple keys: flat int tuples (the array-index keys every merge and join
#: places), the empty tuple, tuples over the numeric edges, strings and
#: nested tuples, and the tuple subclasses that must keep their own path.
_TUPLE_KEYS = st.one_of(
    st.lists(st.integers(), max_size=4).map(tuple),
    st.lists(st.integers(min_value=-2, max_value=300), min_size=2, max_size=2).map(tuple),
    st.just(()),
    st.lists(
        st.one_of(st.sampled_from(_EDGE_NUMBERS), st.text(max_size=3), st.none()), max_size=4
    ).map(tuple),
    st.recursive(
        st.sampled_from(_EDGE_NUMBERS + ("a", "")),
        lambda children: st.lists(children, max_size=3).map(tuple),
        max_leaves=6,
    ),
    st.builds(SaltedKey, _SCALAR_KEYS, st.integers(min_value=0, max_value=64)),
    st.builds(Point, _SCALAR_KEYS, st.tuples(st.integers(), st.text(max_size=2))),
)


def recursive_stable_hash(key):
    """The reference for container keys: the tuple polynomial (and the
    frozenset combination) recursing through ``stable_hash`` for every
    element, with no inlined element hashing to share a slip with."""
    if isinstance(key, tuple):
        result = 0x345678
        for element in key:
            result = (result * 1000003 ^ recursive_stable_hash(element)) & 0xFFFFFFFF
        return result ^ len(key)
    if isinstance(key, frozenset):
        result = len(key)
        for element in key:
            result ^= recursive_stable_hash(element)
        return result
    return stable_hash(key)


class TestBulkPlacement:
    """``partition_all`` places a whole map partition; it must agree with
    per-key ``stable_hash`` placement bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(
        keys=st.lists(st.one_of(_KEYS, _TUPLE_KEYS), max_size=30),
        num_partitions=st.one_of(st.integers(min_value=1, max_value=64), st.just(2**31 - 1)),
    )
    @example(keys=["", "\ud800", "a\udfffb", "été", (2, 3), ()], num_partitions=2**31 - 1)
    def test_partition_all_equals_stable_hash(self, keys, num_partitions):
        partitioner = HashPartitioner(num_partitions)
        expected = [stable_hash(key) % num_partitions for key in keys]
        assert expected == [recursive_stable_hash(key) % num_partitions for key in keys]
        assert partitioner.partition_all(keys) == expected
        assert [partitioner.partition(key) for key in keys] == expected

    def test_base_class_places_key_by_key(self):
        partitioner = RangePartitioner(3, [10, 20])
        keys = [25, 5, 10, 15, 20, 21]
        assert partitioner.partition_all(keys) == [partitioner.partition(key) for key in keys]

    @pytest.mark.parametrize("num_partitions", [4, 1_000_003, 2**31 - 1])
    def test_nan_keys_place_deterministically(self, num_partitions):
        # hash(nan) is identity-based since Python 3.10: distinct NaN objects,
        # or one NaN after a pickle round trip, used to land apart.
        nans = [float("nan") for _ in range(4)]
        nans.append(pickle.loads(pickle.dumps(nans[0])))
        assert len({id(nan) for nan in nans}) == len(nans)
        partitioner = HashPartitioner(num_partitions)
        for keys in (nans, [(1, nan) for nan in nans], [frozenset({nan}) for nan in nans]):
            placed = partitioner.partition_all(keys)
            assert len(set(placed)) == 1, placed
            assert [partitioner.partition(key) for key in keys] == placed

    def test_string_placement_ignores_the_hash_seed(self):
        keys = ["alpha", "", "été", ("a", "b"), ("a", 1), ("nested", ("x", 1))]
        script = (
            "import json, sys\n"
            "from repro.runtime.partitioner import HashPartitioner\n"
            "keys = [tuple(k) if isinstance(k, list) else k for k in json.loads(sys.argv[1])]\n"
            "keys[-1] = ('nested', ('x', 1))\n"
            "partitioner = HashPartitioner(97)\n"
            "print(json.dumps([partitioner.partition_all(keys), [partitioner.partition(k) for k in keys]]))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        placements = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            completed = subprocess.run(
                [sys.executable, "-c", script, json.dumps(keys)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
                check=True,
            )
            placements.append(json.loads(completed.stdout))
        local = HashPartitioner(97).partition_all(keys)
        assert placements[0] == placements[1] == [local, local]
