"""Array merges (⊳ / ⊳⊕) against the coGroup composition they replaced.

``Dataset.merge`` / ``merge_with`` used to be ``co_group(...)`` followed by a
``flat_map`` that chose (⊳) or combined (⊳⊕) each key's groups.  They now
write the merged records straight from the coGroup's reduce side
(``stage.merge_bucket``) or zip pass (``stage.zip_merge_partition``).
:func:`reference` below *is* the old composition, kept here as the oracle:
every output partition must hold the same records in the same order, with
the same value bits and types, under the same partitioner -- on the shuffle
path, with one side pre-partitioned, and on the co-partitioned zip path,
spilling or not, on the sequential executor and on two cluster workers.

One allowance is documented in ``stage._merge_sides``: right values are
folded in stream order, so when ``⊕`` raises on two different keys, which of
the errors surfaces first may differ.  It must still be an error the
reference could raise for one of the failing keys, and with one failing key
it is the same error.
"""

from __future__ import annotations

import math
import operator
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_executor_equivalence import context_on

from repro.api.config import EXECUTOR_MODES
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner

NUM_PARTITIONS = 3


def reference(left, right, function=None):
    """The composition ``merge`` / ``merge_with`` replaced."""
    grouped = left.co_group(right)

    def choose(record):
        key, (left_values, right_values) = record
        if right_values:
            return [(key, right_values[-1])]
        return [(key, left_values[-1])]

    def combine(record):
        key, (left_values, right_values) = record
        if not right_values:
            return [(key, left_values[-1])]
        merged = right_values[0]
        for value in right_values[1:]:
            merged = function(merged, value)
        if left_values:
            merged = function(left_values[-1], merged)
        return [(key, merged)]

    return grouped.flat_map(choose if function is None else combine, preserves_partitioning=True)


def merged(left, right, function=None):
    return left.merge(right) if function is None else left.merge_with(right, function)


def concat(a, b):
    """Non-commutative and non-associative-looking: any order slip shows."""
    return f"({a}|{b})"


def fragile(a, b):
    """Concatenation that raises on any operand containing ``!``."""
    if "!" in a or "!" in b:
        raise ValueError(f"{a}+{b}")
    return f"({a}|{b})"


def canon(value):
    """A comparable form that keeps types and float bits (NaN, -0.0)."""
    if type(value) is float:
        return ("float", struct.pack(">d", value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(canon(element) for element in value))
    return (type(value).__name__, repr(value))


def snapshot(dataset):
    return [[canon(record) for record in partition] for partition in dataset.partitions]


@pytest.fixture(scope="module")
def contexts():
    opened = {
        (executor, spill): context_on(
            executor, num_partitions=NUM_PARTITIONS, spill_threshold_bytes=spill
        )
        for executor in EXECUTOR_MODES
        for spill in (None, 1)
    }
    yield opened
    for context in opened.values():
        context.shutdown()


def inputs(context, left, right, placement):
    """The two sides, hash-placed per ``placement``: ``"shuffle"`` (neither),
    ``"one-side"`` (left; the shuffle skips its map-side bucketing) or
    ``"zip"`` (both: the merge runs as a narrow zip pass)."""
    partitioner = HashPartitioner(NUM_PARTITIONS)
    left_ds = context.parallelize(left)
    right_ds = context.parallelize(right)
    if placement in ("one-side", "zip"):
        left_ds = left_ds.partition_by(partitioner)
    if placement == "zip":
        right_ds = right_ds.partition_by(partitioner)
    return left_ds, right_ds


#: Keys that collide by ``==`` across types, signed zeros, NaN (one shared
#: object, and fresh objects that only match themselves) and tuples.
keys = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 2, 3, -0.0, 0.0, math.nan, "a", (1, 2), (1, (2, 3)), (1.0, 2)]),
    st.integers(min_value=-3, max_value=6),
    st.builds(float, st.just("nan")),
)
numbers = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([True, False, -0.0, 0.0]),
)
texts = st.text(alphabet="xyz", max_size=3)
anything = st.one_of(numbers, texts, st.tuples(numbers, texts))

#: (⊕, a value strategy it accepts); None is ⊳.
OPERATIONS = {
    "merge": (None, anything),
    "merge_with(+)": (operator.add, numbers),
    "merge_with(*)": (operator.mul, numbers),
    "merge_with(concat)": (concat, texts),
}


def side(values):
    return st.lists(st.tuples(keys, values), max_size=12)


@pytest.mark.parametrize("spill", [None, 1], ids=["in-memory", "spill=1"])
@pytest.mark.parametrize("executor", EXECUTOR_MODES)
@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(OPERATIONS)),
    placement=st.sampled_from(["shuffle", "one-side", "zip"]),
)
def test_merge_equals_the_cogroup_composition(contexts, executor, spill, data, name, placement):
    """On the cluster the merge processors ship to the workers (⊕ by value
    when it is not importable there); outputs stay resident and are compared
    on read."""
    function, values = OPERATIONS[name]
    left = data.draw(side(values), label="left")
    right = data.draw(side(values), label="right")
    context = contexts[executor, spill]
    left_ds, right_ds = inputs(context, left, right, placement)
    expected = reference(left_ds, right_ds, function)
    actual = merged(left_ds, right_ds, function)
    assert actual.is_materialized == (placement == "zip")
    assert snapshot(actual) == snapshot(expected)
    assert actual.partitioner == expected.partitioner
    assert actual.partitioner == HashPartitioner(NUM_PARTITIONS)
    assert context.metrics.cluster_fallbacks == 0


# ---------------------------------------------------------------------------
# ⊕ raising: the documented allowance
# ---------------------------------------------------------------------------


def first_errors(left, right):
    """Per key, the message of the first ``fragile`` call that raises in the
    reference's per-key order (fold the right values, then the last left)."""
    groups = {}
    for key, value in left:
        groups.setdefault(key, ([], []))[0].append(value)
    for key, value in right:
        groups.setdefault(key, ([], []))[1].append(value)
    errors = {}
    for key, (left_values, right_values) in groups.items():
        try:
            if right_values:
                folded = right_values[0]
                for value in right_values[1:]:
                    folded = fragile(folded, value)
                if left_values:
                    fragile(left_values[-1], folded)
        except ValueError as error:
            errors[key] = str(error)
    return errors


def raised(run):
    """The user error a forced dataset raises (unwrapping executor errors)."""
    try:
        run().materialize()
    except Exception as error:  # noqa: BLE001 - the root cause is compared
        root = error.__cause__ if error.__cause__ is not None else error
        return type(root), str(root)
    return None


@pytest.mark.parametrize("executor", EXECUTOR_MODES)
@settings(max_examples=25, deadline=None)
@given(
    left=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["p", "q", "r!"])), max_size=8),
    right=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["x", "y", "z!"])), max_size=8),
    placement=st.sampled_from(["shuffle", "zip"]),
)
def test_a_raising_combine_fails_like_the_reference(contexts, executor, left, right, placement):
    context = contexts[executor, None]
    left_ds, right_ds = inputs(context, left, right, placement)
    expected = raised(lambda: reference(left_ds, right_ds, fragile))
    actual = raised(lambda: merged(left_ds, right_ds, fragile))
    failing = first_errors(left, right)
    if not failing:
        assert expected is None and actual is None
        return
    assert expected is not None and actual is not None
    assert actual[0] is expected[0] is ValueError
    assert actual[1] in failing.values()
    if len(failing) == 1:
        assert actual == expected


def test_which_key_fails_first_may_differ():
    """Two failing keys: the reference folds key 0's right values first (key
    order), the one-pass merge folds in stream order and meets key 1's first."""
    left = [(0, "p"), (1, "q")]
    right = [(1, "z!"), (1, "y"), (0, "x"), (0, "z!")]
    with DistributedContext(num_partitions=1) as context:
        left_ds, right_ds = context.parallelize(left), context.parallelize(right)
        assert raised(lambda: reference(left_ds, right_ds, fragile)) == (ValueError, "x+z!")
        assert raised(lambda: merged(left_ds, right_ds, fragile)) == (ValueError, "z!+y")


# ---------------------------------------------------------------------------
# Structure: one reduce pass, no flat_map stage
# ---------------------------------------------------------------------------


class TestOnePass:
    def _waves(self, context, monkeypatch):
        calls = []
        run_tasks = context.run_tasks

        def counted(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs.get("task_spec"))
            return run_tasks(*args, **kwargs)

        monkeypatch.setattr(context, "run_tasks", counted)
        return calls

    def test_shuffle_merge_is_map_waves_plus_one_reduce_wave(self, monkeypatch):
        with DistributedContext(num_partitions=4) as context:
            left = context.parallelize([(i % 7, i) for i in range(30)])
            right = context.parallelize([(i % 5, -i) for i in range(20)])
            calls = self._waves(context, monkeypatch)
            result = left.merge_with(right, operator.add)
            assert result.pending_stages == ()
            assert "flat_map" not in result.explain()
            result.materialize()
            assert len(calls) == 3, "two map-side waves and the merging reduce wave"
            assert context.metrics.fused_stages == 0
            assert result.partitioner == HashPartitioner(4)

    def test_zip_merge_is_one_wave(self, monkeypatch):
        with DistributedContext(num_partitions=4) as context:
            partitioner = HashPartitioner(4)
            left = context.parallelize([(i % 7, i) for i in range(30)]).partition_by(partitioner)
            right = context.parallelize([(i % 5, -i) for i in range(20)]).partition_by(partitioner)
            calls = self._waves(context, monkeypatch)
            result = left.merge(right)
            assert result.is_materialized
            assert len(calls) == 1
            assert result.partitioner == partitioner
            assert dict(result.collect()) == {**dict(left.collect()), **dict(right.collect())}
