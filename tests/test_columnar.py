"""Differential oracle suite for columnar vectorized execution.

The record-at-a-time path is the correctness oracle: with ``columnar=True``
every Figure 3 workload must produce **bit-identical** outputs under both
executors (in memory and at the harshest spill setting), because batch
kernels either reproduce the record semantics exactly or fall back per
partition -- and only chains that lower completely are batched.  The record
path is the default: without ``columnar=True`` no stage is batched at all.

Kernel-level tests pin down the exactness guards one by one: Python-int
overflow, bool arithmetic, NaN/negative-zero folds, mixed-type comparisons,
division/modulo corner cases (zero divisors, negative zero, int64 overflow),
grouped collect, the no-numpy list backend and the per-partition
record-path replay with its fallback memo.
"""

from __future__ import annotations

import functools
import math
import pickle

import pytest

from test_executor_equivalence import (
    GENERATED_PROGRAMS,
    SIZES,
    SPILLING_PROGRAMS,
    TINY_SPILL,
    _Outputs,
    assert_folding_consumer,
    context_on,
    interpreter_outputs,
    workload,
)
from test_soundness_programs import assert_same_outputs

from repro import operators
from repro.algebra import vectorize
from repro.algebra.explain import explain_metrics
from repro.api import config as config_mod
from repro.api.config import EXECUTOR_MODES
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.functions import FunctionRegistry
from repro.programs import PROGRAMS, get_program, table2_program_names
from repro.runtime import columnar
from repro.runtime import stage as stage_mod
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner
from repro.workloads.generators import workload_for_program

#: The spill settings of the sweep: in memory, and 1 byte (every bucket spills).
SPILL_SETTINGS = (None, 1)


def run_columnar(
    name: str, mode: str = "sequential", spill_threshold_bytes: int | None = None
) -> tuple:
    """One Figure 3 workload under ``columnar=True``; outputs + metric pair."""
    spec = get_program(name)
    with context_on(
        mode,
        num_partitions=4,
        spill_threshold_bytes=spill_threshold_bytes,
        columnar=True,
    ) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**workload(name))
        outputs = translated_outputs(name, result)
        metrics = context.metrics
        if name in GENERATED_PROGRAMS:
            # Only fully lowerable chains batch; these programs have chains
            # that are not, which must run as generated segments.
            assert metrics.generated_segments > 0, f"{name}/{mode}: nothing generated"
            assert_folding_consumer(name, result.trace)
        return outputs, (metrics.vectorized_stages, metrics.columnar_fallbacks)


@functools.lru_cache(maxsize=None)
def record_path_outputs(name: str) -> dict:
    """The record-at-a-time oracle (``columnar=False``), once per program."""
    spec = get_program(name)
    with DistributedContext(num_partitions=4, columnar=False) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**workload(name))
        assert context.metrics.vectorized_stages == 0, "columnar=False must not vectorize"
        return translated_outputs(name, result)


@pytest.mark.parametrize("spill", SPILL_SETTINGS, ids=["in-memory", "spill1"])
@pytest.mark.parametrize("mode", EXECUTOR_MODES)
@pytest.mark.parametrize("name", table2_program_names())
def test_every_figure3_workload_is_bit_identical_under_columnar(name, mode, spill):
    """columnar=True == columnar=False == interpreter, per program, executor
    and spill setting."""
    outputs, _counters = run_columnar(name, mode, spill_threshold_bytes=spill)
    assert outputs == record_path_outputs(name), (
        f"{name} under {mode!r}/spill={spill!r}: columnar results differ from the record path"
    )
    assert_same_outputs(get_program(name), _Outputs(outputs), interpreter_outputs(name))


@pytest.mark.parametrize("name", SPILLING_PROGRAMS)
def test_figure3_wide_workloads_spilled_columnar_match_record_path(name):
    outputs, _counters = run_columnar(name, spill_threshold_bytes=TINY_SPILL)
    assert outputs == record_path_outputs(name)


def test_numeric_workloads_actually_vectorize():
    """The batch path must engage (not silently fall back everywhere) on the
    programs whose whole narrow chain lowers to kernels."""
    for name in ("conditional_sum", "word_count"):
        _outputs, (vectorized, _fallbacks) = run_columnar(name)
        assert vectorized > 0, f"{name}: no stage took the batch path"


def test_columnar_metrics_identical_across_executors():
    """Vectorization counters are plan properties, not executor properties."""
    per_mode = {mode: run_columnar("conditional_sum", mode)[1] for mode in EXECUTOR_MODES}
    assert per_mode["sequential"] == per_mode["cluster"]
    assert per_mode["sequential"][0] > 0


# ---------------------------------------------------------------------------
# ColumnarPartition: construction, reassembly, pickling
# ---------------------------------------------------------------------------


class TestColumnarPartition:
    def test_round_trips_scalars_pairs_and_dicts(self):
        for records in (
            [1, 2, 3],
            [1.5, -0.25, 3.0],
            ["a", "bb", "ccc"],
            [True, False, True],
            [(0, 1.0), (1, 2.0)],
            [((0, 1), 2.5), ((3, 4), -1.5)],
            [{"i": 1, "v": 2.0}, {"i": 3, "v": 4.0}],
        ):
            part = columnar.ColumnarPartition.from_records(records)
            assert part is not None, records
            out = part.to_records()
            assert out == records
            assert [type(a) for a in out] == [type(b) for b in records]

    def test_rejects_ragged_mixed_and_empty_input(self):
        assert columnar.ColumnarPartition.from_records([]) is None
        assert columnar.ColumnarPartition.from_records([(1, 2), (1, 2, 3)]) is None
        assert columnar.ColumnarPartition.from_records([1, "x"]) is None
        assert columnar.ColumnarPartition.from_records([1, 2.0]) is None
        assert columnar.ColumnarPartition.from_records([None, None]) is None
        assert columnar.ColumnarPartition.from_records([[1], [2]]) is None

    def test_rejects_ints_beyond_int64(self):
        assert columnar.ColumnarPartition.from_records([2**70, 1]) is None

    def test_pickles_across_the_process_boundary(self):
        records = [(i, float(i) / 2) for i in range(10)]
        part = columnar.ColumnarPartition.from_records(records)
        clone = pickle.loads(pickle.dumps(part))
        assert clone.to_records() == records

    def test_compress_keeps_python_types(self):
        part = columnar.ColumnarPartition.from_records([(i, i * 2) for i in range(6)])
        if columnar.np is not None:
            mask = columnar.np.array([True, False] * 3)
        else:
            mask = [True, False] * 3
        kept = part.compress(mask).to_records()
        assert kept == [(0, 0), (2, 4), (4, 8)]
        assert all(type(k) is int and type(v) is int for k, v in kept)


# ---------------------------------------------------------------------------
# Batch kernels vs. the record path, per stage kind
# ---------------------------------------------------------------------------


def _run_both(chain, records):
    """One fused chain under both paths; they must agree exactly."""
    record_path = stage_mod.compose(list(chain))(list(records), 0)
    batch_path = stage_mod.compose(list(chain), columnar=True)(list(records), 0)
    assert batch_path == record_path
    assert [type(r) for r in batch_path] == [type(r) for r in record_path]
    return batch_path


def _pair_scope():
    return columnar.ScalarScope({"lo": 2, "scale": 10})


def _filter_stage():
    predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Ref("lo"))
    return stage_mod.NarrowStage(
        stage_mod.FILTER,
        columnar.VectorizedFilter(predicate, _pair_scope(), oracle=lambda p: p[0] > 2),
    )


class TestBatchKernels:
    def test_map_filter_map_values_chain(self):
        out = columnar.OutTuple(
            [
                columnar.Col((0,)),
                columnar.BinOp("*", columnar.Col((1,)), columnar.Ref("scale")),
            ]
        )
        chain = [
            _filter_stage(),
            stage_mod.NarrowStage(
                stage_mod.MAP,
                columnar.VectorizedMap(
                    out, _pair_scope(), oracle=lambda p: (p[0], p[1] * 10)
                ),
            ),
            stage_mod.NarrowStage(
                stage_mod.MAP_VALUES,
                columnar.VectorizedMapValues(
                    columnar.BinOp("-", columnar.Col(()), columnar.Lit(1)),
                    columnar.ScalarScope(),
                    oracle=lambda v: v - 1,
                ),
            ),
        ]
        records = [(i, i + 1) for i in range(20)]
        result = _run_both(chain, records)
        assert result == [(i, (i + 1) * 10 - 1) for i in range(20) if i > 2]

    def test_bind_reroots_elements_into_rows(self):
        bind = columnar.VectorizedBind(
            ("tuple", (("var", "i"), ("var", "v"))),
            oracle=lambda pair: {"i": pair[0], "v": pair[1]},
        )
        chain = [stage_mod.NarrowStage(stage_mod.MAP, bind)]
        records = [(i, float(i)) for i in range(8)]
        assert _run_both(chain, records) == [{"i": i, "v": float(i)} for i in range(8)]

    def test_vectorized_functions_delegate_to_the_oracle_record_by_record(self):
        calls = []

        def oracle(p):
            calls.append(p)
            return p[0] > 2

        predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Lit(2))
        fn = columnar.VectorizedFilter(predicate, columnar.ScalarScope(), oracle=oracle)
        assert fn((5, "x")) is True
        assert calls == [(5, "x")], "__call__ must be the original closure, verbatim"

    def test_undefined_ref_falls_back_to_records(self):
        predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Ref("missing"))
        stage = stage_mod.NarrowStage(
            stage_mod.FILTER,
            columnar.VectorizedFilter(predicate, columnar.ScalarScope(), oracle=lambda p: True),
        )
        records = [(i, i) for i in range(5)]
        # Batch raises inside the kernel -> per-partition replay via the oracle.
        assert stage_mod.compose([stage], columnar=True)(records, 0) == records


# ---------------------------------------------------------------------------
# Exactness guards: every divergence hazard must take the record path
# ---------------------------------------------------------------------------


class TestExactnessGuards:
    def _both(self, op, left_values, right):
        """batch_binop vs. per-record apply_binary over a real column."""
        part = columnar.ColumnarPartition.from_records(list(left_values))
        assert part is not None
        left = part.leaf(())
        return left, right

    def test_large_int_arithmetic_falls_back(self):
        big = 2**40
        left, right = self._both("+", [big, big + 1], 1)
        with pytest.raises(columnar.ColumnarFallback):
            columnar.batch_binop("+", left, right, 2)

    def test_bool_arithmetic_falls_back(self):
        left, right = self._both("+", [True, False], 1)
        with pytest.raises(columnar.ColumnarFallback):
            columnar.batch_binop("+", left, right, 2)

    def test_mixed_str_number_comparison_falls_back(self):
        left, right = self._both("<", ["a", "b"], 3)
        with pytest.raises(columnar.ColumnarFallback):
            columnar.batch_binop("<", left, right, 2)

    def test_small_int_arithmetic_matches_python(self):
        left, right = self._both("*", [3, -4, 0], 7)
        result = columnar.batch_binop("*", left, right, 3)
        assert columnar._column_list(result) == [21, -28, 0]


# ---------------------------------------------------------------------------
# Division and modulo: exact kernels with record-path error parity
# ---------------------------------------------------------------------------


def _apply_div(op, divisor, value):
    """Module-level oracle (picklable for the process executor)."""
    return operators.apply_binary(op, value, divisor)


def _div_map(op, divisor):
    """``(k, v) -> (k, v <op> divisor)`` as a vectorized pair map."""
    out = columnar.OutTuple(
        [columnar.Col((0,)), columnar.BinOp(op, columnar.Col((1,)), columnar.Lit(divisor))]
    )
    return columnar.VectorizedMap(
        out, columnar.ScalarScope(), oracle=functools.partial(_pair_div, op, divisor)
    )


def _pair_div(op, divisor, pair):
    return (pair[0], operators.apply_binary(op, pair[1], divisor))


#: (op, values, divisor): int/int exact and inexact, floats, negative zero
#: dividends, ints beyond the 2**31 double-rounding guard, bool operands.
DIV_BATTERY = [
    ("/", [10, -9, 8, 7, 0], 2),
    ("/", [10, -10, 20, 0], 5),
    ("%", [10, -9, 8, 7, 0], 3),
    ("%", [10, -9, 7], -3),
    ("/", [1.5, -2.25, 0.0, -0.0], 0.25),
    ("%", [1.5, -2.25, -0.0, 7.5], 0.25),
    ("/", [2**40 + 1, -(2**40), 6], 3),
    ("%", [2**40 + 1, -(2**40)], 7),
    ("/", [True, False], True),
    ("%", [True, False], True),
]


class TestDivisionKernels:
    def test_division_and_modulo_are_vectorized(self):
        assert "/" in columnar.SUPPORTED_BINOPS
        assert "%" in columnar.SUPPORTED_BINOPS

    @pytest.mark.parametrize("op,values,divisor", DIV_BATTERY)
    def test_batch_matches_apply_binary_exactly(self, op, values, divisor):
        chain = [stage_mod.NarrowStage(stage_mod.MAP, _div_map(op, divisor))]
        records = [(i, value) for i, value in enumerate(values)]
        result = _run_both(chain, records)
        expected = [(i, operators.apply_binary(op, value, divisor)) for i, value in enumerate(values)]
        assert result == expected
        # Exactness includes the sign of zero (e.g. ``-0.0 % 0.25 == 0.0``).
        for (_, got), (_, want) in zip(result, expected, strict=True):
            if isinstance(want, float):
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    @pytest.mark.parametrize("op,values,divisor", DIV_BATTERY)
    def test_battery_through_every_executor_at_spill_one(self, op, values, divisor, mode):
        """The full pipeline: map + shuffle at spill threshold 1, per executor."""

        def run(columnar_mode):
            with context_on(
                mode, num_partitions=3, spill_threshold_bytes=1, columnar=columnar_mode
            ) as ctx:
                pairs = [(i % 2, value) for i, value in enumerate(values)]
                data = ctx.parallelize(pairs).map(_div_map(op, divisor))
                return data.collect(), data.reduce_by_key(_sum_combine).collect()

        assert run(True) == run(False)

    @pytest.mark.parametrize(
        "op,values,divisor",
        [
            ("/", [1, 2], 0),
            ("%", [1, 2], 0),
            ("/", [1.0], 0.0),
            ("%", [1.0], 0.0),
            ("/", [1.0, -1.0], -0.0),
        ],
    )
    def test_zero_divisor_raises_the_canonical_error_on_both_paths(self, op, values, divisor):
        """numpy would emit inf/nan; the batch path must replay and raise."""
        chain = [stage_mod.NarrowStage(stage_mod.MAP, _div_map(op, divisor))]
        records = [(i, value) for i, value in enumerate(values)]
        with pytest.raises(ZeroDivisionError):
            stage_mod.compose(list(chain))(list(records), 0)
        with pytest.raises(ZeroDivisionError):
            stage_mod.compose(list(chain), columnar=True)(list(records), 0)

    def test_exact_int_division_returns_ints(self):
        chain = [stage_mod.NarrowStage(stage_mod.MAP, _div_map("/", 4))]
        records = [(0, 8), (1, -12), (2, 0)]
        result = stage_mod.compose(list(chain), columnar=True)(list(records), 0)
        assert result == [(0, 2), (1, -3), (2, 0)]
        assert all(type(v) is int for _, v in result)

    def test_mixed_exact_inexact_division_keeps_per_element_types(self):
        # ``8 / 4`` is an exact int, ``9 / 4`` a float; no single dtype
        # represents that, so the kernel must replay through the record path.
        chain = [stage_mod.NarrowStage(stage_mod.MAP, _div_map("/", 4))]
        records = [(0, 8), (1, 9)]
        result = stage_mod.compose(list(chain), columnar=True)(list(records), 0)
        assert result == [(0, 2), (1, 2.25)]
        assert type(result[0][1]) is int and type(result[1][1]) is float


def _sum_combine(a, b):
    return a + b


def _min_combine(a, b):
    return min(a, b)


class TestCombinerKernels:
    def _records(self):
        return [(i % 5, float(i)) for i in range(40)]

    def test_reduce_combiner_matches_record_path(self):
        for op, fn in (("+", _sum_combine), ("min", _min_combine)):
            combiner = ("reduce", columnar.VectorizedCombine(op, fn))
            records = self._records()
            batch = stage_mod.apply_combiner(combiner, list(records), columnar=True)
            record = stage_mod.apply_combiner(combiner, list(records), columnar=False)
            assert batch == record, op

    def test_combiner_preserves_first_seen_key_order(self):
        records = [(3, 1.0), (1, 2.0), (3, 3.0), (2, 4.0), (1, 5.0)]
        combiner = ("reduce", columnar.VectorizedCombine("+", _sum_combine))
        batch = stage_mod.apply_combiner(combiner, list(records), columnar=True)
        assert [k for k, _v in batch] == [3, 1, 2]

    def test_nan_and_negative_zero_min_folds_take_the_record_path(self):
        nan_records = [(0, float("nan")), (0, 1.0)]
        zero_records = [(0, -0.0), (0, 0.0)]
        combiner = ("reduce", columnar.VectorizedCombine("min", _min_combine))
        for records in (nan_records, zero_records):
            batch = stage_mod.apply_combiner(combiner, list(records), columnar=True)
            record = stage_mod.apply_combiner(combiner, list(records), columnar=False)
            assert len(batch) == len(record) == 1
            b, r = batch[0][1], record[0][1]
            assert (math.isnan(b) and math.isnan(r)) or (
                b == r and math.copysign(1.0, b) == math.copysign(1.0, r)
            )

    def test_integer_product_fold_matches_exactly(self):
        # "*" folds are never vectorized for ints (products overflow fast).
        records = [(0, 2**20), (0, 2**20), (0, 2**25)]
        combiner = ("reduce", columnar.VectorizedCombine("*", lambda a, b: a * b))
        batch = stage_mod.apply_combiner(combiner, list(records), columnar=True)
        assert batch == [(0, 2**65)]

    def test_unhashable_keys_take_the_record_path(self):
        records = [([0], 1.0), ([0], 2.0)]
        combiner = ("reduce", columnar.VectorizedCombine("+", _sum_combine))
        with pytest.raises(TypeError):
            # The record path itself cannot group unhashable keys either;
            # what matters is that columnar=True raises the *same* error
            # instead of silently misgrouping.
            stage_mod.apply_combiner(combiner, list(records), columnar=False)
        with pytest.raises(TypeError):
            stage_mod.apply_combiner(combiner, list(records), columnar=True)


# ---------------------------------------------------------------------------
# Grouped collect: the ("group",) adaptive combiner's batch kernel
# ---------------------------------------------------------------------------


class TestGroupedCollect:
    def test_matches_record_path_grouping_exactly(self):
        records = [(3, 1.0), (1, 2.0), (3, 3.0), (2, 4.0), (1, 5.0), (3, 6.0)]
        batch = stage_mod.apply_combiner(("group",), list(records), columnar=True)
        record = stage_mod.apply_combiner(("group",), list(records), columnar=False)
        assert batch == record
        assert [key for key, _ in batch] == [3, 1, 2], "first-seen key order"
        assert batch[0][1] == [1.0, 3.0, 6.0], "values keep record order"

    def test_engages_the_kernel_for_int_keys(self):
        if columnar.np is None:
            pytest.skip("grouped collect requires numpy")
        part = columnar.ColumnarPartition.from_records([(1, "a"), (2, "b"), (1, "c")])
        assert columnar._grouped_collect(part) == [(1, ["a", "c"]), (2, ["b"])]

    def test_non_int_keys_fall_back_to_the_record_path(self):
        records = [(1.5, "a"), (2.5, "b"), (1.5, "c")]
        batch = stage_mod.apply_combiner(("group",), list(records), columnar=True)
        assert batch == [(1.5, ["a", "c"]), (2.5, ["b"])]

    def test_group_combiner_is_vectorizable(self):
        assert columnar.combiner_vectorizable(("group",))


# ---------------------------------------------------------------------------
# Scalar-call lowering: abs/min/max as batch kernels
# ---------------------------------------------------------------------------


class TestScalarCalls:
    def _lower(self, term, functions):
        return vectorize.lower_term(term, ("x", "y"), functions)

    def test_registered_builtins_lower_to_call_exprs(self):
        functions = FunctionRegistry()
        term = ir.CCall("abs", (ir.CVar("x"),))
        lowered = self._lower(term, functions)
        assert isinstance(lowered, columnar.Call)
        assert lowered.function == "abs"

    def test_shadowed_builtins_do_not_lower(self):
        functions = FunctionRegistry()
        functions.register("abs", lambda x: -x)
        assert self._lower(ir.CCall("abs", (ir.CVar("x"),)), functions) is None

    def test_unknown_functions_and_arities_do_not_lower(self):
        functions = FunctionRegistry()
        assert self._lower(ir.CCall("sqrt", (ir.CVar("x"),)), functions) is None
        assert self._lower(ir.CCall("abs", (ir.CVar("x"), ir.CVar("y"))), functions) is None
        # 1-arg min/max iterate a bag -- never a scalar kernel.
        assert self._lower(ir.CCall("min", (ir.CVar("x"),)), functions) is None
        assert self._lower(ir.CCall("min", (ir.CVar("x"), ir.CVar("y"))), functions) is not None

    def test_call_kernels_match_the_builtins(self):
        expr = columnar.Call(
            "min",
            [columnar.Call("abs", [columnar.Col((1,))]), columnar.Lit(3)],
        )
        fn = columnar.VectorizedMap(
            columnar.OutTuple([columnar.Col((0,)), expr]),
            columnar.ScalarScope(),
            oracle=lambda p: (p[0], min(abs(p[1]), 3)),
        )
        chain = [stage_mod.NarrowStage(stage_mod.MAP, fn)]
        records = [(i, v) for i, v in enumerate([-5, -2, 0, 2, 5])]
        assert _run_both(chain, records) == [(0, 3), (1, 2), (2, 0), (3, 2), (4, 3)]


# ---------------------------------------------------------------------------
# columnar=True batches only fully lowerable chains
# ---------------------------------------------------------------------------


def _vector_filter_stage():
    predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Lit(2))
    return stage_mod.NarrowStage(
        stage_mod.FILTER,
        columnar.VectorizedFilter(predicate, columnar.ScalarScope(), oracle=lambda p: p[0] > 2),
    )


def _record_map_stage():
    return stage_mod.NarrowStage(stage_mod.MAP, lambda p: (p[0], p[1] + 1))


def _partition_stage():
    return stage_mod.NarrowStage(stage_mod.PARTITIONS, lambda records: records[::-1])


class TestBatchSelection:
    def test_fully_lowerable_chain_batches(self):
        assert stage_mod.batch_length((_vector_filter_stage(),)) == 1

    def test_partially_lowerable_chain_stays_on_records(self):
        chain = (_vector_filter_stage(), _record_map_stage())
        assert stage_mod.batch_length(chain) == 0
        records = [(i, i) for i in range(6)]
        batch = stage_mod.compose(list(chain), columnar=True)(list(records), 0)
        record = stage_mod.compose(list(chain), columnar=False)(list(records), 0)
        assert batch == record

    def test_pure_record_chain_never_batches(self):
        assert stage_mod.batch_length((_record_map_stage(),)) == 0

    def test_trailing_whole_partition_stages_take_the_batch_output(self):
        chain = (_vector_filter_stage(), _partition_stage())
        assert stage_mod.batch_length(chain) == 1
        records = [(i, i) for i in range(6)]
        assert _run_both(chain, records) == [(i, i) for i in range(5, 2, -1)]
        # A kernel after a whole-partition stage leaves the chain unbatched.
        assert stage_mod.batch_length((_partition_stage(), _vector_filter_stage())) == 0

    def test_unlowerable_chains_count_entirely_as_fallbacks(self):
        chain = (_vector_filter_stage(), _record_map_stage())
        assert stage_mod.vectorization_counts(chain) == (0, 2)
        assert stage_mod.vectorization_counts(chain[:1]) == (1, 0)

    def test_report_names_kernels_and_reasons(self):
        assert stage_mod.vectorization_report((_vector_filter_stage(),)) == [
            ("filter", "VectorizedFilter", "batch"),
        ]
        # The mixed chain disables the lowerable filter; the map's reason
        # stays the more precise "no batch kernel".
        chain = (_vector_filter_stage(), _record_map_stage())
        assert stage_mod.vectorization_report(chain) == [
            ("filter", None, "chain not fully lowerable"),
            ("map", None, "no batch kernel"),
        ]

    def test_a_kernel_chain_batches_before_its_shuffle_write(self):
        def run(columnar_mode):
            with DistributedContext(num_partitions=3, columnar=columnar_mode) as ctx:
                pairs = ctx.parallelize([(i % 5, i) for i in range(40)])
                out = pairs.filter(_vector_filter_stage().function).reduce_by_key(_sum_combine)
                return sorted(out.collect()), ctx.metrics.vectorized_stages

        batched, vectorized = run(True)
        assert (batched, 0) == run(False)
        assert vectorized == 1, "the filter batches; the write runs on its output"

    def test_config_and_context_accept_only_booleans(self):
        for value in ("sometimes", 1, None):
            with pytest.raises(ValueError, match="True or False"):
                config_mod.DiabloConfig(columnar=value)
        for value in ("sometimes", 1):
            with pytest.raises(ValueError, match="True or False"):
                DistributedContext(num_partitions=2, columnar=value)

    def test_env_fallback_parses_boolean_spellings(self, monkeypatch):
        for raw, expected in (
            ("1", True), ("true", True), ("on", True), ("yes", True),
            ("0", False), ("off", False), ("no", False), ("", False),
        ):
            monkeypatch.setenv("DIABLO_COLUMNAR", raw)
            with DistributedContext(num_partitions=2) as ctx:
                assert ctx.columnar is expected, raw
        monkeypatch.setenv("DIABLO_COLUMNAR", "sometimes")
        with pytest.raises(ValueError, match="True/False"):
            DistributedContext(num_partitions=2)


# ---------------------------------------------------------------------------
# Batch-runtime bookkeeping: fallback memo, resident partitions, buckets
# ---------------------------------------------------------------------------


def _failing_batch_stage():
    """A vectorizable-looking stage whose kernel always falls back."""
    predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Ref("missing"))
    return stage_mod.NarrowStage(
        stage_mod.FILTER,
        columnar.VectorizedFilter(predicate, columnar.ScalarScope(), oracle=lambda p: True),
    )


class TestBatchRuntime:
    @pytest.fixture(autouse=True)
    def _clean_runtime_state(self):
        stage_mod._FALLBACK_MEMO.clear()
        stage_mod._RESIDENT.clear()
        stage_mod.consume_batch_stats()
        yield
        stage_mod._FALLBACK_MEMO.clear()
        stage_mod._RESIDENT.clear()
        stage_mod.consume_batch_stats()

    def test_fallbacks_are_memoized_across_partitions(self):
        fn = stage_mod.compose([_failing_batch_stage()], columnar=True)
        records = [(i, i) for i in range(4)]
        assert fn(list(records), 0) == records  # falls back, memoizes
        assert fn(list(records), 1) == records  # skips the conversion attempt
        assert fn(list(records), 2) == records
        stats = stage_mod.consume_batch_stats()
        assert stats["memoized_skips"] == 2

    def test_consume_batch_stats_resets(self):
        fn = stage_mod.compose([_failing_batch_stage()], columnar=True)
        fn([(0, 0)], 0)
        fn([(0, 0)], 1)
        assert stage_mod.consume_batch_stats()["memoized_skips"] == 1
        assert stage_mod.consume_batch_stats()["memoized_skips"] == 0

    def test_consecutive_forces_reuse_the_resident_partition(self):
        first = stage_mod.compose([_vector_filter_stage()], columnar=True)
        second = stage_mod.compose([_vector_filter_stage()], columnar=True)
        out = first([(i, i) for i in range(8)], 0)
        assert stage_mod.consume_batch_stats()["resident_reuses"] == 0
        # Feeding the same list object back skips from_records entirely.
        again = second(out, 0)
        assert stage_mod.consume_batch_stats()["resident_reuses"] == 1
        assert again == [pair for pair in out if pair[0] > 2]

    def test_resident_cache_checks_identity_not_equality(self):
        fn = stage_mod.compose([_vector_filter_stage()], columnar=True)
        out = fn([(i, i) for i in range(8)], 0)
        fn(list(out), 0)  # an equal but distinct list must not hit the cache
        assert stage_mod.consume_batch_stats()["resident_reuses"] == 0

    def test_vector_buckets_match_the_partitioner(self):
        if columnar.np is None:
            pytest.skip("vectorized bucketing requires numpy")
        partitioner = HashPartitioner(4)
        fn = stage_mod.compose([_vector_filter_stage()], columnar=True)
        records = fn([(i - 3, float(i)) for i in range(40)], 0)
        buckets = stage_mod._vector_buckets(partitioner, False, records, True)
        assert buckets is not None
        assert buckets == [partitioner.partition(key) for key, _ in records]
        assert stage_mod.consume_batch_stats()["vector_bucket_tasks"] == 1

    def test_vector_buckets_refuse_hash_hostile_keys(self):
        if columnar.np is None:
            pytest.skip("vectorized bucketing requires numpy")
        partitioner = HashPartitioner(4)
        keep_all = stage_mod.NarrowStage(
            stage_mod.FILTER,
            columnar.VectorizedFilter(
                columnar.BinOp(">", columnar.Col((0,)), columnar.Lit(-100)),
                columnar.ScalarScope(),
                oracle=lambda p: p[0] > -100,
            ),
        )
        fn = stage_mod.compose([keep_all], columnar=True)
        # hash(-1) == -2: a -1 key must disable the vectorized path outright.
        records = fn([(i, float(i)) for i in range(3, 10)] + [(-1, 0.0)], 0)
        assert stage_mod._vector_buckets(partitioner, False, records, True) is None

    def test_vector_buckets_require_residency_and_columnar(self):
        partitioner = HashPartitioner(4)
        records = [(i, float(i)) for i in range(10)]
        assert stage_mod._vector_buckets(partitioner, False, records, True) is None
        fn = stage_mod.compose([_vector_filter_stage()], columnar=True)
        out = fn(records, 0)
        assert stage_mod._vector_buckets(partitioner, False, out, False) is None

    def test_runtime_counters_reach_metrics_and_explain(self):
        """pagerank's map-side shuffles bucket vectorially end to end."""
        if columnar.np is None:
            pytest.skip("vectorized bucketing requires numpy")
        spec = get_program("pagerank")
        with DistributedContext(num_partitions=4, columnar=True) as ctx:
            diablo_for(spec, ctx).compile(spec.source).run(**workload("pagerank"))
            assert ctx.metrics.columnar_vector_bucket_tasks > 0
            snapshot = ctx.metrics.snapshot()
            assert snapshot["columnar_vector_bucket_tasks"] > 0
            rendered = "\n".join(explain_metrics(ctx.metrics))
            assert "vectorized bucket task(s)" in rendered


# ---------------------------------------------------------------------------
# The list backend (no numpy) and the plumbing
# ---------------------------------------------------------------------------


class TestListBackend:
    def test_kernels_work_without_numpy(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        out = columnar.OutTuple(
            [columnar.Col((0,)), columnar.BinOp("+", columnar.Col((1,)), columnar.Lit(1))]
        )
        chain = [
            _filter_stage(),
            stage_mod.NarrowStage(
                stage_mod.MAP,
                columnar.VectorizedMap(out, _pair_scope(), oracle=lambda p: (p[0], p[1] + 1)),
            ),
        ]
        records = [(i, i * 2) for i in range(12)]
        assert _run_both(chain, records) == [(i, i * 2 + 1) for i in range(12) if i > 2]

    def test_combine_requires_numpy_and_falls_back_cleanly(self, monkeypatch):
        monkeypatch.setattr(columnar, "np", None)
        combiner = ("reduce", columnar.VectorizedCombine("+", _sum_combine))
        records = [(i % 3, float(i)) for i in range(12)]
        batch = stage_mod.apply_combiner(combiner, list(records), columnar=True)
        assert batch == stage_mod.apply_combiner(combiner, list(records), columnar=False)


class TestPlumbing:
    def test_config_knob_reaches_the_context_and_runtime_key(self):
        with config_mod.options(columnar=True) as cfg:
            assert cfg.columnar is True
            assert True in {cfg.columnar} and cfg.runtime_key()[-1] is True
            ctx = cfg.make_context()
            try:
                assert ctx.columnar is True
            finally:
                ctx.close()
        assert config_mod.current_config().columnar is False, "the record path is the default"

    def test_counters_surface_in_snapshot_and_explain(self):
        _outputs, (vectorized, fallbacks) = run_columnar("conditional_sum")
        assert vectorized > 0
        with DistributedContext(num_partitions=4, columnar=True) as ctx:
            spec = get_program("conditional_sum")
            diablo_for(spec, ctx).compile(spec.source).run(**workload("conditional_sum"))
            snapshot = ctx.metrics.snapshot()
            assert snapshot["vectorized_stages"] == vectorized
            assert snapshot["columnar_fallbacks"] == fallbacks
            rendered = "\n".join(explain_metrics(ctx.metrics))
            assert f"vectorized stages: {vectorized}" in rendered

    def test_dataset_explain_shows_per_chain_vectorization_notes(self):
        with DistributedContext(num_partitions=2, columnar=True) as ctx:
            data = ctx.parallelize([(i, i * 3) for i in range(20)]).filter(
                columnar.VectorizedFilter(
                    columnar.BinOp("<", columnar.Col((1,)), columnar.Lit(100)),
                    columnar.ScalarScope(),
                    oracle=lambda p: p[1] < 100,
                )
            )
            assert "vectorized: filter: VectorizedFilter" in data.explain(), "pending plan"
            data.collect()
            assert "vectorized: filter: VectorizedFilter" in data.explain(), "materialized"

    def test_dataset_explain_names_the_fallback_reason(self):
        with DistributedContext(num_partitions=2, columnar=True) as ctx:
            # A plain closure next to a vectorized stage keeps the whole
            # chain on records and the note says why.
            data = (
                ctx.parallelize([(i, i * 3) for i in range(20)])
                .filter(
                    columnar.VectorizedFilter(
                        columnar.BinOp("<", columnar.Col((1,)), columnar.Lit(100)),
                        columnar.ScalarScope(),
                        oracle=lambda p: p[1] < 100,
                    )
                )
                .map(lambda p: (p[0], p[1] + 1))
            )
            data.collect()
            rendered = data.explain()
            assert "record path (chain not fully lowerable)" in rendered
            assert "record path (no batch kernel)" in rendered

    def test_columnar_off_keeps_counters_at_zero(self):
        with DistributedContext(num_partitions=4, columnar=False) as ctx:
            ctx.parallelize([(i % 3, i) for i in range(30)]).reduce_by_key(_sum_combine).collect()
            assert ctx.metrics.vectorized_stages == 0
            assert ctx.metrics.columnar_fallbacks == 0


# ---------------------------------------------------------------------------
# The default engine: the record path, everywhere
# ---------------------------------------------------------------------------

#: Small inputs for all 18 programs: the Figure 3 sweep's sizes plus the rest.
ALL_PROGRAM_SIZES = {
    **SIZES,
    "average": 300,
    "count": 300,
    "sum": 300,
    "conditional_count": 300,
    "equal_frequency": 300,
    "pca": 40,
}


class TestDefaultEngine:
    """Without ``columnar=True`` no stage is batched and no partition is
    converted to columns, whichever way the context is made."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        monkeypatch.delenv("DIABLO_COLUMNAR", raising=False)
        calls = []
        original = columnar.ColumnarPartition.from_records.__func__

        def counted(cls, records):
            calls.append(len(records))
            return original(cls, records)

        monkeypatch.setattr(columnar.ColumnarPartition, "from_records", classmethod(counted))
        return calls

    @pytest.mark.parametrize(
        "make_context",
        [lambda: config_mod.DiabloConfig().make_context(), DistributedContext],
        ids=["config", "raw-context"],
    )
    def test_every_program_runs_on_the_record_path_by_default(self, make_context, conversions):
        with make_context() as ctx:
            assert ctx.columnar is False
            for name in PROGRAMS:
                spec = get_program(name)
                inputs = workload_for_program(name, ALL_PROGRAM_SIZES[name])
                result = diablo_for(spec, ctx).compile(spec.source).run(**inputs)
                assert translated_outputs(name, result), name
            assert ctx.metrics.vectorized_stages == ctx.metrics.columnar_fallbacks == 0
        assert conversions == [], "a default run converted records to columns"

    def test_the_env_flag_sets_only_a_raw_contexts_default(self, monkeypatch):
        monkeypatch.setenv("DIABLO_COLUMNAR", "1")
        with DistributedContext() as raw, config_mod.DiabloConfig().make_context() as configured:
            assert raw.columnar is True
            assert configured.columnar is False, "DiabloConfig's default is explicit"

    def test_auto_is_rejected_by_the_config_the_context_and_the_env(self, monkeypatch):
        with pytest.raises(ValueError, match="True or False"):
            config_mod.DiabloConfig(columnar="auto")
        with pytest.raises(ValueError, match="True or False"):
            DistributedContext(columnar="auto")
        monkeypatch.setenv("DIABLO_COLUMNAR", "auto")
        with pytest.raises(ValueError, match="True/False"):
            DistributedContext()
