"""List inputs as positional sources: the position is a loop variable.

``DistributedContext.indexed`` keeps a list as partitions of its plain
elements plus one in-task positions stage.  A generated loop that scans the
source peels that stage off and counts the position from the partition
offset, or not at all when nothing reads it; every other consumer (a join
key, an output, ``collect``, a shipped task) gets the pairs from the stage.

The reference for every case is the same program over the ``(position,
element)`` pairs built on the driver -- what a list input used to become --
and, for the programs, the sequential interpreter.  Results must be
bit-identical to the first and equal to the second on the sequential and
cluster executors, at 1, 7 and 32 partitions, with every
shuffle spilled or none, with adaptive execution on and off.  Element values
are exact binary fractions, so the interpreter's sums are exact too.
"""

from __future__ import annotations

import pytest

from repro import Diablo
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.comprehension import ir
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for
from repro.programs import figure3_program_names, get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.workloads import workload_for_program

#: ``i`` is dead: the loop is ``for rec in records``.
SCAN = """
var s: double = 0.0;
for v in V do
  if (v < 4.0)
    s += v;
"""

#: ``i`` is live: the loop is ``enumerate(records, start)``.
LIVE = """
var C: vector[double] = vector();
for i = 0, n-1 do
  C[i % 3] += V[i];
"""

#: The positions reach a join key: ``V[i]`` and ``W[i]`` meet on ``i``.
JOIN = """
var m: int = 0;
for i = 0, n-1 do
  if (V[i] == W[i])
    m += 1;
"""

#: A key derived from the position.  Over partitions of 150 elements the
#: sampler's stride is 2 and every offset is even, so true positions sample
#: one parity (one hot key) and positions counted through the strided sample
#: would sample both.
PARITY = """
var C: vector[double] = vector();
for i = 0, n-1 do
  C[i % 2] += V[i];
"""

#: Input sizes: empty, fewer elements than 7 or 32 partitions, more.
SIZES = (0, 5, 50)

#: (executor, columnar): the record path on both executors, plus the batch
#: path on the sequential one.
LEGS = (("sequential", False), ("sequential", True), ("cluster", False))

CONFIGS = [
    (executor, columnar, partitions, spill, adaptive)
    for executor, columnar in LEGS
    for partitions in (1, 7, 32)
    for spill in (None, 1)
    for adaptive in (True, False)
]


@pytest.fixture(
    scope="module",
    params=CONFIGS,
    ids=[
        f"{e}{'-columnar' if c else ''}-p{p}-spill{s}-{'adaptive' if a else 'static'}"
        for e, c, p, s, a in CONFIGS
    ],
)
def ctx(request):
    executor, columnar, partitions, spill, adaptive = request.param
    options = {"spill_threshold_bytes": spill, "adaptive": adaptive, "columnar": columnar}
    if executor == "cluster":
        context = ClusterContext(num_partitions=partitions, cluster_workers=2, **options)
    else:
        context = DistributedContext(num_partitions=partitions, **options)
    yield context
    context.shutdown()


def elements(size: int) -> list[float]:
    return [float(k % 11) * 0.5 for k in range(size)]


def pairs(context, value):
    """A list input as the driver-built pairs it stands for."""
    return context.parallelize_raw(list(enumerate(value)))


def run(context, source: str, inputs: dict, as_pairs: bool = False):
    """Run ``source``; with ``as_pairs`` every list input arrives as pairs.
    Returns the result, its outputs (arrays as dicts) and the adaptive
    decisions the run made."""
    if as_pairs:
        inputs = {
            name: pairs(context, value) if isinstance(value, (list, tuple)) else value
            for name, value in inputs.items()
        }
    log = context.metrics.adaptive_log
    before = len(log)
    result = Diablo(context).compile(source).run(**inputs)
    outputs = {
        name: result.array(name) if isinstance(value, Dataset) else value
        for name, value in result.values.items()
        if name not in inputs
    }
    return result, outputs, log[before:]


def interpreted(source: str, inputs: dict) -> dict:
    env = {name: list(value) if isinstance(value, tuple) else value for name, value in inputs.items()}
    return Diablo().interpret(source, env)


def assert_matches_references(context, source: str, inputs: dict) -> dict:
    _, outputs, decisions = run(context, source, inputs)
    _, expected, expected_decisions = run(context, source, inputs, as_pairs=True)
    assert outputs == expected
    assert decisions == expected_decisions
    oracle = interpreted(source, inputs)
    for name, value in outputs.items():
        assert value == oracle[name], name
    return outputs


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", [list, tuple])
def test_a_dead_index_scan(ctx, size, kind):
    outputs = assert_matches_references(ctx, SCAN, {"V": kind(elements(size))})
    assert outputs["s"] == sum(v for v in elements(size) if v < 4.0)


@pytest.mark.parametrize("size", SIZES)
def test_a_live_index_counts_from_the_partition_offset(ctx, size):
    data = elements(size)
    outputs = assert_matches_references(ctx, LIVE, {"V": data, "n": size})
    assert outputs["C"] == {key: sum(data[key::3]) for key in range(min(size, 3))}


@pytest.mark.parametrize("size", SIZES)
def test_positions_as_join_keys(ctx, size):
    inputs = {"V": elements(size), "W": [float(k % 3) * 0.5 for k in range(size)], "n": size}
    outputs = assert_matches_references(ctx, JOIN, inputs)
    assert outputs["m"] == sum(v == w for v, w in zip(inputs["V"], inputs["W"], strict=True))


def test_a_position_derived_key_samples_true_positions(ctx):
    size = 150 * ctx.num_partitions
    _, outputs, decisions = run(ctx, PARITY, {"V": elements(size), "n": size})
    _, expected, expected_decisions = run(ctx, PARITY, {"V": elements(size), "n": size}, as_pairs=True)
    assert (outputs, decisions) == (expected, expected_decisions)
    if ctx.adaptive and ctx.num_partitions > 1:
        kinds = [(entry["kind"], entry["reason"]) for entry in decisions]
        assert kinds == [("salted-reduce", "1 hot key(s) at sampled share(s) 100%")]


@pytest.mark.parametrize("size", SIZES)
def test_an_input_returned_unchanged_and_collected(ctx, size):
    data = elements(size)
    result = Diablo(ctx).compile(SCAN).run(V=data)
    assert result.array("V") == dict(enumerate(data))
    dataset = ctx.indexed(tuple(data))
    assert dataset.count() == size
    assert dataset.is_empty() == (size == 0)
    assert dataset.collect() == list(enumerate(data))
    assert [len(p) for p in dataset.partitions] == [len(p) for p in pairs(ctx, data).partitions]


def test_a_nested_pattern_mismatch_raises_the_same_error(ctx):
    data = [(1.0, 2.0), 3.0, (4.0, 5.0)]
    comp = ir.Comprehension(
        ir.CVar("x"),
        (ir.Generator(ir.PTuple((ir.PVar("i"), ir.PTuple((ir.PVar("x"), ir.PVar("y"))))), ir.CVar("P")),),
    )
    messages = []
    for source in (ctx.indexed(data), pairs(ctx, data)):
        evaluator = TermEvaluator(EvaluationEnvironment(ctx, {"P": source}))
        with pytest.raises(ExecutionError) as raised:
            evaluator.evaluate(comp).collect()
        # A cluster worker's traceback follows; its line numbers are the
        # generated loop's own.
        messages.append(str(raised.value).splitlines()[0])
    assert messages[0] == messages[1]
    assert "cannot bind pattern (x, y) to value 3.0" in messages[0]


# ---------------------------------------------------------------------------
# The parent's sampler decisions, waves and generated loops
# ---------------------------------------------------------------------------

PARITY_SIZES = {
    "conditional_sum": 400, "equal": 400, "string_match": 400, "word_count": 400, "histogram": 300,
    "linear_regression": 300, "group_by": 300, "matrix_addition": 8, "matrix_multiplication": 6,
    "pagerank": 40, "kmeans": 120, "matrix_factorization": 6,
}  # fmt: skip


@pytest.mark.parametrize("name", figure3_program_names())
def test_every_figure3_program_decides_as_over_driver_built_pairs(name):
    spec = get_program(name)
    inputs = workload_for_program(name, PARITY_SIZES[name], seed=7)
    runs = []
    for as_pairs in (False, True):
        with DistributedContext(num_partitions=4, adaptive=True) as context:
            given = {
                key: pairs(context, value) if as_pairs and isinstance(value, list) else value
                for key, value in inputs.items()
            }
            result = diablo_for(spec, context).compile(spec.source).run(**given)
            arrays = {array: result.array(array) for array in spec.array_outputs}
            scalars = {scalar: result[scalar] for scalar in spec.scalar_outputs}
            runs.append((context.metrics.adaptive_log, arrays, scalars))
    assert runs[0] == runs[1]


def counted_waves(context) -> list[int]:
    waves = [0]
    run_tasks = context.run_tasks

    def counted(*args, **kwargs):
        waves[0] += 1
        return run_tasks(*args, **kwargs)

    context.run_tasks = counted
    return waves


def test_count_and_is_empty_build_no_pairs():
    with DistributedContext(num_partitions=4) as context:
        waves = counted_waves(context)
        dataset = context.indexed(elements(40))
        assert (dataset.count(), dataset.is_empty()) == (40, False)
        assert waves[0] == 0 and dataset.positional_source() is not None, "still unforced"
        spec = get_program("conditional_sum")
        compiled = diablo_for(spec, context).compile(spec.source)
        compiled.run(**workload_for_program("conditional_sum", 400, seed=7))
        assert waves[0] == 1


def generated_sources(compiled) -> list[str]:
    return [source for _factory, source, *_ in compiled.translation.target.segments.values()]


def test_the_generated_loops_count_only_a_live_index():
    with DistributedContext(num_partitions=4) as context:
        spec = get_program("conditional_sum")
        compiled = diablo_for(spec, context).compile(spec.source)
        result = compiled.run(**workload_for_program("conditional_sum", 400, seed=7))
        assert "positional scan of V: index dead" in result.trace
        sources = generated_sources(compiled)
        assert sources and all("for rec in records:" in source for source in sources)
        assert not any("enumerate" in source or "type(rec) is not tuple" in source for source in sources)

        compiled = Diablo(context).compile(LIVE)
        result = compiled.run(V=elements(50), n=50)
        assert "positional scan of V: index from partition offset" in result.trace
        assert any("enumerate(records, start)" in source for source in generated_sources(compiled))
