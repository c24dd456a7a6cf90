"""No-key products -- the paper's nested loops -- under every lowering.

A generator with no equality linking it to the rows built so far is a
product.  The planner lowers it with the shared ``choose_broadcast_side``
heuristic: broadcast the right side (the generator's elements), broadcast the
left side (the rows), or a cartesian shuffle when neither fits under
``broadcast_join_threshold``.  Each strategy is checked here against the
sequential interpreter on kmeans and on a small two-generator program.
"""

from __future__ import annotations

import functools
import re

import pytest

from test_soundness_programs import assert_same_outputs

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.explain import explain_plan
from repro.algebra.planner import Planner
from repro.comprehension import ir
from repro.comprehension.monoids import MonoidRegistry
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for
from repro.functions import FunctionRegistry
from repro.programs import get_program
from repro.runtime import columnar as columnar_mod
from repro.runtime import stage
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.workloads import workload_for_program

#: ``S[i] += P[i] * Q[j]``: the rows are P's, the product's elements Q's.
OUTER = """
var S: vector[double] = vector();
for i = 0, n-1 do
  for j = 0, m-1 do
    S[i] += P[i] * Q[j];
"""


def outer_inputs(n: int, m: int) -> dict:
    return {
        "P": [float(i) * 0.5 - 1.0 for i in range(n)],
        "Q": [1.0 / (j + 1) for j in range(m)],
        "n": n,
        "m": m,
    }


#: (program, inputs, broadcast_join_threshold) per strategy.  kmeans' rows
#: are its points and its elements the 100 centroids.
CASES = {
    ("kmeans", "right"): (lambda: workload_for_program("kmeans", 150), 100_000),
    ("kmeans", "left"): (lambda: workload_for_program("kmeans", 40), 100_000),
    ("kmeans", "none"): (lambda: workload_for_program("kmeans", 150), 10),
    ("outer", "right"): (lambda: outer_inputs(9, 4), 100_000),
    ("outer", "left"): (lambda: outer_inputs(4, 9), 100_000),
    ("outer", "none"): (lambda: outer_inputs(9, 4), 2),
}

NOTES = {
    "right": "broadcast right side",
    "left": "broadcast left side (rows)",
    "none": "cartesian (both sides above the broadcast threshold)",
}
STRATEGIES = {"right": "broadcast", "left": "broadcast", "none": "cartesian"}


def lowered_roots(monkeypatch) -> list:
    """Every plan root the planner lowers (a stored plan's first lowering
    or a later one)."""
    roots: list = []
    original = Planner.relower

    def recording(self, root, *inputs):
        roots.append(root)
        return original(self, root, *inputs)

    monkeypatch.setattr(Planner, "relower", recording)
    return roots


def plan_nodes(root) -> list:
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.children))
    return nodes


def run_case(program: str, strategy: str, monkeypatch, **config):
    make_inputs, threshold = CASES[(program, strategy)]
    spec = get_program("kmeans") if program == "kmeans" else None
    source = spec.source if spec is not None else OUTER
    roots = lowered_roots(monkeypatch)
    with DistributedContext(num_partitions=3, broadcast_join_threshold=threshold, **config) as ctx:
        diablo = diablo_for(spec, ctx) if spec is not None else Diablo(ctx)
        result = diablo.compile(source).run(**make_inputs())
        sequential = diablo.interpret(source, make_inputs())
        strategies = dict(ctx.metrics.join_strategies)
    notes = [
        note
        for root in roots
        for node in plan_nodes(root)
        if node.label.startswith("Product[")
        for note in node.notes
    ]
    return result, sequential, strategies, notes


class _OuterSpec:
    name = "outer"
    scalar_outputs: tuple = ()
    array_outputs = ("S",)


@pytest.mark.parametrize("strategy", ["right", "left", "none"])
@pytest.mark.parametrize("program", ["kmeans", "outer"])
def test_every_product_strategy_matches_the_interpreter(program, strategy, monkeypatch):
    result, sequential, strategies, notes = run_case(program, strategy, monkeypatch)
    assert notes == [NOTES[strategy]]
    # kmeans also joins its points to their closest centroid (a hash join).
    assert strategies.get("cartesian", 0) == (strategy == "none")
    assert strategies.get("broadcast", 0) >= (strategy != "none")
    spec = get_program("kmeans") if program == "kmeans" else _OuterSpec
    assert_same_outputs(spec, result, sequential)


@pytest.mark.parametrize("strategy", ["right", "left", "none"])
def test_every_product_strategy_is_identical_under_columnar(strategy, monkeypatch):
    """Each lowering gives the record path's bits, kernels on or off."""
    outputs = []
    for columnar in (False, True):
        result, _, _, _ = run_case("kmeans", strategy, monkeypatch, columnar=columnar)
        outputs.append(repr(sorted(result.array("C").items())))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# One record path: every narrow stage a program runs is generated
# ---------------------------------------------------------------------------

#: Small inputs for every program.
GUARD_SIZES = {
    "conditional_sum": 60, "equal": 40, "string_match": 40, "word_count": 80, "histogram": 40,
    "linear_regression": 40, "group_by": 60, "matrix_addition": 4, "matrix_multiplication": 4,
    "pagerank": 12, "kmeans": 120, "matrix_factorization": 4, "average": 40, "count": 40,
    "sum": 40, "conditional_count": 40, "equal_frequency": 60, "pca": 4,
}  # fmt: skip


def guard_inputs(name: str) -> dict:
    return workload_for_program(name, GUARD_SIZES[name])


def generated_or_runtime(function) -> bool:
    """A generated segment, a columnar kernel, or the runtime's own per-partition
    fold (a scalar ``⊕/`` appended after a kernel stage)."""
    return (
        hasattr(function, "segment")
        or isinstance(function, columnar_mod.VectorizedFunction)
        or (isinstance(function, functools.partial) and function.func is stage.fold_partition)
    )


def recorded_stage_functions(monkeypatch) -> list:
    functions: list = []
    original = Dataset._with_stage

    def recording(self, new_stage, keep_partitioner=False):
        functions.append(new_stage.function)
        return original(self, new_stage, keep_partitioner)

    monkeypatch.setattr(Dataset, "_with_stage", recording)
    return functions


@pytest.mark.parametrize("columnar", [False, True])
@pytest.mark.parametrize("threshold", [0, 100_000])
@pytest.mark.parametrize("name", sorted(GUARD_SIZES))
def test_every_narrow_stage_is_a_generated_segment_or_a_kernel(name, threshold, columnar, monkeypatch):
    """No stage function is a hand-written record closure: per-row
    generators and products run inside the generated loops (threshold 0
    lowers kmeans' product as a cartesian, the default as a broadcast)."""
    functions = recorded_stage_functions(monkeypatch)
    spec = get_program(name)
    with DistributedContext(num_partitions=3, broadcast_join_threshold=threshold, columnar=columnar) as ctx:
        result = diablo_for(spec, ctx).compile(spec.source).run(**guard_inputs(name))
        explained = [value.explain() for value in result.values.values() if isinstance(value, Dataset)]
    assert functions
    assert [function for function in functions if not generated_or_runtime(function)] == []
    assert not any("flat_map" in text for text in explained)


def test_broadcast_left_runs_generated_too(monkeypatch):
    functions = recorded_stage_functions(monkeypatch)
    result, _, _, notes = run_case("kmeans", "left", monkeypatch)
    assert notes == [NOTES["left"]] and result.array("C")
    assert functions and all(map(generated_or_runtime, functions))


# ---------------------------------------------------------------------------
# Products in a loop: compiled once, noted once
# ---------------------------------------------------------------------------

#: kmeans, several clustering steps.
KMEANS_STEPS = """
var step: int = 0;
while (step < num_steps) {
  var closest: vector[double] = vector();
  var avg: vector[double] = vector();
  step += 1;
  for i = 0, N-1 do {
    closest[i] := ArgMin(0, 1.0e12);
    for j = 0, K-1 do
      closest[i] := closest[i] ^ ArgMin(j, distance(P[i], C[j]));
    avg[idx(closest[i])] := avg[idx(closest[i])] ^^ Avg(P[i], 1);
  };
  for j = 0, K-1 do
    C[j] := avgValue(avg[j]);
};
"""


def test_kmeans_steps_compile_each_distinct_segment_once(monkeypatch):
    compiled = []

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
    inputs = {**workload_for_program("kmeans", 150), "num_steps": 4}
    with DistributedContext(num_partitions=3) as ctx:
        program = diablo_for("kmeans", ctx).compile(KMEANS_STEPS)
        first = program.run(**inputs).array("C")
        segments = program.translation.target.segments
        assert ctx.metrics.generated_segments > len(segments) > 0
        assert len(compiled) == len(segments), "one compile() per distinct segment"
        assert any(segment.steps and segment.steps[0][0] == "expand" for segment in segments)
        assert program.run(**inputs).array("C") == first
        assert len(compiled) == len(segments), "a second run compiles nothing"


@pytest.mark.parametrize(
    "program, source",
    [("pagerank", get_program("pagerank").source), ("kmeans", KMEANS_STEPS)],
    ids=["pagerank", "kmeans-steps"],
)
def test_plan_notes_do_not_grow_with_the_number_of_iterations(program, source, monkeypatch):
    """A loop lowers the same stored plan every iteration: each decision is
    noted on its node once, not once per iteration."""
    rendered = {}
    for steps in (2, 40 if program == "pagerank" else 6):
        roots = lowered_roots(monkeypatch)
        inputs = {**workload_for_program(program, 50 if program == "pagerank" else 150), "num_steps": steps}
        with DistributedContext(num_partitions=3) as ctx:
            diablo_for(program, ctx).compile(source).run(**inputs)
        unique = list({id(root): root for root in roots}.values())
        rendered[steps] = [explain_plan(root) for root in unique]
        monkeypatch.undo()
    short, long = rendered.values()
    assert short == long
    assert sum(len(text.splitlines()) for text in short) == sum(len(text.splitlines()) for text in long)


# ---------------------------------------------------------------------------
# A broadcast-left product binds each element once
# ---------------------------------------------------------------------------

#: The element loop of a broadcast-left product: the element is bound,
#: shape-checked and range-tested before the loop over the broadcast rows.
ELEMENT_LOOP = re.compile(
    r"for element in records if (\w+) else \(\):\n(?P<checks>(?:.*\n)*?)\s+for \(.*\) in \1:\n"
)


def test_kmeans_checks_each_centroid_once_not_once_per_point():
    spec = get_program("kmeans")
    inputs = workload_for_program("kmeans", 6, seed=7)
    with DistributedContext(num_partitions=3) as ctx:
        diablo = diablo_for(spec, ctx)
        program = diablo.compile(spec.source)
        result = program.run(**inputs)
        sequential = diablo.interpret(spec.source, workload_for_program("kmeans", 6, seed=7))
    sources = [
        compiled[1] for segment, compiled in program.target.segments.items() if segment.entry[0] == "product"
    ]
    assert sources
    for source in sources:
        loop = ELEMENT_LOOP.search(source)
        assert loop is not None, source
        checks = loop.group("checks")
        assert "check_bind(" in checks and "<=" in checks and "continue" in checks, source
    assert_same_outputs(spec, result, sequential)


def _product_function():
    """A broadcast-left product over elements ``(i, v)``, keeping ``i >= 0``."""
    i, v, a = ir.CVar("i"), ir.CVar("v"), ir.CVar("a")
    segment = codegen.Segment(
        ("product", ("a",), ir.PTuple((ir.PVar("i"), ir.PVar("v"))), "rows"),
        (("filter", ir.CBinOp(">=", i, ir.CConst(0))),),
        ("head", ir.CTuple((a, i, v))),
    )
    return lambda rows: codegen.generate(
        segment, codegen.Bindings({"rows": rows}, {}, FunctionRegistry(), MonoidRegistry()), {}
    )


def test_an_empty_rows_list_checks_no_element():
    function = _product_function()
    malformed = [(0, 1.0), "not a pair"]
    assert function([])(malformed) == []
    with pytest.raises(ExecutionError, match="cannot bind pattern"):
        function([(5,)])(malformed)
    assert function([(5,), (6,)])([(1, 2.0), (-1, 3.0), (2, 4.0)]) == [
        (5, 1, 2.0),
        (6, 1, 2.0),
        (5, 2, 4.0),
        (6, 2, 4.0),
    ]
