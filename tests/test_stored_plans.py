"""Plans are built once per program and bound on every run.

Each comprehension's annotated plan is built on its first evaluation and
stored with the :class:`~repro.translate.target.TargetProgram`, keyed by the
term, the bind's shape (which domains are scans, which scans are placed),
the loop invariants and the knobs the build reads.  These tests hold that to:

* a second run of a compiled PageRank builds no plan;
* between runs of one compiled program, a changed input placement, an input
  that crosses ``broadcast_join_threshold``, an empty input, a new range
  bound or driver ``let``, and new local-bag elements all give what the
  interpreter (or plain Python) gives, bit-identical to a fresh compile;
* one ``TargetProgram`` runs on two contexts with different
  ``num_partitions`` and ``plan_optimize``, and on four threads at once;
* no stored plan keeps a Dataset, a context or a run's bindings alive.

With ``DIABLO_CLUSTER_TESTS=1`` the runs also go through a 2-worker cluster.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import types
import weakref

import pytest

from test_soundness_programs import assert_same_outputs, values_match

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.evaluator import TermEvaluator
from repro.algebra.explain import explain_metrics
from repro.algebra.runner import ProgramRunner
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.runtime.partitioner import HashPartitioner
from repro.translate.target import TargetAssign, TargetProgram, VariableInfo
from repro.workloads import workload_for_program

EXECUTORS = ["sequential"]
if os.environ.get("DIABLO_CLUSTER_TESTS") == "1":
    EXECUTORS.append("cluster")


def make_context(executor: str, **options) -> DistributedContext:
    if executor == "cluster":
        return ClusterContext(cluster_workers=2, **options)
    return DistributedContext(**options)


@pytest.fixture
def builds(monkeypatch) -> list:
    """Each plan build, as the store it goes to (a program's ``plans``)."""
    built: list = []
    original = TermEvaluator._build

    def recording(self, comp, shape):
        built.append(self.plans)
        return original(self, comp, shape)

    monkeypatch.setattr(TermEvaluator, "_build", recording)
    return built


def built_for(builds: list, program: TargetProgram) -> int:
    return sum(plans is program.plans for plans in builds)


def pagerank_inputs(steps: int = 4) -> dict:
    return {**workload_for_program("pagerank", 40, seed=3), "num_steps": steps}


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_second_pagerank_run_builds_no_plan(executor, builds):
    spec = get_program("pagerank")
    with make_context(executor, num_partitions=4) as ctx:
        compiled = diablo_for(spec, ctx).compile(spec.source)
        first = compiled.run(**pagerank_inputs())
        built = len(builds)
        assert built > 0
        hits = ctx.metrics.plan_cache_hits
        assert hits > 0, "loop iterations 2+ bind the plans iteration 1 built"
        second = compiled.run(**pagerank_inputs())
        assert len(builds) == built, "run 2 builds nothing"
        assert ctx.metrics.plan_cache_hits - hits == hits + built
        assert second["P"].collect() == first["P"].collect()
        assert [entry["plan_cache_hits"] for entry in second.iteration_metrics][0] > 0
        report = "\n".join(explain_metrics(ctx.metrics))
        assert f"stored-plan reuses: {ctx.metrics.plan_cache_hits}" in report
        oracle = diablo_for(spec, ctx).interpret(spec.source, pagerank_inputs())
        assert_same_outputs(spec, second, oracle)


# ---------------------------------------------------------------------------
# What changes between runs of one compiled program
# ---------------------------------------------------------------------------

#: C scans A (after a driver ``let hi = n - 1``) and joins B; D scans a range
#: whose bound is another driver let.
SOURCE = """
var C: vector[double] = vector();
for i = 0, n-1 do C[i] := A[i] * B[i] + k;
var D: vector[double] = vector();
for i = 0, m-1 do D[i] := i * k;
"""


def inputs_for(size: int, k: float = 1.5, m: int = 4) -> dict:
    return {
        "A": {i: float(i) / 3 for i in range(size)},
        "B": {i: 2.0 - i / 7 for i in range(size)},
        "n": size,
        "k": k,
        "m": m,
    }


def placed(ctx: DistributedContext, inputs: dict) -> dict:
    """``inputs`` with A a hash-placed Dataset of ``ctx``."""
    A = ctx.parallelize_pairs(inputs["A"]).partition_by(HashPartitioner(ctx.num_partitions))
    return {**inputs, "A": A}


#: (label, inputs, whether A arrives placed) for each run, in order.
RUNS = [
    ("first", inputs_for(6), False),
    ("placed input", inputs_for(6), True),
    ("unplaced again", inputs_for(6, k=0.25), False),
    ("above the broadcast threshold", inputs_for(30), False),
    ("empty input", {**inputs_for(6), "A": {}}, False),
    ("new range bound and let", inputs_for(5, k=-2.0, m=9), False),
]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_run_matches_the_interpreter_and_a_fresh_compile(executor, builds):
    options = {"num_partitions": 3, "broadcast_join_threshold": 10}
    with make_context(executor, **options) as ctx:
        compiled = Diablo(ctx).compile(SOURCE)
        built_after: dict[str, int] = {}
        for label, inputs, place in RUNS:
            result = compiled.run(**(placed(ctx, inputs) if place else inputs))
            built_after[label] = built_for(builds, compiled.translation.target)
            with make_context(executor, **options) as fresh_ctx:
                fresh = Diablo(fresh_ctx).compile(SOURCE).run(
                    **(placed(fresh_ctx, inputs) if place else inputs)
                )
                for name in ("C", "D"):
                    assert result[name].collect() == fresh[name].collect(), (label, name)
            oracle = Diablo(ctx).interpret(SOURCE, dict(inputs))
            for name in ("C", "D"):
                array = result.array(name)
                assert set(array) == set(oracle[name]), (label, name)
                assert all(values_match(array[key], oracle[name][key]) for key in array), (label, name)
        strategies = dict(ctx.metrics.join_strategies)
    # Only a placed scan keys a new plan: C's plan over a placed A.  The
    # threshold, the empty input, the bound and the let are run-time values.
    assert built_after == {
        "first": 2,
        "placed input": 3,
        "unplaced again": 3,
        "above the broadcast threshold": 3,
        "empty input": 3,
        "new range bound and let": 3,
    }
    assert strategies.get("broadcast") and strategies.get("shuffle"), strategies


def _bag_program() -> TargetProgram:
    """``R := { (i, v * w) | (i, v) <- V, w <- L }`` and ``S := { (i, v + w) |
    (i, v) <- V, w <- (x, y) }``: L is whatever the caller passes (a list is a
    scanned collection, a number a one-element local bag), ``(x, y)`` a
    local bag of two scalars."""
    pair = ir.PTuple((ir.PVar("i"), ir.PVar("v")))

    def comp(op: str, domain: ir.Term) -> ir.Comprehension:
        head = ir.CTuple((ir.CVar("i"), ir.CBinOp(op, ir.CVar("v"), ir.CVar("w"))))
        return ir.Comprehension(head, (ir.Generator(pair, ir.CVar("V")), ir.Generator(ir.PVar("w"), domain)))

    variables = {
        "R": VariableInfo("R", "array"),
        "S": VariableInfo("S", "array"),
        "V": VariableInfo("V", "array", is_input=True),
        "L": VariableInfo("L", "scalar", is_input=True),
        "x": VariableInfo("x", "scalar", is_input=True),
        "y": VariableInfo("y", "scalar", is_input=True),
    }
    statements = (
        TargetAssign("R", comp("*", ir.CVar("L"))),
        TargetAssign("S", comp("+", ir.CTuple((ir.CVar("x"), ir.CVar("y"))))),
    )
    return TargetProgram(statements, variables)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_local_bags_and_a_domain_that_changes_kind_between_runs(executor, builds):
    V = {i: float(i) for i in range(5)}
    program = _bag_program()
    runs = [
        {"V": V, "L": [2.0, 3.0], "x": 1.0, "y": 2.0},
        {"V": V, "L": 5.0, "x": -1.0, "y": 0.5},
        {"V": V, "L": [4.0, 0.5], "x": 3.0, "y": 3.0},
    ]
    built = []
    with make_context(executor, num_partitions=3) as ctx:
        for inputs in runs:
            result = ProgramRunner(ctx).run(program, inputs)
            built.append(built_for(builds, program))
            L = inputs["L"] if isinstance(inputs["L"], list) else [inputs["L"]]
            expected_R = sorted((i, v * w) for i, v in V.items() for w in L)
            expected_S = sorted((i, v + w) for i, v in V.items() for w in (inputs["x"], inputs["y"]))
            assert sorted(result["R"].collect()) == expected_R
            assert sorted(result["S"].collect()) == expected_S
            fresh = ProgramRunner(ctx).run(_bag_program(), inputs)
            assert result["R"].collect() == fresh["R"].collect()
            assert result["S"].collect() == fresh["S"].collect()
    # Run 1 builds R (L scanned) and S (a local bag); run 2 builds R over a
    # local L; run 3 finds both of R's plans and S's.
    assert built == [2, 3, 3]


def test_one_program_runs_on_contexts_with_other_knobs(builds):
    spec = get_program("pagerank")
    settings = [
        {"num_partitions": 4},
        {"num_partitions": 3, "plan_optimize": False},
    ]
    with DistributedContext(**settings[0]) as ctx:
        diablo = diablo_for(spec, ctx)
        target = diablo.compile(spec.source).translation.target
        expected = []
        for options in settings:
            with DistributedContext(**options) as fresh:
                expected.append(diablo_for(spec, fresh).compile(spec.source).run(**pagerank_inputs()))
    contexts = [DistributedContext(**options) for options in settings]
    try:
        for round_ in range(2):
            for context, reference in zip(contexts, expected, strict=True):
                runner = ProgramRunner(context, diablo.functions, diablo.monoids)
                result = runner.run(target, pagerank_inputs())
                assert result["P"].collect() == reference["P"].collect()
                assert result["C"].collect() == reference["C"].collect()
            if round_ == 0:
                built = len(builds)
        assert len(builds) == built, "the second round on both contexts builds nothing"
    finally:
        for context in contexts:
            context.shutdown()


def test_threads_that_share_one_program_get_its_outputs():
    """Runs on several threads build and bind one program's plans at once
    (a check-then-act on the shared store): every run still gives the
    outputs of a run on its own."""
    spec = get_program("pagerank")
    with DistributedContext(num_partitions=4) as ctx:
        diablo = diablo_for(spec, ctx)
        expected = diablo.compile(spec.source).run(**pagerank_inputs(2))["P"].collect()
        target = diablo_for(spec, ctx).compile(spec.source).translation.target
    assert not target.plans
    results: list = []
    errors: list = []

    def work() -> None:
        try:
            with DistributedContext(num_partitions=4) as context:
                runner = ProgramRunner(context, diablo.functions, diablo.monoids)
                for _ in range(2):
                    results.append(runner.run(target, pagerank_inputs(2))["P"].collect())
        except BaseException as error:  # noqa: B036 - reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8 and all(result == expected for result in results)


# ---------------------------------------------------------------------------
# A stored plan holds no run
# ---------------------------------------------------------------------------

_LEAVES = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType, str, bytes, int, float)


def _reachable(root) -> list:
    """Every object reachable from ``root``, not descending into modules,
    classes or functions (a kernel maker references its module's globals)."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if not isinstance(obj, _LEAVES):
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_stored_plans_keep_no_dataset_or_context_alive():
    spec = get_program("pagerank")
    context = DistributedContext(num_partitions=4)
    diablo = diablo_for(spec, context)
    compiled = diablo.compile(spec.source)
    target = compiled.translation.target
    result = compiled.run(**pagerank_inputs())
    assert any(key[0] == "plan" for key in target.plans)
    refs = [weakref.ref(context)] + [
        weakref.ref(value) for value in result.values.values() if isinstance(value, Dataset)
    ]
    assert len(refs) > 1
    reachable = _reachable(target.plans)
    assert not [obj for obj in reachable if isinstance(obj, (Dataset, DistributedContext, codegen.Bindings))]
    context.shutdown()
    del context, diablo, compiled, result
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert target.plans, "the plans outlive the run"
