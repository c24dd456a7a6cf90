"""Generated segments close over data, never over the evaluator.

A generated per-partition function is a function of its records and the
scalars it declares: it holds a scope, constants, registered functions and
monoids, and nothing that reaches a ``TermEvaluator``.  Two consequences are
pinned here:

* a finished run leaves no reference cycle through the evaluator, so the
  plan, its datasets and the evaluator die by reference counting alone;
* every generated function of the benchmark programs, with the optimizer on
  or off, pickles for the cluster wire without an evaluator inside.
"""

from __future__ import annotations

import gc

import pytest

from repro.algebra import codegen
from repro.algebra.evaluator import TermEvaluator
from repro.algebra.plan import NarrowNode
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.programs.sources import PROGRAMS
from repro.runtime.cluster import wire
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.workloads import workload_for_program

SIZES = {
    "matrix_addition": 4,
    "matrix_multiplication": 4,
    "matrix_factorization": 4,
    "pagerank": 20,
    "kmeans": 40,
    "pca": 10,
}


def _inputs(name: str) -> dict:
    inputs = workload_for_program(name, SIZES.get(name, 60), seed=7)
    if name == "pagerank":
        inputs["num_steps"] = 2
    return inputs


def test_one_pagerank_op_leaves_no_evaluator_to_the_cyclic_gc():
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = 3
    with DistributedContext(num_partitions=4) as context:
        program = diablo_for(spec, context).compile(spec.source)
        expected = translated_outputs("pagerank", program.run(**inputs))
        gc.collect()
        gc.disable()
        try:
            assert translated_outputs("pagerank", program.run(**inputs)) == expected
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [obj for obj in gc.garbage if isinstance(obj, (TermEvaluator, Dataset, NarrowNode))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
    assert not cyclic, f"{len(cyclic)} evaluator / dataset / plan objects left in cycles"


@pytest.mark.parametrize("optimize", [True, False], ids=["optimize", "unoptimized"])
def test_no_generated_function_carries_the_evaluator(monkeypatch, optimize):
    functions = []
    generate = codegen.generate

    def recording(*args, **kwargs):
        functions.append(generate(*args, **kwargs))
        return functions[-1]

    monkeypatch.setattr(codegen, "generate", recording)
    for name in PROGRAMS:
        spec = get_program(name)
        with DistributedContext(num_partitions=2) as context:
            result = diablo_for(spec, context, optimize=optimize).compile(spec.source).run(**_inputs(name))
            assert translated_outputs(name, result)
    assert functions
    for function in functions:
        assert "evaluate_local" not in function.source
        assert b"TermEvaluator" not in wire.cluster_dumps(function), function.source
