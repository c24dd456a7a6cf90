"""The benchmark's workloads: what runs, at which size, on which context.

Sizes, partition counts and sample counts are constants here, not flags:
two runs of the benchmark are only comparable when they agree on them.
Each workload says *why* it exists -- which layers it stresses and which it
bypasses -- so a change to one layer has a workload that should move and one
that should not (the table is in ``bench/README.md``).
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import DiabloConfig
from repro.baselines import get_baseline
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import PROGRAMS, get_program
from repro.workloads import workload_for_program

#: Every context is ``DiabloConfig(num_partitions=4, ...)`` with all other
#: fields at their defaults: what a user gets.
NUM_PARTITIONS = 4
#: Relative-or-absolute tolerance of the oracle comparison.
TOLERANCE = 1e-9
#: Passes over the program suite in one ``compile_suite`` op.
COMPILE_PASSES = 10
#: The programs ``compile_suite`` compiles, pinned so that adding a program
#: to ``repro.programs`` does not silently change the workload.
COMPILE_PROGRAMS = (
    "average",
    "conditional_count",
    "conditional_sum",
    "count",
    "equal",
    "equal_frequency",
    "group_by",
    "histogram",
    "kmeans",
    "linear_regression",
    "matrix_addition",
    "matrix_factorization",
    "matrix_multiplication",
    "pagerank",
    "pca",
    "string_match",
    "sum",
    "word_count",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"program"`` (a translated loop program), ``"handwritten"``
    (the expert Dataset-API baseline of ``program``) or ``"compile"`` (the
    compiler alone).  ``selftest_size`` is the tiny size ``--selftest`` uses.
    """

    name: str
    why: str
    kind: str
    program: str
    size: int
    selftest_size: int
    config: dict[str, Any] = field(default_factory=dict)
    input_overrides: dict[str, Any] = field(default_factory=dict)

    @property
    def spills(self) -> bool:
        """Whether the workload's shuffles write to disk."""
        return "spill_threshold_bytes" in self.config


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="scan_columnar",
        why="fully vectorised scan, 0 shuffles: records<->columns conversion and parallelize "
        "dominate, record closures do almost nothing",
        kind="program",
        program="conditional_sum",
        size=400_000,
        selftest_size=2_000,
    ),
    Workload(
        name="scalar_fold",
        why="linear_regression, worst ratio vs hand-written: 0 vectorised stages, 0 shuffles, "
        "all time in per-record closures and driver-side scalar folds",
        kind="program",
        program="linear_regression",
        size=20_000,
        selftest_size=500,
    ),
    Workload(
        name="join_agg",
        why="matrix multiply: join then reduceByKey over a materialised intermediate, "
        "2 shuffles per op; the target of fold-into-join and map-side-combine work",
        kind="program",
        program="matrix_multiplication",
        size=40,
        selftest_size=6,
    ),
    Workload(
        name="iterative",
        why="PageRank, the only while loop: many small task waves and shuffles per op, "
        "plan-skeleton and loop-invariant caches live; per-wave overhead shows here",
        kind="program",
        program="pagerank",
        size=300,
        selftest_size=24,
        input_overrides={"num_steps": 10},
    ),
    Workload(
        name="iterative_cluster",
        why="same program and input as iterative on 2 cluster workers sharing the run's one CPU: "
        "the gap to iterative is the cluster layer's cost (dispatch, wire pickling, "
        "worker-to-worker fetches)",
        kind="program",
        program="pagerank",
        size=300,
        selftest_size=24,
        config={"executor_mode": "cluster", "cluster_workers": 2},
        input_overrides={"num_steps": 10},
    ),
    Workload(
        name="shuffle_spill",
        why="hand-written group_by with a 64 KiB shuffle budget: no algebra or translate at all, "
        "shuffle writes go to disk; the only workload where spill I/O and peak memory move",
        kind="handwritten",
        program="group_by",
        size=500_000,
        selftest_size=20_000,
        config={"spill_threshold_bytes": 65_536},
    ),
    Workload(
        name="compile_suite",
        why="compiles all 18 programs 10 times with cold caches: parser, restriction check, "
        "translation rules, normalise and optimise do all the work, the runtime none",
        kind="compile",
        program="",
        size=COMPILE_PASSES,
        selftest_size=1,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ---------------------------------------------------------------------------
# Inputs and the oracle
# ---------------------------------------------------------------------------


def make_inputs(workload: Workload, seed: int, selftest: bool = False) -> dict[str, Any]:
    """The workload's inputs, generated from ``seed`` alone."""
    size = workload.selftest_size if selftest else workload.size
    if workload.kind == "compile":
        missing = sorted(set(COMPILE_PROGRAMS) - set(PROGRAMS))
        if missing:
            raise LookupError(f"compile_suite programs missing from repro.programs: {missing}")
        # The sources are fixed; the seed draws the order they are compiled in.
        orders = []
        generator = random.Random(seed)
        for _ in range(size):
            order = list(COMPILE_PROGRAMS)
            generator.shuffle(order)
            orders.append(tuple(order))
        return {"orders": tuple(orders)}
    inputs = workload_for_program(workload.program, size, seed=seed)
    inputs.update(workload.input_overrides)
    return inputs


def _compile_one(context: Any, name: str) -> Any:
    spec = get_program(name)
    # A fresh facade has a fresh compilation cache, so every compile is cold.
    return diablo_for(spec, context).compile(spec.source)


def expected_outputs(workload: Workload, inputs: dict[str, Any]) -> dict[str, Any]:
    """What every op must return, from code independent of what is measured.

    Program and hand-written workloads are checked against the plain-Python
    ``sequential`` baseline.  ``compile_suite`` has no independent compiler
    to compare with, so it pins the generated target code of one reference
    compile per program and requires every later compile to reproduce it.
    """
    if workload.kind == "compile":
        context = DiabloConfig(num_partitions=NUM_PARTITIONS).make_context()
        try:
            reference = {name: str(_compile_one(context, name).target) for name in COMPILE_PROGRAMS}
        finally:
            context.shutdown()
        return {"targets": [reference] * len(inputs["orders"])}
    return get_baseline(workload.program).sequential(inputs)


def _values_match(actual: Any, expected: Any) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return bool(actual) == bool(expected)
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    if isinstance(expected, (tuple, list)) and isinstance(actual, (tuple, list)):
        return len(actual) == len(expected) and all(map(_values_match, actual, expected))
    if isinstance(expected, dict) and isinstance(actual, dict):
        # Sparse arrays: an explicit zero and an absent entry are the same
        # array (the PageRank program stores C[i] := 0 for sink vertices,
        # the reference keeps only vertices with out-edges).
        return all(
            _values_match(actual.get(key, 0), expected.get(key, 0))
            for key in actual.keys() | expected.keys()
        )
    return actual == expected


def outputs_match(actual: Any, expected: dict[str, Any]) -> bool:
    """Whether an op's outputs equal the oracle's, output by output."""
    return (
        isinstance(actual, dict)
        and actual.keys() >= expected.keys()
        and all(_values_match(actual[name], value) for name, value in expected.items())
    )


# ---------------------------------------------------------------------------
# Sessions: a context plus a compiled program, ready to run ops
# ---------------------------------------------------------------------------


@dataclass
class Session:
    """A set-up workload.  ``op()`` is what a user would call per request:
    it takes plain Python inputs and returns plain Python outputs."""

    context: Any
    op: Callable[[], dict[str, Any]]
    context_s: float
    compile_s: float

    def close(self) -> None:
        self.context.shutdown()


def open_session(workload: Workload, inputs: dict[str, Any], scratch_dir: str) -> Session:
    """Build the context (spawning cluster workers where asked) and compile."""
    started = time.perf_counter()
    config = dict(workload.config)
    if workload.spills:
        config["spill_dir"] = os.path.join(scratch_dir, "spill")
        os.makedirs(config["spill_dir"], exist_ok=True)
    context = DiabloConfig(num_partitions=NUM_PARTITIONS, **config).make_context()
    built = time.perf_counter()
    try:
        op = _make_op(workload, context, inputs)
    except BaseException:
        context.shutdown()
        raise
    return Session(context, op, built - started, time.perf_counter() - built)


def _make_op(workload: Workload, context: Any, inputs: dict[str, Any]) -> Callable[[], dict[str, Any]]:
    if workload.kind == "program":
        name = workload.program
        compiled = _compile_one(context, name)
        return lambda: translated_outputs(name, compiled.run(**inputs))
    if workload.kind == "handwritten":
        return handwritten_op(workload, context, inputs)

    def compile_suite() -> dict[str, Any]:
        targets = []
        statements = rewrites = 0
        for order in inputs["orders"]:
            compiled = {name: _compile_one(context, name) for name in order}
            targets.append({name: str(program.target) for name, program in compiled.items()})
            for program in compiled.values():
                statements += count_statements(program.target.statements)
                rewrites += program.translation.optimizer_stats.total()
        return {"targets": targets, "target_statements": statements, "rewrites": rewrites}

    return compile_suite


def count_statements(statements: Any) -> int:
    """Target statements of a translated program, ``while`` bodies included."""
    return sum(1 + count_statements(getattr(statement, "body", ())) for statement in statements)


def handwritten_op(workload: Workload, context: Any, inputs: dict[str, Any]) -> Any:
    """The hand-written Dataset-API program for the workload (None: there is none)."""
    if workload.kind == "compile":
        return None
    distributed = get_baseline(workload.program).distributed
    return lambda: distributed(context, inputs)


def sequential_op(workload: Workload, inputs: dict[str, Any]) -> Any:
    """The plain-Python program for the workload (None: there is none)."""
    if workload.kind == "compile":
        return None
    sequential = get_baseline(workload.program).sequential
    return lambda: sequential(inputs)
