"""Execution of translated target programs over the DISC runtime.

A :class:`ProgramRunner` binds a :class:`~repro.translate.target.TargetProgram`
to caller-supplied inputs and executes its statements in order: bulk
assignments are evaluated by the :class:`~repro.algebra.evaluator.TermEvaluator`
and stored back into the variable environment; ``while`` statements loop in the
driver, re-evaluating their (scalar) condition between iterations.

Inputs may be given as runtime Datasets, as Python dicts (sparse arrays), as
lists (plain collections -- automatically indexed), or as scalars.  Results
are returned in the same spirit: arrays come back as Datasets (use
``collect_state`` for plain dicts), scalars as Python values.

The runtime's narrow operations are lazy (see
:mod:`repro.runtime.dataset`), so every statement boundary is a **force
point**: an assignment materializes its Dataset before storing it, because
the pending stage chain closes over the shared variable environment that the
next statement may mutate (e.g. a loop reassigning the array it reads).
Within a statement, chains of maps/filters between shuffles fuse into single
per-partition passes; the run trace records how many fused stages each
assignment executed.

**Loop-invariant hoisting.**  Before entering a ``while`` loop the runner
statically collects every variable the body assigns (including nested
loops); the remaining environment variables are *loop-invariant*.  A
:class:`~repro.algebra.planner.LoopInvariantCache` scoped to the loop is
handed to each iteration's evaluators, which use it to evaluate invariant
sub-terms and join/merge sides once -- materialized and hash-partitioned --
and reuse them on iterations 2+, so only the data the loop actually mutates
is recomputed and re-shuffled.  The cache is defensively invalidated on
every assignment (entries record the variables they derive from), so a
mutated variable can never serve stale data.  Per-iteration snapshots of the
shuffle counters land in :attr:`ProgramResult.iteration_metrics`, which is
how the benchmarks assert that iteration 2+ shuffles only the mutated side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.algebra.planner import LoopInvariantCache, PlanSkeletonCache, keyed_demand_counts
from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.errors import ExecutionError
from repro.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.runtime.partitioner import HashPartitioner
from repro.translate.target import TargetAssign, TargetProgram, TargetStatement, TargetWhile

#: Safety valve for while-loops in target programs.
MAX_WHILE_ITERATIONS = 1_000_000


@dataclass
class ProgramResult:
    """The outcome of running a target program.

    Attributes:
        values: final value of every program variable (Datasets for arrays).
        wall_seconds: execution time.
        trace: the plan decisions logged by the evaluator (joins, group-bys).
        iteration_metrics: one entry per executed ``while`` iteration with
            the shuffle-counter deltas of that iteration (loop index,
            iteration number, shuffles / shuffled_records / shuffled_bytes /
            shuffles_eliminated / loop_invariant_reuses / plan_cache_hits).
    """

    values: dict[str, Any]
    wall_seconds: float
    trace: list[str] = field(default_factory=list)
    iteration_metrics: list[dict[str, int]] = field(default_factory=list)

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    def scalar(self, name: str) -> Any:
        """A scalar result variable."""
        return self.values[name]

    def array(self, name: str) -> dict[Any, Any]:
        """An array result variable as a plain dict."""
        value = self.values[name]
        if isinstance(value, Dataset):
            return value.collect_as_map()
        if isinstance(value, dict):
            return dict(value)
        raise ExecutionError(f"variable {name!r} is not an array")

    def returned(self, names: tuple[str, ...], as_tuple: bool = False) -> Any:
        """Map the result environment back to a function's returned names.

        This is how the jit API turns ``return total`` / ``return total, C``
        into call results: scalars come back as plain Python values (the
        environment already stores them unwrapped), arrays as Datasets, and a
        single returned name is unwrapped out of its 1-tuple unless the
        source spelled an explicit tuple (``as_tuple=True``).
        """
        missing = [name for name in names if name not in self.values]
        if missing:
            raise ExecutionError(
                f"program did not produce returned variable(s): {', '.join(missing)}"
            )
        values = tuple(self.values[name] for name in names)
        if not as_tuple and len(values) == 1:
            return values[0]
        return values


@dataclass
class _RunState:
    """Mutable bookkeeping threaded through one program execution."""

    trace: list[str]
    iteration_metrics: list[dict[str, int]] = field(default_factory=list)
    loop_cache: LoopInvariantCache | None = None
    skeleton_cache: PlanSkeletonCache | None = None
    loops_seen: int = 0
    #: Program-wide keyed-consumer counts (the global partitioner pass).
    keyed_demand: dict[str, int] = field(default_factory=dict)
    #: Variables assigned inside any while loop (their placement churns).
    loop_assigned: frozenset[str] = frozenset()


#: The shuffle counters snapshotted per while-loop iteration.
_ITERATION_COUNTERS = (
    "shuffles",
    "shuffled_records",
    "shuffled_bytes",
    "shuffles_eliminated",
    "narrow_joins",
    "prepartitioned_inputs",
    "loop_invariant_reuses",
    "plan_cache_hits",
)


class ProgramRunner:
    """Runs translated target programs on a :class:`DistributedContext`."""

    def __init__(
        self,
        context: DistributedContext,
        functions: FunctionRegistry | None = None,
        monoids: MonoidRegistry | None = None,
    ):
        self.context = context
        self.functions = functions or DEFAULT_FUNCTIONS
        self.monoids = monoids or DEFAULT_MONOIDS

    def run(self, program: TargetProgram, inputs: dict[str, Any] | None = None) -> ProgramResult:
        """Execute ``program`` with the given input variables."""
        started = time.perf_counter()
        values = self._prepare_inputs(program, inputs or {})
        environment = EvaluationEnvironment(self.context, values, self.functions, self.monoids)
        state = _RunState(trace=[])
        if self.context.plan_optimize:
            state.keyed_demand = keyed_demand_counts(program)
            state.loop_assigned = self._loop_assigned_variables(program.statements)
            self._place_inputs(program, environment, state)
        self._execute_block(program.statements, program, environment, state)
        elapsed = time.perf_counter() - started
        return ProgramResult(
            environment.values, elapsed, state.trace, state.iteration_metrics
        )

    # -- input preparation ------------------------------------------------------

    def _prepare_inputs(self, program: TargetProgram, inputs: dict[str, Any]) -> dict[str, Any]:
        values: dict[str, Any] = {}
        for name, value in inputs.items():
            info = program.variables.get(name)
            if info is not None and info.is_collection:
                values[name] = self._to_dataset(value)
            else:
                values[name] = value
        missing = [
            name
            for name, info in program.variables.items()
            if info.is_input and name not in values
        ]
        if missing:
            raise ExecutionError(f"missing program inputs: {', '.join(sorted(missing))}")
        return values

    def _to_dataset(self, value: Any) -> Dataset:
        if isinstance(value, Dataset):
            return value
        if isinstance(value, dict):
            return self.context.parallelize_pairs(value)
        if isinstance(value, (list, tuple)):
            # Plain sequences become indexed collections: (position, element).
            # Pass a dict or a Dataset of pairs to supply explicit keys.
            return self.context.indexed(list(value))
        raise ExecutionError(f"cannot convert {type(value).__name__} to a dataset")

    # -- statement execution -----------------------------------------------------

    def _execute_block(
        self,
        statements: tuple[TargetStatement, ...],
        program: TargetProgram,
        environment: EvaluationEnvironment,
        state: _RunState,
    ) -> None:
        for statement in statements:
            if isinstance(statement, TargetAssign):
                self._execute_assign(statement, program, environment, state)
            elif isinstance(statement, TargetWhile):
                self._execute_while(statement, program, environment, state)
            else:
                raise ExecutionError(f"unknown target statement {statement!r}")

    def _execute_assign(
        self,
        statement: TargetAssign,
        program: TargetProgram,
        environment: EvaluationEnvironment,
        state: _RunState,
    ) -> None:
        evaluator = TermEvaluator(
            environment, state.trace, state.loop_cache, state.skeleton_cache, program.segments
        )
        fused_before = self.context.metrics.fused_stages
        shuffles_before = self.context.metrics.shuffles
        result = evaluator.evaluate(statement.term)
        info = program.variables.get(statement.variable)
        is_collection = info is not None and info.is_collection
        if statement.scalar:
            value = self._extract_scalar(result, statement, environment)
            if is_collection and not isinstance(value, Dataset):
                value = self._coerce_collection(value)
            environment.values[statement.variable] = value
        else:
            if not isinstance(result, Dataset):
                result = evaluator.as_dataset(result)
            # Assignment is a force point: the pending stage chain closes over
            # the shared variable environment, which later statements mutate,
            # so it must run before this statement completes.
            result.materialize()
            result = self._place_for_demand(statement.variable, result, state)
            environment.values[statement.variable] = result
        if state.loop_cache is not None:
            # Belt and braces: the invariant analysis already excludes every
            # assigned variable, but a cache keyed on stale data would be a
            # silent wrong answer -- drop anything derived from this name.
            state.loop_cache.invalidate(statement.variable)
        if state.skeleton_cache is not None:
            state.skeleton_cache.invalidate(statement.variable)
        self._trace_fusion(statement.variable, fused_before, shuffles_before, state.trace)

    def _place_inputs(
        self,
        program: TargetProgram,
        environment: EvaluationEnvironment,
        state: _RunState,
    ) -> None:
        """Pre-place program inputs demanded by >= 2 keyed consumers.

        The per-statement planner sees one consumer at a time, so an input
        that several statements join or group on is shuffled once *per
        consumer*; the whole-program demand counts justify hash-partitioning
        it once up front instead.  Variables the program assigns are skipped
        (their own force point runs :meth:`_place_for_demand`, and merges
        leave them placed anyway), as is anything that is not an unplaced
        pair dataset.  Only top-level consumers count: an unmutated input
        read inside a while loop is loop-invariant there and the loop cache
        already shuffles it exactly once, so pre-placing it would only add
        a shuffle.  Inputs small enough to broadcast are skipped too --
        their joins resolve shuffle-free anyway, so placement could only
        add a partitionBy."""
        assigned = self._assigned_variables(program.statements)
        demand = keyed_demand_counts(program, top_level_only=True)
        for name in sorted(environment.values):
            if name in assigned or demand.get(name, 0) < 2:
                continue
            value = environment.values[name]
            if not isinstance(value, Dataset) or value.partitioner is not None:
                continue
            if value.count() <= self.context.broadcast_join_threshold:
                continue
            first = value.take(1)
            if not first or not (isinstance(first[0], tuple) and len(first[0]) == 2):
                continue
            placed = value.partition_by(HashPartitioner(self.context.num_partitions))
            placed.materialize()
            environment.values[name] = placed
            state.trace.append(
                f"{name}: program-level placement for "
                f"{demand[name]} keyed consumer(s) (hash-partitioned)"
            )

    def _place_for_demand(self, variable: str, dataset: Dataset, state: _RunState) -> Dataset:
        """The program-level partitioner pass, applied at the force point.

        A freshly assigned pair dataset that carries no partitioner but has
        at least two downstream keyed consumers (see
        :func:`~repro.algebra.planner.keyed_demand_counts`) is
        hash-partitioned once: the per-statement planner sees one consumer
        at a time and could never justify the placement shuffle, but across
        the whole program it buys a narrow (zero-shuffle) pass per consumer.
        Loop-assigned variables are excluded -- their content churns every
        iteration and the loop-invariant machinery already places the stable
        side of their joins."""
        if not self.context.plan_optimize:
            return dataset
        if variable in state.loop_assigned or state.keyed_demand.get(variable, 0) < 2:
            return dataset
        if dataset.partitioner is not None:
            return dataset
        first = dataset.take(1)
        if not first or not (isinstance(first[0], tuple) and len(first[0]) == 2):
            return dataset
        placed = dataset.partition_by(HashPartitioner(self.context.num_partitions))
        state.trace.append(
            f"{variable}: program-level placement for "
            f"{state.keyed_demand[variable]} keyed consumer(s) (hash-partitioned)"
        )
        return placed

    def _trace_fusion(
        self, variable: str, fused_before: int, shuffles_before: int, trace: list[str]
    ) -> None:
        metrics = self.context.metrics
        fused = metrics.fused_stages - fused_before
        if fused:
            trace.append(f"{variable}: executed {fused} fused narrow stage(s)")
        shuffled = metrics.shuffles - shuffles_before
        if shuffled:
            trace.append(f"{variable}: executed {shuffled} shuffle stage(s)")

    def _extract_scalar(
        self, result: Any, statement: TargetAssign, environment: EvaluationEnvironment
    ) -> Any:
        if isinstance(result, Dataset):
            values = result.take(1)
        elif isinstance(result, list):
            values = result[:1]
        else:
            return result
        if values:
            return values[0]
        # An empty bag means "no update" (e.g. an incremental update over an
        # empty collection); keep the current value when one exists.
        if statement.variable in environment.values:
            return environment.values[statement.variable]
        return None

    def _coerce_collection(self, value: Any) -> Any:
        if isinstance(value, dict):
            return self.context.parallelize_pairs(value)
        if isinstance(value, (list, tuple)):
            return self.context.parallelize_raw(list(value))
        return value

    # -- while loops -------------------------------------------------------------

    @staticmethod
    def _assigned_variables(statements: tuple[TargetStatement, ...]) -> set[str]:
        """Every variable a statement block assigns, nested loops included."""
        assigned: set[str] = set()
        for statement in statements:
            if isinstance(statement, TargetAssign):
                assigned.add(statement.variable)
            elif isinstance(statement, TargetWhile):
                assigned |= ProgramRunner._assigned_variables(statement.body)
        return assigned

    @staticmethod
    def _loop_assigned_variables(statements: tuple[TargetStatement, ...]) -> frozenset[str]:
        """Variables assigned inside any ``while`` body of the program."""
        names: set[str] = set()
        for statement in statements:
            if isinstance(statement, TargetWhile):
                names |= ProgramRunner._assigned_variables(statement.body)
        return frozenset(names)

    def _execute_while(
        self,
        statement: TargetWhile,
        program: TargetProgram,
        environment: EvaluationEnvironment,
        state: _RunState,
    ) -> None:
        assigned = self._assigned_variables(statement.body)
        invariants = frozenset(name for name in environment.values if name not in assigned)
        loop_cache = LoopInvariantCache(invariants) if self.context.plan_optimize else None
        outer_cache = state.loop_cache
        state.loop_cache = loop_cache
        outer_skeletons = state.skeleton_cache
        state.skeleton_cache = PlanSkeletonCache() if self.context.plan_cache else None
        state.loops_seen += 1
        loop_index = state.loops_seen
        if loop_cache is not None and invariants:
            state.trace.append(
                f"while loop {loop_index}: loop-invariant variables "
                f"{{{', '.join(sorted(invariants))}}}"
            )
        metrics = self.context.metrics
        iterations = 0
        try:
            while True:
                evaluator = TermEvaluator(
                    environment,
                    state.trace,
                    state.loop_cache,
                    state.skeleton_cache,
                    program.segments,
                )
                condition = evaluator.evaluate(statement.condition)
                if isinstance(condition, Dataset):
                    condition_values = condition.take(1)
                elif isinstance(condition, list):
                    condition_values = condition[:1]
                else:
                    condition_values = [condition]
                alive = bool(condition_values[0]) if condition_values else False
                if not alive:
                    return
                before = {name: getattr(metrics, name) for name in _ITERATION_COUNTERS}
                self._execute_block(statement.body, program, environment, state)
                iterations += 1
                snapshot = {
                    name: getattr(metrics, name) - before[name]
                    for name in _ITERATION_COUNTERS
                }
                snapshot["loop"] = loop_index
                snapshot["iteration"] = iterations
                state.iteration_metrics.append(snapshot)
                state.trace.append(
                    f"while loop {loop_index} iteration {iterations}: "
                    f"{snapshot['shuffles']} shuffle(s), "
                    f"{snapshot['shuffled_bytes']} bytes shuffled, "
                    f"{snapshot['loop_invariant_reuses']} loop-invariant reuse(s)"
                )
                if iterations > MAX_WHILE_ITERATIONS:
                    raise ExecutionError("while loop exceeded the iteration limit")
        finally:
            state.loop_cache = outer_cache
            state.skeleton_cache = outer_skeletons
