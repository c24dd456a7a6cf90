"""Outside-in layer tracing: bench-owned shims around public callables.

Nothing under ``src/`` knows about tracing.  :data:`WRAP_TABLE` names, per
layer, the callables that form its boundary; :class:`Tracer` replaces each
with a wrapper that opens a span (layer, start) on a per-thread stack, closes
it when the call returns, and puts the original back afterwards.  A layer's
**self time** is its spans' duration minus the part their child spans cover,
so the layers of one op add up to the op instead of double counting nested
calls.  Closed spans are folded into per-layer totals straight away: a
spilling shuffle closes one span per record read back.

Targets are patched *where they are looked up*: a function that the caller
imported by name (``from x import f``) is patched in the caller's module.
A target that does not resolve is an error -- a renamed function must not
turn into a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Iterator, NamedTuple

#: The bench-owned root span around one whole op.
OP_LAYER = "op"


class Target(NamedTuple):
    """One callable to wrap: ``getattr(resolve(owner), attribute)``.

    ``owner`` is ``"package.module"`` or ``"package.module:Class"``.
    ``in_task`` marks code that runs inside a task: a cluster context runs
    it on the workers (and recognises the shuffle writers by identity), so
    those targets are left alone there.
    """

    layer: str
    owner: str
    attribute: str
    in_task: bool = False


def _targets(layer: str, owner: str, *attributes: str, in_task: bool = False) -> list[Target]:
    return [Target(layer, owner, attribute, in_task) for attribute in attributes]


_CONTEXT = "repro.runtime.context:DistributedContext"
_CLUSTER = "repro.runtime.cluster.context:ClusterContext"
_DATASET = "repro.runtime.dataset:Dataset"
_PLANNER = "repro.algebra.planner:Planner"
_STAGE = "repro.runtime.stage"
_COLUMNAR = "repro.runtime.columnar:ColumnarPartition"

WRAP_TABLE: tuple[Target, ...] = (
    # compiler front to back (all reached from DiabloCompiler._translate)
    *_targets("loop_lang.parse", "repro.translate.translator", "parse_program"),
    *_targets("translate.canonicalize", "repro.translate.translator", "canonicalize_increments"),
    *_targets("analysis.restrictions", "repro.analysis.restrictions:RestrictionChecker", "require"),
    *_targets("translate.rules", "repro.translate.rules:TranslationRules", "statement"),
    *_targets("comprehension.normalize", "repro.translate.translator", "normalize"),
    *_targets("comprehension.normalize", "repro.comprehension.optimize", "normalize"),
    *_targets("comprehension.optimize", "repro.comprehension.optimize:Optimizer", "optimize"),
    # algebra: statement loop, term evaluation, plan lowering
    *_targets("algebra.runner.self", "repro.algebra.runner:ProgramRunner", "run"),
    *_targets("algebra.evaluator.self", "repro.algebra.evaluator:TermEvaluator", "evaluate"),
    *_targets("algebra.planner.lower", _PLANNER, "lower"),
    *_targets("algebra.planner.relower", _PLANNER, "relower"),
    # runtime, driver side
    *_targets(
        "runtime.context.parallelize",
        _CONTEXT,
        "parallelize",
        "parallelize_raw",
        "parallelize_pairs",
        "indexed",
        "range_dataset",
    ),
    *_targets("runtime.context.run_tasks", _CONTEXT, "run_tasks"),
    *_targets("runtime.context.run_tasks", _CLUSTER, "run_tasks"),
    *_targets("runtime.context.run_shuffle", _CONTEXT, "run_shuffle"),
    *_targets("runtime.context.run_shuffle", _CLUSTER, "run_shuffle"),
    *_targets(
        "runtime.dataset.collect",
        _DATASET,
        "collect",
        "collect_as_map",
        "take",
        "count",
        "reduce",
        "fold",
        "aggregate",
    ),
    # runtime, inside tasks
    *_targets(
        "runtime.stage.shuffle_write",
        _STAGE,
        "shuffle_write",
        "salted_shuffle_write",
        "prepartitioned_write",
        "repartition_write",
        in_task=True,
    ),
    *_targets(
        "runtime.stage.reduce",
        _STAGE,
        "reduce_bucket",
        "group_bucket",
        "group_merge_bucket",
        "join_bucket",
        "cogroup_bucket",
        "read_bucket",
        "sort_bucket",
        in_task=True,
    ),
    *_targets("runtime.columnar.from_records", _COLUMNAR, "from_records", in_task=True),
    *_targets("runtime.columnar.to_records", _COLUMNAR, "to_records", in_task=True),
    *_targets("runtime.spill.write", "repro.runtime.spill", "append_run", in_task=True),
    *_targets("runtime.spill.read", "repro.runtime.spill", "stream_run", "read_run", in_task=True),
    # cluster wire (driver side: dumps on the dispatching thread, loads on
    # the per-worker connection threads)
    *_targets("runtime.cluster.dumps", "repro.runtime.cluster.wire", "cluster_dumps"),
    *_targets("runtime.cluster.loads", "repro.runtime.cluster.wire", "cluster_loads"),
    *_targets("runtime.cluster.frames", "repro.runtime.cluster.protocol", "encode_message"),
)

#: Every layer the table can report, in table order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in WRAP_TABLE))


def resolve_owner(owner: str) -> Any:
    """The module or class a :class:`Target` lives on."""
    module_name, _, class_name = owner.partition(":")
    resolved = importlib.import_module(module_name)
    return getattr(resolved, class_name) if class_name else resolved


class LayerTotals(NamedTuple):
    self_seconds: float
    calls: int
    result_bytes: int


class _ThreadSpans:
    """One thread's stack of open spans and its per-layer running totals.

    An open span is ``[layer, start, child_seconds]``.  The totals dict has
    every layer from the start, so another thread can read it while this
    one keeps counting.
    """

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        self.totals: dict[str, list[Any]] = {layer: [0.0, 0, 0] for layer in (OP_LAYER, *LAYERS)}

    def close(self, ended: float, result: Any = None) -> None:
        layer, started, child_seconds = self.stack.pop()
        duration = ended - started
        totals = self.totals[layer]
        totals[0] += duration - child_seconds
        totals[1] += 1
        if isinstance(result, bytes):
            totals[2] += len(result)
        if self.stack:
            self.stack[-1][2] += duration


class Tracer:
    """Installs the shims, accumulates span self times, restores the originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- span recording ------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    def _call(self, layer: str, function: Callable[..., Any], args: Any, kwargs: Any) -> Any:
        state = self._state()
        result = None
        state.stack.append([layer, time.perf_counter(), 0.0])
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            state.close(time.perf_counter(), result)

    def _iterate(self, layer: str, iterator: Iterator[Any]) -> Iterator[Any]:
        """Re-yield ``iterator`` with one span per ``next``, so only the time
        spent *inside* the generator body counts, not its consumer's."""
        state = self._state()
        stack = state.stack
        clock = time.perf_counter
        while True:
            stack.append([layer, clock(), 0.0])
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                state.close(clock())
            yield item

    def op(self, function: Callable[[], Any]) -> Any:
        """Run one whole op under the root span."""
        return self._call(OP_LAYER, function, (), {})

    # -- shims ---------------------------------------------------------------

    def _wrapper(self, layer: str, original: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self._iterate(layer, original(*args, **kwargs))

        else:

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self._call(layer, original, args, kwargs)

        return traced

    def install(self, include_in_task: bool = True) -> None:
        """Wrap every table target (all of them resolve, or nothing is patched)."""
        if self._installed:
            raise RuntimeError("tracer shims are already installed")
        planned = []
        for target in WRAP_TABLE:
            owner = resolve_owner(target.owner)
            try:
                raw = vars(owner)[target.attribute]
            except KeyError:
                raise LookupError(
                    f"trace target {target.owner}.{target.attribute} ({target.layer}) does not exist"
                ) from None
            if target.in_task and not include_in_task:
                continue
            planned.append((target.layer, owner, target.attribute, raw))
        for layer, owner, attribute, raw in planned:
            if isinstance(raw, (classmethod, staticmethod)):
                shim: Any = type(raw)(self._wrapper(layer, raw.__func__))
            else:
                shim = self._wrapper(layer, raw)
            setattr(owner, attribute, shim)
            self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Put every original back (``--selftest`` checks identity afterwards)."""
        installed, self._installed = self._installed, []
        for owner, attribute, raw in installed:
            setattr(owner, attribute, raw)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, LayerTotals]:
        """Self seconds, span count and result bytes per layer, over all threads."""
        with self._lock:
            threads = list(self._threads)
        merged = {}
        for layer in (OP_LAYER, *LAYERS):
            rows = [state.totals[layer] for state in threads]
            merged[layer] = LayerTotals(
                sum(row[0] for row in rows), sum(row[1] for row in rows), sum(row[2] for row in rows)
            )
        return merged
