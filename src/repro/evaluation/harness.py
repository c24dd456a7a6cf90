"""Shared helpers for the experiment harness and the benchmark suite."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import Diablo
from repro.algebra.runner import ProgramResult
from repro.baselines import get_baseline
from repro.programs import ProgramSpec, get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program


@dataclass
class TimedRun:
    """A result value together with the wall-clock seconds it took to produce."""

    value: Any
    seconds: float


def time_call(function: Callable[[], Any]) -> TimedRun:
    """Run ``function`` once and measure it."""
    started = time.perf_counter()
    value = function()
    return TimedRun(value, time.perf_counter() - started)


def diablo_for(
    spec: ProgramSpec | str,
    context: DistributedContext | None = None,
    **compiler_options: Any,
) -> Diablo:
    """A :class:`Diablo` instance with the program's functions and monoids
    registered, compiling for the program's declared outputs."""
    if isinstance(spec, str):
        spec = get_program(spec)
    diablo = Diablo(
        context or DistributedContext(num_partitions=4),
        outputs=(*spec.scalar_outputs, *spec.array_outputs),
        **compiler_options,
    )
    for name, function in spec.functions.items():
        diablo.register_function(name, function)
    for monoid in spec.monoids:
        diablo.register_monoid(monoid)
    return diablo


def default_inputs(name: str, size: int) -> dict[str, Any]:
    """The benchmark inputs for program ``name`` at ``size`` (seeded, reproducible)."""
    return workload_for_program(name, size)


def run_translated(
    name: str,
    inputs: dict[str, Any],
    context: DistributedContext | None = None,
    **compiler_options: Any,
) -> TimedRun:
    """Compile and run the DIABLO program; the timing covers execution only."""
    spec = get_program(name)
    diablo = diablo_for(spec, context, **compiler_options)
    compiled = diablo.compile(spec.source)
    return time_call(lambda: compiled.run(**inputs))


def run_baseline(
    name: str, inputs: dict[str, Any], context: DistributedContext | None = None
) -> TimedRun:
    """Run the hand-written distributed baseline for program ``name``."""
    module = get_baseline(name)
    ctx = context or DistributedContext(num_partitions=4)
    return time_call(lambda: module.distributed(ctx, inputs))


def run_sequential_baseline(name: str, inputs: dict[str, Any]) -> TimedRun:
    """Run the plain-Python sequential baseline for program ``name``."""
    module = get_baseline(name)
    return time_call(lambda: module.sequential(inputs))


def run_sequential_interpreter(name: str, inputs: dict[str, Any]) -> TimedRun:
    """Run the loop program sequentially with the reference interpreter."""
    spec = get_program(name)
    diablo = diablo_for(spec)
    return time_call(lambda: diablo.interpret(spec.source, dict(inputs)))


def translated_outputs(name: str, result: ProgramResult) -> dict[str, Any]:
    """Extract the program's declared outputs (scalars plus arrays as dicts)."""
    spec = get_program(name)
    outputs: dict[str, Any] = {}
    for scalar in spec.scalar_outputs:
        outputs[scalar] = result[scalar]
    for array in spec.array_outputs:
        outputs[array] = result.array(array)
    return outputs
