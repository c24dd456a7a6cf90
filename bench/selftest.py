"""``python3 -m bench --selftest``: a quick check of the benchmark itself.

Tiny inputs, one sample: every workload runs untraced and traced, and the
things a broken benchmark would get wrong silently are asserted -- metric
and workload names agree with ``BENCHMARK.json``, every trace target
resolves and is restored by identity, a wrong output is counted as a failed
op instead of crashing, and no spill file or worker process is left behind.

Not named ``test_*.py`` on purpose: the repository's test run must not
collect it.
"""

from __future__ import annotations

import os
import sys
import time

from bench import load_spec, measure
from bench import trace as trace_mod
from bench import workloads as workloads_mod


#: Counters that must stay zero for a workload to bypass the layer it is
#: meant to bypass (the other half of "stresses the layer it was chosen for").
MUST_BE_ZERO = {
    "scan_columnar": ("runtime.stage.shuffles", "runtime.columnar.fallbacks"),
    "scalar_fold": ("runtime.stage.shuffles", "runtime.columnar.vectorized_stages"),
    "iterative_cluster": ("runtime.cluster.driver_payload_bytes", "runtime.cluster.fallbacks"),
}


def require(condition: object, message: object) -> None:
    """Like ``assert``, but not compiled away under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _trace_targets() -> list[object]:
    return [
        vars(trace_mod.resolve_owner(target.owner))[target.attribute]
        for target in trace_mod.WRAP_TABLE
    ]


def _check_names() -> None:
    spec = load_spec()
    names = [(w["name"], w["why"]) for w in spec["workloads"]]
    require(
        names == [(w.name, w.why) for w in workloads_mod.WORKLOADS],
        "BENCHMARK.json workloads differ from bench/workloads.py",
    )
    for key, units in (("end_to_end", measure.END_TO_END_UNITS), ("per_layer", measure.PER_LAYER_UNITS)):
        listed = {metric["name"]: metric["unit"] for metric in spec[key]}
        require(listed == units, f"BENCHMARK.json {key} differs from bench/measure.py")


def _check_failure_accounting(scratch_dir: str) -> None:
    """A wrong expected value and a raising op each count as one failed op."""
    workload = workloads_mod.BY_NAME["scan_columnar"]
    inputs = workloads_mod.make_inputs(workload, seed=7, selftest=True)
    expected = workloads_mod.expected_outputs(workload, inputs)
    corrupted = {name: value + 1.0 for name, value in expected.items()}
    session = workloads_mod.open_session(workload, inputs, scratch_dir)
    try:
        tally = measure.Tally()
        require(measure.checked_op(session.op, expected, tally, "good"), "a correct op was rejected")
        require(not measure.checked_op(session.op, corrupted, tally, "corrupted"), "a wrong output passed")
        require(not measure.checked_op(lambda: 1 // 0, expected, tally, "raising"), "a raising op passed")
        require((tally.attempted, tally.failed) == (3, 2), (tally.attempted, tally.failed))
    finally:
        session.close()


def _check_layers(workload: workloads_mod.Workload, metrics: dict[str, dict[str, float]]) -> None:
    attributed = metrics["trace.attributed_frac"]["value"]
    require(0 < attributed <= 1, f"{workload.name}: trace.attributed_frac is {attributed}")
    for name in MUST_BE_ZERO.get(workload.name, ()):
        require(metrics[name]["value"] == 0, f"{workload.name}: {name} should be 0")
    spilled = metrics["runtime.spill.spilled_bytes"]["value"]
    require((spilled > 0) == workload.spills, f"{workload.name}: spilled {spilled} bytes")


def main() -> int:
    started = time.perf_counter()
    _check_names()
    originals = _trace_targets()
    scratch_dir = measure.make_scratch_dir()
    try:
        measure.scrub_environment(scratch_dir)
        measure.pin_to_one_cpu()
        _check_failure_accounting(scratch_dir)
        for workload in workloads_mod.WORKLOADS:
            for trace in (False, True):
                record = measure.run_workload(
                    workload, seed=7, seconds=0, trace=trace, scratch_dir=scratch_dir, selftest=True
                )
                require(record["correct"] and record["failed"] == 0, record["errors"])
                require(record["attempted"] >= 3, record["attempted"])
                units = measure.PER_LAYER_UNITS if trace else measure.END_TO_END_UNITS
                require(list(record["metrics"]) == list(units), "a run left a metric out")
                if trace:
                    _check_layers(workload, record["metrics"])
            print(f"selftest: {workload.name} ok", file=sys.stderr)
        restored = _trace_targets()
        require(
            all(a is b for a, b in zip(originals, restored, strict=True)), "a shim was left installed"
        )
        leftovers = [
            os.path.join(folder, name)
            for folder, _, names in os.walk(scratch_dir)
            for name in names
            if name.endswith(".spill")
        ]
        require(not leftovers, f"spill files left behind: {leftovers}")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass  # no child left: every cluster worker was stopped and reaped
        else:
            raise AssertionError("a child process is still running after the last workload")
    finally:
        measure.remove_scratch_dir(scratch_dir)
    print(f"selftest: ok in {time.perf_counter() - started:.1f} s")
    return 0
