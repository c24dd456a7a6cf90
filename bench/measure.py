"""One benchmark run: set a workload up, sample it, check it, trace it.

Method (fixed here, not flags): closed loop, one caller, one op at a time,
everything on one CPU.  Before and after every timed sample the garbage
collector runs and the frozen calibration loop of :mod:`bench.calibrate` is
timed; the sample is ``op seconds / mean of the two calibration seconds``.
Every op -- cold, warm, timed or traced -- has its outputs compared with the
oracle outside the timed region, and an op that raises counts as failed, it
does not end the run.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from bench import ROOT
from bench import trace as trace_mod
from bench import workloads as workloads_mod
from bench.calibrate import REFERENCE_SECONDS, calibrate
from bench.workloads import Session, Workload


class Counts(NamedTuple):
    """How often a run repeats each of its parts."""

    setups: int  # set-ups per run; ``setup_s`` is their median
    samples: int  # timed samples taken even when ``--seconds`` is already used up
    traced: int  # the same, for each half of a traced run
    baselines: int  # samples of the hand-written and of the plain-Python program


COUNTS = Counts(setups=5, samples=5, traced=3, baselines=8)
SELFTEST_COUNTS = Counts(setups=1, samples=1, traced=1, baselines=1)
#: A traced run splits ``--seconds`` between untraced and traced sampling.
TRACE_SHARE = 0.5

END_TO_END_UNITS = {"run_norm": "x_calib", "setup_s": "s", "peak_rss_mb": "MiB"}

#: ``context.metrics`` counters reported per op, by per-layer metric name.
COUNTERS = {
    "algebra.planner.plan_cache_hits": "plan_cache_hits",
    "algebra.planner.loop_invariant_reuses": "loop_invariant_reuses",
    "runtime.context.narrow_tasks": "narrow_tasks",
    "runtime.context.records_processed": "records_processed",
    "runtime.context.fused_stages": "fused_stages",
    "runtime.stage.shuffles": "shuffles",
    "runtime.stage.shuffled_records": "shuffled_records",
    "runtime.stage.shuffled_bytes": "shuffled_bytes",
    "runtime.stage.shuffles_eliminated": "shuffles_eliminated",
    "runtime.columnar.vectorized_stages": "vectorized_stages",
    "runtime.columnar.fallbacks": "columnar_fallbacks",
    "runtime.columnar.memoized_skips": "columnar_memoized_skips",
    "runtime.columnar.resident_reuses": "columnar_resident_reuses",
    "runtime.spill.spilled_bytes": "spilled_bytes",
    "runtime.spill.spill_files": "spill_files",
    "runtime.spill.peak_shuffle_memory": "peak_shuffle_memory",
    "runtime.cluster.parallel_tasks": "parallel_tasks",
    "runtime.cluster.worker_payload_fetches": "worker_payload_fetches",
    "runtime.cluster.worker_payload_bytes": "worker_payload_bytes",
    "runtime.cluster.driver_payload_bytes": "driver_payload_bytes",
    "runtime.cluster.fallbacks": "cluster_fallbacks",
}
_BYTE_COUNTERS = {name for name in COUNTERS if name.endswith(("_bytes", "peak_shuffle_memory"))}

#: ``protocol.encode_message`` is wrapped to count frames and their bytes;
#: its self time (a header pack around ``cluster_dumps``) is not a metric.
_FRAMES = "runtime.cluster.frames"
TIMED_LAYERS = tuple(layer for layer in trace_mod.LAYERS if layer != _FRAMES)
#: Span counts per op reported as metrics of their own, by traced layer.
CALL_COUNTS = {
    "algebra.evaluator.calls": "algebra.evaluator.self",
    "runtime.context.run_tasks_calls": "runtime.context.run_tasks",
    "runtime.columnar.from_records_calls": "runtime.columnar.from_records",
    _FRAMES: _FRAMES,
}

#: Per-layer metrics that are neither a layer's self time nor a counter.
_DERIVED_UNITS = {
    "translate.target_statements": "count",
    "comprehension.rewrites": "count",
    "runtime.stage.combiner_hit_rate": "ratio",
    "runtime.columnar.vectorized_frac": "ratio",
    "runtime.cluster.frame_bytes": "bytes",
    "runtime.cluster.worker_peak_rss_mb": "MiB",
    "baselines.handwritten_norm": "x_calib",
    "baselines.sequential_norm": "x_calib",
    "baselines.ratio_vs_handwritten": "ratio",
    "setup.import_s": "s",
    "setup.inputgen_s": "s",
    "setup.context_s": "s",
    "setup.compile_s": "s",
    "setup.cold_run_s": "s",
    "raw.run_s": "s",
    "raw.calib_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}_norm": "x_calib" for layer in TIMED_LAYERS},
    **dict.fromkeys(CALL_COUNTS, "count"),
    **{name: ("bytes" if name in _BYTE_COUNTERS else "count") for name in COUNTERS},
    **_DERIVED_UNITS,
}


class Tally:
    """Ops attempted and failed in one run, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)


def checked_op(
    op: Callable[[], Any], expected: dict[str, Any], tally: Tally, label: str
) -> tuple[Any, float] | None:
    """Run ``op`` once: ``(outputs, seconds)``, or None when it raised or its
    outputs missed the oracle (the check is outside the timed region)."""
    tally.attempted += 1
    started = time.perf_counter()
    try:
        outputs = op()
    except Exception:  # an op failure is a result to report, not a crash
        tally.fail(f"{label}: raised\n{traceback.format_exc()}")
        return None
    seconds = time.perf_counter() - started
    if not workloads_mod.outputs_match(outputs, expected):
        tally.fail(f"{label}: outputs differ from the oracle")
        return None
    return outputs, seconds


@dataclass
class Sample:
    """One timed sample: the op between two passes of the calibration loop."""

    calib_s: float  # mean of the pass just before and the pass just after the op
    run_s: float
    outputs: Any
    counters: dict[str, int]

    @property
    def norm(self) -> float:
        return self.run_s / self.calib_s


def settled_calibration() -> float:
    """Collect garbage, then time one pass of the calibration loop."""
    gc.collect()
    return calibrate()


def sample_for(
    seconds: float,
    session: Session,
    expected: dict[str, Any],
    tally: Tally,
    label: str,
    op: Callable[[], Any] | None = None,
    min_samples: int = COUNTS.samples,
) -> list[Sample]:
    """Timed samples until ``seconds`` have passed (at least ``min_samples`` attempts).

    The machine's speed changes within an op's length, so an op is divided by
    the mean of the calibration passes on both sides of it; the pass after one
    op is the pass before the next.
    """
    deadline = time.perf_counter() + seconds
    samples: list[Sample] = []
    attempts = 0
    before = settled_calibration()
    while attempts < min_samples or time.perf_counter() < deadline:
        attempts += 1
        session.context.metrics.reset()
        outcome = checked_op(op or session.op, expected, tally, f"{label} {attempts}")
        counters = session.context.metrics.snapshot()
        after = settled_calibration()
        if outcome is not None:
            if samples:
                samples[-1].outputs = None  # only the latest outputs are ever looked at
            outputs, run_s = outcome
            samples.append(Sample((before + after) / 2, run_s, outputs, counters))
        before = after
    return samples


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scratch_dir: str,
    import_s: float = 0.0,
    selftest: bool = False,
) -> dict[str, Any]:
    """One run of one workload; the record the CLI prints and ``--out`` stores."""
    tally = Tally()
    started = time.perf_counter()
    inputs = workloads_mod.make_inputs(workload, seed, selftest)
    inputgen_s = time.perf_counter() - started
    expected = workloads_mod.expected_outputs(workload, inputs)

    # Set-up, several times over: context (cluster workers included), compile,
    # cold op.  The last session is the one that gets measured.
    counts = SELFTEST_COUNTS if selftest else COUNTS
    setups: list[dict[str, float]] = []
    for repeat in range(counts.setups):
        before = settled_calibration()
        setup_started = time.perf_counter()
        session = workloads_mod.open_session(workload, inputs, scratch_dir)
        cold_started = time.perf_counter()
        checked_op(session.op, expected, tally, f"cold {repeat + 1}")
        ended = time.perf_counter()
        at_reference_speed = REFERENCE_SECONDS / ((before + settled_calibration()) / 2)
        setups.append(
            {
                "setup_s": (ended - setup_started) * at_reference_speed,
                "context_s": session.context_s * at_reference_speed,
                "compile_s": session.compile_s * at_reference_speed,
                "cold_run_s": (ended - cold_started) * at_reference_speed,
                "measured_s": ended - setup_started,
            }
        )
        if repeat + 1 < counts.setups:
            session.close()
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setups": setups,
    }
    try:
        checked_op(session.op, expected, tally, "warm")
        if trace:
            metrics = _traced_run(workload, session, inputs, expected, tally, seconds, counts, record)
        else:
            samples = sample_for(seconds, session, expected, tally, "timed", min_samples=counts.samples)
            record["samples"] = _sample_columns(samples)
            metrics = {
                "run_norm": _median([sample.norm for sample in samples]),
                "setup_s": _median([setup["setup_s"] for setup in setups]),
            }
    finally:
        session.close()
    if trace:
        metrics["setup.import_s"] = import_s
        metrics["setup.inputgen_s"] = inputgen_s
        for phase in ("context_s", "compile_s", "cold_run_s"):
            metrics[f"setup.{phase}"] = _median([setup[phase] for setup in setups])
        if workload.config.get("executor_mode") == "cluster":
            # The workers are reaped by now, so RUSAGE_CHILDREN covers them.
            metrics["runtime.cluster.worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        units = PER_LAYER_UNITS
    else:
        metrics["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
        units = END_TO_END_UNITS
    record.update(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    return record


def _sample_columns(samples: list[Sample]) -> dict[str, list[float]]:
    return {
        "run_norm": [sample.norm for sample in samples],
        "run_s": [sample.run_s for sample in samples],
        "calib_s": [sample.calib_s for sample in samples],
    }


def _traced_run(
    workload: Workload,
    session: Session,
    inputs: dict[str, Any],
    expected: dict[str, Any],
    tally: Tally,
    seconds: float,
    counts: Counts,
    record: dict[str, Any],
) -> dict[str, float]:
    """Untraced samples, then the same op under the shims, then the baselines."""
    untraced = sample_for(
        seconds * (1 - TRACE_SHARE), session, expected, tally, "untraced", min_samples=counts.traced
    )
    tracer = trace_mod.Tracer()
    # A cluster context runs tasks on its workers and recognises the shuffle
    # writers by identity: shimming in-task code there would change what runs.
    tracer.install(include_in_task=session.context.executor != "cluster")
    try:
        traced = sample_for(
            seconds * TRACE_SHARE,
            session,
            expected,
            tally,
            "traced",
            op=lambda: tracer.op(session.op),
            min_samples=counts.traced,
        )
    finally:
        tracer.uninstall()
    record["samples"] = _sample_columns(untraced)
    record["traced_samples"] = _sample_columns(traced)
    record["traced_ops"] = len(traced)

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if not traced or not untraced:
        return metrics  # every op failed; the tally says so
    totals = tracer.totals()
    # Sum of self seconds over sum of calibration seconds: the layers of an op
    # then add up to the traced op's own normalised time.
    calib_total = sum(sample.calib_s for sample in traced)
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_norm"] = totals[layer].self_seconds / calib_total
    for name, layer in CALL_COUNTS.items():
        metrics[name] = totals[layer].calls / len(traced)
    metrics["runtime.cluster.frame_bytes"] = totals[_FRAMES].result_bytes / len(traced)

    last = traced[-1]
    for name, counter in COUNTERS.items():
        metrics[name] = last.counters[counter]
    if untraced[-1].counters != last.counters:
        tally.fail("traced: the shims changed what the runtime did (counters differ from an untraced op)")
    combined = last.counters["combiner_input_records"]
    if combined:
        metrics["runtime.stage.combiner_hit_rate"] = 1 - last.counters["combiner_output_records"] / combined
    planned = last.counters["vectorized_stages"] + last.counters["columnar_fallbacks"]
    if planned:
        metrics["runtime.columnar.vectorized_frac"] = last.counters["vectorized_stages"] / planned
    if workload.kind == "compile":
        metrics["translate.target_statements"] = last.outputs["target_statements"]
        metrics["comprehension.rewrites"] = last.outputs["rewrites"]

    op_total = totals[trace_mod.OP_LAYER]
    op_seconds = sum(sample.run_s for sample in traced)
    metrics["trace.attributed_frac"] = 1 - op_total.self_seconds / op_seconds
    run_norm = _median([sample.norm for sample in untraced])
    metrics["trace.overhead_frac"] = _median([sample.norm for sample in traced]) / run_norm - 1
    metrics["raw.run_s"] = _median([sample.run_s for sample in untraced])
    metrics["raw.calib_s"] = _median([sample.calib_s for sample in untraced])

    handwritten = workloads_mod.handwritten_op(workload, session.context, inputs)
    sequential = workloads_mod.sequential_op(workload, inputs)
    if workload.kind == "handwritten":
        metrics["baselines.handwritten_norm"] = run_norm  # the op *is* the hand-written program
    elif handwritten is not None:
        samples = sample_for(0, session, expected, tally, "handwritten", handwritten, counts.baselines)
        metrics["baselines.handwritten_norm"] = _median([sample.norm for sample in samples])
    if sequential is not None:
        samples = sample_for(0, session, expected, tally, "sequential", sequential, counts.baselines)
        metrics["baselines.sequential_norm"] = _median([sample.norm for sample in samples])
    if metrics["baselines.handwritten_norm"]:
        metrics["baselines.ratio_vs_handwritten"] = run_norm / metrics["baselines.handwritten_norm"]
    return metrics


def make_scratch_dir() -> str:
    """A private directory inside the checkout for spill files and worker logs."""
    path = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(path)
    return path


def remove_scratch_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:  # another run still has its directory in there
        pass


def pin_to_one_cpu() -> None:
    """Pin this process, and the cluster workers it will spawn, to one CPU.

    The calibration loop can only cancel what slows the op down when both run
    on the same core: on a shared host the cores are slowed by different
    neighbours, and a driver plus two workers spread over two cores wait on
    the scheduler, not on the program.  On one core their work is serialised,
    so ``iterative_cluster`` measures the work the cluster layer adds, not a
    parallel speed-up this host cannot deliver steadily.  A platform that
    cannot pin runs unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        # The highest CPU: CPU 0 also serves most interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scrub_environment(scratch_dir: str) -> None:
    """Make the process (and the cluster workers it spawns) see defaults only.

    ``DIABLO_*`` variables and ``BENCH_SIZE_SCALE`` would change what the
    runtime does; ``TMPDIR`` keeps spill files and worker logs inside
    ``scratch_dir``; ``PYTHONHASHSEED=0`` fixes the workers' string hashing.
    """
    for name in list(os.environ):
        if name.startswith("DIABLO_") or name == "BENCH_SIZE_SCALE":
            del os.environ[name]
    os.environ["TMPDIR"] = scratch_dir
    os.environ["PYTHONHASHSEED"] = "0"
