"""Command line of the benchmark.

    python3 -m bench                      every workload, all metrics, a table
    python3 -m bench --out A.json         ... and the full record as JSON
    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1
                                          one run; last stdout line is JSON
    python3 -m bench --selftest           quick check of the benchmark itself

Run from the repository root.  ``bench/README.md`` explains the output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from bench import ROOT, load_spec

sys.path.insert(0, os.path.join(ROOT, "src"))

#: Untraced runs per workload in the all-workloads mode, round-robin so that
#: slow drift of the machine spreads over every workload alike.
ROUNDS = 3
DEFAULT_SEED = 7


def run_one(args: argparse.Namespace) -> int:
    """One run of one workload, in this process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides dict/set layout; pin it like the workers'.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])
    started = time.perf_counter()
    from bench import measure
    from bench.workloads import BY_NAME

    import_s = time.perf_counter() - started
    scratch_dir = measure.make_scratch_dir()
    try:
        if args.workload not in BY_NAME:
            print(f"bench: unknown workload {args.workload!r}; known: {', '.join(BY_NAME)}", file=sys.stderr)
            return 2
        measure.scrub_environment(scratch_dir)
        measure.pin_to_one_cpu()
        record = measure.run_workload(
            BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace), scratch_dir, import_s
        )
    finally:
        measure.remove_scratch_dir(scratch_dir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _child_run(workload: str, seed: int, seconds: float, trace: int, out: str) -> dict[str, Any]:
    command = [
        *(sys.executable, "-m", "bench"),
        *("--workload", workload, "--seed", str(seed), "--seconds", str(seconds)),
        *("--trace", str(trace), "--out", out),
    ]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=environment, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench: run of {workload} (trace {trace}) exited with {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: list[float], value: float, unit: str) -> dict[str, Any]:
    """A metric with its sample count and quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (value, value, value)
    return {"value": value, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def run_all(args: argparse.Namespace) -> int:
    """Every workload: ROUNDS untraced runs round-robin, then one traced run each."""
    from bench import measure
    from bench.workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = [workload.name for workload in WORKLOADS]
    scratch_dir = measure.make_scratch_dir()
    out = os.path.join(scratch_dir, "record.json")
    try:
        rounds: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
        for round_index in range(ROUNDS):
            for name in names:
                print(f"round {round_index + 1}/{ROUNDS} {name}", file=sys.stderr)
                rounds[name].append(_child_run(name, args.seed, seconds, 0, out))
        traced = {}
        for name in names:
            print(f"traced {name}", file=sys.stderr)
            traced[name] = _child_run(name, args.seed, seconds, 1, out)
    finally:
        measure.remove_scratch_dir(scratch_dir)

    report: dict[str, Any] = {"seed": args.seed, "seconds": seconds, "rounds": ROUNDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = rounds[workload.name]
        every = runs + [traced[workload.name]]
        pooled = [value for run in runs for value in run["samples"]["run_norm"]]
        setups = [run["metrics"]["setup_s"]["value"] for run in runs]
        peaks = [run["metrics"]["peak_rss_mb"]["value"] for run in runs]
        report["workloads"][workload.name] = {
            "why": workload.why,
            "ops": sum(run["attempted"] for run in every),
            "failed_ops": sum(run["failed"] for run in every),
            "errors": [error for run in every for error in run["errors"]],
            "end_to_end": {
                "run_norm": summarize(pooled, statistics.median(pooled) if pooled else 0.0, "x_calib"),
                "setup_s": summarize(setups, statistics.median(setups), "s"),
                "peak_rss_mb": summarize(peaks, max(peaks), "MiB"),
            },
            "traced_ops": traced[workload.name]["traced_ops"],
            "per_layer": traced[workload.name]["metrics"],
        }
    print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 1 if any(entry["failed_ops"] for entry in report["workloads"].values()) else 0


def print_report(report: dict[str, Any]) -> None:
    print(f"seed {report['seed']}, {report['seconds']} s per run, {report['rounds']} rounds")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: failed_ops {entry['failed_ops']} of {entry['ops']} ops")
        for metric, row in entry["end_to_end"].items():
            print(
                f"  {metric:<44}{row['value']:>14.4f} {row['unit']:<8}"
                f" n={row['n']:<4} q1={row['q1']:.4f} q3={row['q3']:.4f}"
            )
        print(f"  per layer, per op, over n={entry['traced_ops']} traced ops:")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:<44}{row['value']:>14.4f} {row['unit']}")
        for error in entry["errors"]:
            print(f"  FAILED {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, once, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--out", help="write the full record to this JSON file")
    parser.add_argument("--selftest", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    if args.selftest:
        from bench import selftest

        return selftest.main()
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
