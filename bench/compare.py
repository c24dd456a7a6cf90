"""Compare two ``python3 -m bench --out`` records, metric by metric.

    python3 -m bench.compare A.json B.json

A is the reference (the parent commit, or the first of two identical runs),
B the candidate.  Every (end-to-end metric, workload) pair gets one row and
one verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- the noise of a reported value is more than half the
  bound, so the pair cannot tell a regression of that size from noise.  The
  noise of a median of n values is taken as their interquartile range
  divided by sqrt(n);
* ``regressed``  -- B is worse than A by more than the bound;
* ``ok``         -- otherwise.

Exits non-zero when a row regressed or either record has failed ops.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

from bench import load_spec


def noise(row: dict[str, Any]) -> float:
    """Relative uncertainty of a row's value (a median or maximum of n values)."""
    if not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / row["value"] / math.sqrt(row["n"])


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float, better: str) -> tuple[float, str]:
    """``(relative change of B against A, verdict)``; a positive change is worse."""
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    if max(noise(a), noise(b)) > bound / 2:
        return change, "unresolved"
    return change, "regressed" if change > bound else "ok"


def compare(a: dict[str, Any], b: dict[str, Any]) -> int:
    bounds = {
        metric["name"]: (metric["bound"], metric["better"]) for metric in load_spec()["end_to_end"]
    }
    status = 0
    print(f"{'workload':<20}{'metric':<14}{'A':>12}{'B':>12}{'change':>9}{'bound':>7}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for metric, (bound, better) in bounds.items():
            row_a, row_b = entry_a["end_to_end"][metric], entry_b["end_to_end"][metric]
            change, word = verdict(row_a, row_b, bound, better)
            if word == "regressed":
                status = 1
            print(
                f"{name:<20}{metric:<14}{row_a['value']:>12.4f}{row_b['value']:>12.4f}"
                f"{change:>+9.1%}{bound:>7.0%}  {word}"
            )
        for label, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed_ops"]:
                status = 1
                print(f"{name:<20}failed_ops    {entry['failed_ops']} of {entry['ops']} ops in {label}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return compare(*records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
