"""End-to-end and per-layer benchmark for the DIABLO pipeline.

Run ``python3 -m bench`` from the repository root; ``bench/README.md`` has
the workloads, the metrics and how to compare two runs.
"""

from __future__ import annotations

import json
import os
from typing import Any

#: The checkout the benchmark measures (and the only place it writes to).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: run length, workload and metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)
