"""The names ``bench/`` reads from the package must stay where it looks.

``bench/`` is kept unedited across refactors of ``src/``, so whatever it
reaches into -- the callables its tracer wraps and the ``Metrics`` counters
it reports -- has to keep resolving.  A trace target or counter that goes
missing makes ``python3 -m bench`` fail outright; these tests catch that in
the ordinary test run instead of only in ``python3 -m bench --selftest``.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import measure  # noqa: E402
from bench import trace as trace_mod  # noqa: E402

from repro.runtime.metrics import Metrics  # noqa: E402


def test_every_trace_target_resolves():
    missing = [
        f"{target.owner}.{target.attribute}"
        for target in trace_mod.WRAP_TABLE
        if target.attribute not in vars(trace_mod.resolve_owner(target.owner))
    ]
    assert missing == []


def test_every_counter_bench_reads_is_in_the_metrics_snapshot():
    read = {*measure.COUNTERS.values(), "combiner_input_records", "combiner_output_records"}
    assert read - set(Metrics().snapshot()) == set()
