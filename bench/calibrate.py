"""The calibration loop every timed sample is divided by.

Wall seconds on a shared sandbox drift by 10-20 % between identical runs;
the time this fixed piece of pure-Python work takes drifts with them, so
``op seconds / calibration seconds`` measured back to back repeats far
better than either number alone (evidence in ``bench/README.md``).

The loop mixes what the runtime's record path is made of -- tuple
construction, dict insert/lookup, float arithmetic, a list comprehension --
and takes about 35 ms here.

FROZEN: ``run_norm`` is expressed in units of this loop.  Editing it (or
``ROUNDS``) changes every reported number, so it is a benchmark change and
needs a fresh baseline.
"""

from __future__ import annotations

import time

ROUNDS = 150_000

#: What one pass took on the machine the benchmark was defined on.  Set-up
#: times are reported in seconds *at this speed* (measured seconds x
#: REFERENCE_SECONDS / calibration seconds timed around the set-up), so that the
#: machine's drift does not read as a set-up regression.  Frozen like ROUNDS.
REFERENCE_SECONDS = 0.035


def calibration_loop() -> float:
    """The fixed work; the return value only keeps it from being optimised away."""
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(ROUNDS):
        key = (i & 1023, i % 7)
        value = table.get(key, 0.0) + i * 0.5
        table[key] = value
        total += value / (i + 1.0)
    pairs = [(k[0], v) for k, v in table.items()]
    return total + len(pairs)


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes right now."""
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started
