"""The package runs on the standard library alone: numpy is never imported."""

from __future__ import annotations

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROGRAM = """
import sys

from repro import Diablo, DistributedContext
from repro.programs import get_program
from repro.workloads import workload_for_program

spec = get_program("conditional_sum")
with DistributedContext(num_partitions=4) as context:
    Diablo(context).compile(spec.source).run(**workload_for_program("conditional_sum", 50))
print("numpy" in sys.modules)
"""


def test_compiling_and_running_a_figure3_program_imports_no_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    completed = subprocess.run(
        [sys.executable, "-c", _PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
