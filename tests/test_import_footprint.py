"""What importing the package loads: no numpy, and on a cluster worker the
runtime alone -- nothing of the compiler."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

from repro import Diablo
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext
from repro.workloads import workload_for_program

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

#: Every ``repro`` module a cluster worker holds after running PageRank (the
#: daemon itself runs as ``__main__``): the runtime, and the comprehension
#: terms and monoids its tasks carry.  A new worker import shows up here.
WORKER_MODULES = [
    "repro",
    "repro._lazy",
    "repro.comprehension",
    "repro.comprehension.ir",
    "repro.comprehension.monoids",
    "repro.errors",
    "repro.operators",
    "repro.runtime",
    "repro.runtime.cluster",
    "repro.runtime.cluster.protocol",
    "repro.runtime.cluster.store",
    "repro.runtime.cluster.wire",
    "repro.runtime.partitioner",
    "repro.runtime.segments",
    "repro.runtime.spill",
    "repro.runtime.stage",
]

#: The compiler: what neither a worker nor a bare ``import repro`` may load.
_COMPILER = (
    "repro.algebra",
    "repro.translate",
    "repro.loop_lang",
    "repro.analysis",
    "repro.api",
    "repro.evaluation",
    "repro.comprehension.normalize",
    "repro.comprehension.optimize",
)

#: The lazy package surfaces (PEP 562 ``__getattr__`` over ``__all__``).
_LAZY_PACKAGES = ["repro", "repro.algebra", "repro.runtime", "repro.runtime.cluster"]


def _environment() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def _run(source: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", source], env=_environment(), capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


def _compiler_modules(names) -> list[str]:
    return [name for name in names if name.startswith(_COMPILER)]


def test_compiling_and_running_a_figure3_program_imports_no_numpy():
    assert _run(_PROGRAM) == "False"


def test_importing_the_package_loads_nothing_of_it():
    loaded = _run("import sys, repro\nprint(sorted(m for m in sys.modules if m.startswith('repro')))")
    assert loaded == str(["repro", "repro._lazy"])


def _repro_modules(records):
    return [(os.getpid(), sorted(name for name in sys.modules if name.startswith("repro")))]


def test_a_worker_imports_the_runtime_alone():
    spec = get_program("pagerank")
    with ClusterContext(num_partitions=4, cluster_workers=2) as ctx:
        Diablo(ctx).compile(spec.source).run(**workload_for_program("pagerank", 30))
        seen = dict(ctx.parallelize(range(4), 4).map_partitions(_repro_modules).collect())
    assert len(seen) == 2, "the probe ran on both workers"
    for modules in seen.values():
        assert _compiler_modules(modules) == []
        assert modules == WORKER_MODULES


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed


@pytest.mark.parametrize("package", _LAZY_PACKAGES)
def test_an_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018
    assert not hasattr(module, "no_such_name")


def test_star_import_binds_every_public_name_in_a_fresh_interpreter():
    bound = _run(
        "import repro\nnamespace = {}\nexec('from repro import *', namespace)\n"
        "print(sorted(set(repro.__all__) - set(namespace)), namespace['Diablo'].__module__)"
    )
    assert bound == "[] repro.facade"
