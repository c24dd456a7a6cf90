"""Table 2 reproduction: parallel vs sequential evaluation per program.

In the paper, each loop program is compiled twice -- to Scala parallel
collections and to sequential Scala collections -- and both are run on the
same data.  The substitution here (documented in DESIGN.md): the *parallel*
column runs the translated program on the DISC runtime with the default
(sequential) executor -- bulk evaluation, not multi-core execution -- and the
*sequential* column runs the original loop program with the reference
interpreter.  The shape to reproduce is that the bulk (parallel)
evaluation wins for most programs while the cheapest shuffling-dominated
programs (Group By, KMeans in the paper) benefit the least.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.harness import (
    default_inputs,
    run_sequential_interpreter,
    run_translated,
)
from repro.evaluation.reporting import format_table
from repro.programs import get_program, table2_program_names
from repro.runtime.context import DistributedContext

#: Input sizes per program, scaled to laptop runtimes.
DEFAULT_SIZES: dict[str, int] = {
    "conditional_sum": 20_000,
    "equal": 20_000,
    "string_match": 20_000,
    "word_count": 10_000,
    "histogram": 5_000,
    "linear_regression": 10_000,
    "group_by": 10_000,
    "matrix_addition": 40,
    "matrix_multiplication": 14,
    "pagerank": 120,
    "kmeans": 400,
    "matrix_factorization": 16,
}


@dataclass
class Table2Row:
    """One row of Table 2."""

    program: str
    count: int
    parallel_seconds: float
    sequential_seconds: float

    @property
    def speedup(self) -> float:
        if self.parallel_seconds == 0:
            return float("inf")
        return self.sequential_seconds / self.parallel_seconds

    def cells(self) -> list[str]:
        return [
            self.program,
            str(self.count),
            f"{self.parallel_seconds:.3f}",
            f"{self.sequential_seconds:.3f}",
            f"{self.speedup:.2f}x",
        ]


def run_table2(
    sizes: dict[str, int] | None = None,
    programs: list[str] | None = None,
    num_partitions: int = 4,
) -> list[Table2Row]:
    """Run every Table 2 program in parallel and sequential mode."""
    chosen_sizes = dict(DEFAULT_SIZES)
    if sizes:
        chosen_sizes.update(sizes)
    names = programs or table2_program_names()
    rows: list[Table2Row] = []
    for name in names:
        size = chosen_sizes[name]
        inputs = default_inputs(name, size)
        context = DistributedContext(num_partitions=num_partitions)
        parallel = run_translated(name, inputs, context)
        sequential = run_sequential_interpreter(name, inputs)
        spec = get_program(name)
        rows.append(
            Table2Row(
                program=spec.title,
                count=size,
                parallel_seconds=parallel.seconds,
                sequential_seconds=sequential.seconds,
            )
        )
        context.shutdown()
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    """Render Table 2 as text."""
    return format_table(
        ["test program", "count", "par", "seq", "seq/par"],
        [row.cells() for row in rows],
        title="Table 2: parallel (DISC runtime) vs sequential (interpreter) seconds",
    )
