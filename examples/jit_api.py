"""The ``@diablo.jit`` API: compiled loop functions with plain-Python calls.

The paper's pitch is that programmers write ordinary imperative loops and the
system turns them into distributed data-parallel programs.  The jit API makes
that literal: decorate a Python function, call it with positional arguments,
get its ``return`` values back -- while translation happens once, lands in a
shared compilation cache, and every call executes on the DISC runtime.

The example shows (1) a jit PageRank driver with typed parameters and a value
return, checked against the sequential reference interpreter, (2) the
compilation cache across an iterative sweep, and (3) scoped configuration
overrides with ``diablo.options``.

Run with:  PYTHONPATH=src python examples/jit_api.py
"""

import repro.api as diablo
from repro.api import Matrix, Vector
from repro.loop_lang.interpreter import interpret_program
from repro.workloads import workload_for_program

VERTICES = 60


@diablo.jit
def pagerank(E: Matrix, N: int, num_steps: int):
    P: Vector = Vector()
    C: Vector = Vector()
    b: float = 0.85
    for i in range(1, N + 1):
        C[i] = 0
        P[i] = 1.0 / N
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if E[i, j]:
                C[i] += 1
    k: int = 0
    while k < num_steps:
        Q: Matrix = Matrix()
        k += 1
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if E[i, j]:
                    Q[i, j] = P[i]
        for i in range(1, N + 1):
            P[i] = (1 - b) / N
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                P[i] += b * Q[j, i] / C[j]
    return P


def main() -> None:
    workload = workload_for_program("pagerank", VERTICES)
    E, vertices = workload["E"], workload["N"]
    print(f"jit function: {pagerank!r}")
    declared = {name: info.kind for name, info in pagerank.input_types.items()}
    print(f"declared inputs: {declared}")

    with pagerank:  # releases the runtime's worker pools on exit
        # 1. Call it like a Python function; `return P` comes back as a Dataset.
        diablo.cache_clear()
        ranks = pagerank(E, vertices, 3).collect_as_map()
        oracle = interpret_program(pagerank.program, {"E": E, "N": vertices, "num_steps": 3})
        worst = max(abs(ranks[v] - oracle["P"][v]) for v in oracle["P"])
        print(f"3-step PageRank over {vertices} vertices: "
              f"max |jit - interpreter| = {worst:.2e}")
        assert worst < 1e-9

        # 2. An iterative sweep pays translation exactly once.
        for steps in (1, 2, 3, 4):
            pagerank(E, vertices, steps)
        info = diablo.cache_info()
        print(f"after the sweep: {info} -- one translation, {info.hits} cache hits")
        assert info.misses == 1 and info.hits >= 4

        # 3. Scoped configuration: same translation, different runtime.
        with diablo.options(num_partitions=7):
            ranks_repartitioned = pagerank(E, vertices, 3).collect_as_map()
        assert max(abs(ranks_repartitioned[v] - ranks[v]) for v in ranks) < 1e-9
        print("7 partitions agree with the default run")
        print(f"cache after the partition switch: {diablo.cache_info()}")


if __name__ == "__main__":
    main()
