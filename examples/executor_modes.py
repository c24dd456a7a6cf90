"""Executor modes and the lazy fusing engine.

The example builds the same pipeline twice -- once per executor mode -- and
shows that (1) chained narrow operations fuse into a single per-partition
pass with zero intermediate datasets, (2) results are identical across
sequential and process-pool execution, and (3) a picklable stage
chain really crosses the process boundary while a closure falls back to the
driver.

Run with:  python examples/executor_modes.py
"""

import functools
import operator

from repro import Diablo, DistributedContext
from repro.workloads.generators import random_doubles

PAGERANK_STYLE_SUM = """
var sum: double = 0.0;
for v in V do
  if (v < 100)
    sum += v;
"""


def fused_pipeline(ctx: DistributedContext) -> dict:
    """A map→filter→map_values chain ending in a reduceByKey."""
    records = ctx.parallelize([(i % 10, float(i)) for i in range(10_000)])
    return (
        records.map(lambda pair: (pair[0], pair[1] + 1.0))
        .filter(lambda pair: pair[0] != 3)
        .map_values(lambda value: value * 2.0)
        .reduce_by_key(lambda a, b: a + b)
        .collect_as_map()
    )


def main() -> None:
    print("== One fused pass for a three-operator chain ==")
    with DistributedContext(num_partitions=4) as ctx:
        base = ctx.parallelize(range(10_000)).materialize()
        ctx.metrics.reset()
        chain = base.map(lambda x: x + 1).filter(lambda x: x % 2 == 0).map(lambda x: x * 10)
        print(f"datasets materialized after chaining: {ctx.metrics.datasets_created}")
        total = chain.sum()
        print(
            f"after forcing: fused_stages={ctx.metrics.fused_stages}, "
            f"fused_operators={ctx.metrics.fused_operators}, "
            f"datasets_created={ctx.metrics.datasets_created}, sum={total}"
        )
        assert ctx.metrics.fused_stages == 1 and ctx.metrics.fused_operators == 3

    print("\n== Identical results across executor modes ==")
    results = {}
    for mode in ("sequential", "processes"):
        with DistributedContext(num_partitions=4, executor=mode) as mode_ctx:
            results[mode] = fused_pipeline(mode_ctx)
        print(f"{mode:>10}: {len(results[mode])} keys, key 0 -> {results[mode][0]:.1f}")
    assert results["sequential"] == results["processes"]

    print("\n== Process-pool dispatch vs driver fallback ==")
    with DistributedContext(num_partitions=4, executor="processes") as pctx:
        picklable = pctx.parallelize(range(1_000)).map(functools.partial(operator.mul, 3))
        picklable.count()
        crossed = pctx.metrics.process_fallbacks == 0
        closure = pctx.parallelize(range(1_000)).map(lambda x: x * 3)
        closure.count()
        fell_back = pctx.metrics.process_fallbacks == 1
    print(f"functools.partial chain crossed the process boundary: {crossed}")
    print(f"lambda chain fell back to the driver: {fell_back}")
    assert crossed and fell_back

    print("\n== Translated loop program under each executor ==")
    values = random_doubles(20_000, seed=7)
    expected = sum(v for v in values if v < 100)
    for mode in ("sequential", "processes"):
        with DistributedContext(num_partitions=4, executor=mode) as mode_ctx:
            result = Diablo(mode_ctx).run(PAGERANK_STYLE_SUM, V=values)
            assert abs(result["sum"] - expected) < 1e-6
            print(f"{mode:>10}: sum = {result['sum']:.3f}")
    print("all executors agree with the driver-side expectation")


if __name__ == "__main__":
    main()
