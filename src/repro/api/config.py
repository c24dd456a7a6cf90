"""Unified configuration for the DIABLO user-facing API.

Historically the knobs lived in three places: the runtime
(``DistributedContext(num_partitions=..., broadcast_join_threshold=...)``),
the compiler (``DiabloCompiler(optimize=..., check_restrictions=...)``) and
per-call-site wiring in examples and benchmarks.  :class:`DiabloConfig`
consolidates all of them in one immutable dataclass, with two ways to change
the active configuration:

* :func:`configure` sets the process-wide defaults;
* :func:`options` scopes an override to a ``with`` block (backed by a
  :class:`~contextvars.ContextVar`, so concurrent threads and async tasks
  see only their own overrides)::

      with diablo.options(executor_mode="cluster", num_partitions=16):
          ranks = pagerank(E, N, 10)   # jit call under the scoped config

Jit-compiled functions resolve their configuration at call time, so the same
decorated function can serve requests under different executors without
recompiling -- the compilation cache is keyed by the compiler-relevant
options only.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator

from repro.runtime.context import DistributedContext
from repro.runtime.dataset import DEFAULT_BROADCAST_JOIN_THRESHOLD

#: The values of :attr:`DiabloConfig.executor_mode`.
EXECUTOR_MODES = ("sequential", "cluster")


@dataclass(frozen=True)
class DiabloConfig:
    """Every user-facing knob of the compiler and the runtime, in one place.

    Attributes:
        executor_mode: ``"sequential"`` (every task in the driver; see
            :class:`~repro.runtime.context.DistributedContext`) or
            ``"cluster"`` (multi-process workers over TCP; see
            :class:`~repro.runtime.cluster.ClusterContext`).
        num_partitions: default number of partitions for datasets.
        cluster_workers: number of local worker subprocesses a
            ``"cluster"`` context spawns when no address is given.
        cluster_address: ``host:port`` a ``"cluster"`` context binds and
            externally started ``repro-worker`` processes connect to
            (``None`` = spawn a local cluster on an ephemeral port; the
            ``DIABLO_CLUSTER_ADDRESS`` environment variable applies as a
            fallback).
        broadcast_join_threshold: joins whose build side is at most this many
            records run as broadcast hash joins.
        spill_threshold_bytes: out-of-core shuffle budget -- estimated bytes
            a shuffle map task may buffer before spilling bucket runs to
            disk.  ``None`` (default) keeps shuffles in memory (the
            ``DIABLO_SPILL_THRESHOLD_BYTES`` environment variable still
            applies as a fallback).  Affects memory use only, never results.
        spill_dir: directory for shuffle spill files (``None`` = system temp
            dir or ``DIABLO_SPILL_DIR``).
        plan_optimize: partition-aware plan optimization -- shuffle
            elimination over co-partitioned inputs, pre-partitioned map-side
            bypass and while-loop invariant caching.  Affects performance
            and structural metrics only, never results.
        adaptive: adaptive skew-aware execution -- shuffle inputs are
            sampled at force time; hot keys in keyed reductions are salted
            into per-task partials with an exact driver-side final fold,
            heavily duplicated group-by keys switch to map-side grouping,
            and broadcast-vs-shuffle joins re-decide from actual
            post-chain sizes.  Affects performance and the ``salted_keys``/
            ``adaptive_decisions`` counters only, never results.
        check_restrictions: reject programs violating Definition 3.1.
        optimize: apply the Section 3.6 / Section 4 rewrites.
        strict: run the full static-diagnostics suite (type/shape inference,
            plan lint) at compile time and treat **warnings as compile
            errors** (:class:`~repro.errors.StaticCheckError`).  ``False``
            (default) reports nothing extra; ``diablo.check()`` runs the same
            passes on demand.
    """

    executor_mode: str = "sequential"
    num_partitions: int = 8
    cluster_workers: int = 2
    cluster_address: str | None = None
    broadcast_join_threshold: int = DEFAULT_BROADCAST_JOIN_THRESHOLD
    spill_threshold_bytes: int | None = None
    spill_dir: str | None = None
    plan_optimize: bool = True
    adaptive: bool = True
    check_restrictions: bool = True
    optimize: bool = True
    strict: bool = False

    def __post_init__(self) -> None:
        if self.executor_mode not in EXECUTOR_MODES:
            raise ValueError(
                f"unknown executor_mode {self.executor_mode!r}; choose from {EXECUTOR_MODES}"
            )
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.cluster_workers <= 0:
            raise ValueError("cluster_workers must be positive")
        if self.spill_threshold_bytes is not None and self.spill_threshold_bytes <= 0:
            raise ValueError("spill_threshold_bytes must be positive (or None to disable)")

    def replace(self, **overrides: Any) -> "DiabloConfig":
        """A copy with the given fields changed; unknown names raise TypeError."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown DiabloConfig option(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        return replace(self, **overrides)

    def make_context(self) -> DistributedContext:
        """A fresh :class:`DistributedContext` honouring the runtime fields."""
        return DistributedContext.from_config(self)

    def runtime_key(self) -> tuple:
        """The fields that determine runtime behaviour (context reuse key)."""
        return (
            self.executor_mode,
            self.num_partitions,
            self.cluster_workers,
            self.cluster_address,
            self.broadcast_join_threshold,
            self.spill_threshold_bytes,
            self.spill_dir,
            self.plan_optimize,
            self.adaptive,
        )

    def compiler_options(self) -> dict[str, bool]:
        """The fields consumed by :class:`~repro.translate.translator.DiabloCompiler`."""
        return {
            "check_restrictions": self.check_restrictions,
            "optimize": self.optimize,
            "strict": self.strict,
        }


_BASE = DiabloConfig()
_SCOPED: ContextVar[DiabloConfig | None] = ContextVar("diablo_scoped_config", default=None)


def current_config() -> DiabloConfig:
    """The active configuration: the innermost :func:`options` scope, else the base."""
    scoped = _SCOPED.get()
    return scoped if scoped is not None else _BASE


def configure(**overrides: Any) -> DiabloConfig:
    """Change the process-wide default configuration and return it."""
    global _BASE
    _BASE = _BASE.replace(**overrides)
    return _BASE


def reset_config() -> DiabloConfig:
    """Restore the built-in defaults (used by tests)."""
    global _BASE
    _BASE = DiabloConfig()
    return _BASE


@contextlib.contextmanager
def options(**overrides: Any) -> Iterator[DiabloConfig]:
    """Scope configuration overrides to a ``with`` block.

    Overrides compose: nested ``options`` blocks start from the enclosing
    scope's configuration, and the previous configuration is restored on
    exit even when the block raises.
    """
    config = current_config().replace(**overrides)
    token = _SCOPED.set(config)
    try:
        yield config
    finally:
        _SCOPED.reset(token)
