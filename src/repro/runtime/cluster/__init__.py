"""A real multi-process distributed backend (``executor_mode="cluster"``).

The cluster executor runs stages on long-lived worker processes connected to
the driver over TCP sockets:

* :mod:`~repro.runtime.cluster.wire` -- the closure-capable serializer that
  lets translated record functions (local closures over IR terms) cross the
  process boundary;
* :mod:`~repro.runtime.cluster.protocol` -- the length-prefixed framed-pickle
  wire protocol (versioned message types);
* :mod:`~repro.runtime.cluster.store` -- the worker-side store and the
  references to it (:class:`~repro.runtime.cluster.store.ResidentPartition`
  for task outputs, :class:`~repro.runtime.cluster.store.RemotePayload` for
  shuffle buckets) that let records stay on the worker that computed them;
* :mod:`~repro.runtime.cluster.worker` -- the ``repro-worker`` daemon;
* :mod:`~repro.runtime.cluster.context` -- the driver-side
  :class:`~repro.runtime.cluster.context.ClusterContext`;
* :mod:`~repro.runtime.cluster.local` -- the
  :class:`~repro.runtime.cluster.local.LocalCluster` subprocess fixture.
"""

from __future__ import annotations

from repro._lazy import lazy_surface

_EXPORTS = {
    "ClusterContext": "repro.runtime.cluster.context",
    "LocalCluster": "repro.runtime.cluster.local",
    "WorkerLostError": "repro.errors",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
