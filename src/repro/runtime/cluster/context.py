"""The driver side of ``executor_mode="cluster"``.

:class:`ClusterContext` keeps the whole :class:`~repro.runtime.context.
DistributedContext` surface -- plan building, shuffle planning, adaptive
execution, broadcast joins and metrics all run unchanged in the driver --
and replaces *task execution*: every fused stage chain that has a picklable
descriptor is shipped over the wire to a long-lived worker process instead
of running in a local pool.

Scheduling and data residency (deliberately simple; DESIGN.md *Cluster
backend* has the full account):

* partition ``i`` always runs on worker ``i % N`` -- deterministic placement
  is what makes resident partitions and shuffle-payload locality work
  without a placement table; each worker has one scheduler thread and a
  FIFO queue, and requests on one control socket are strict
  request/response;
* **what a task produces stays on the worker that computed it**: a wave
  files each output under ``(result id, partition index)`` (bucket payloads
  under ``(id, map task, bucket)`` for a map-side ``shuffle_write``) and
  replies with record counts; :meth:`ClusterContext.run_tasks` returns
  counted :class:`~repro.runtime.cluster.store.ResidentPartition` handles.
  The next wave names a handle at its home position as ``("stored", id)``;
  a handle anywhere else (zipped sides, a reversed or unioned list) travels
  as a reference the worker resolves from its own store or from its peer;
* records reach the driver only when driver code reads a handle (a
  ``collect``, the adaptive sampler's strided slice) or an action asks for
  them in the task reply (``read=True``); ``driver_payload_bytes``,
  ``driver_pushed_bytes`` and ``driver_fetched_bytes`` count what did.  A
  handle answers ``len()`` and a slice exactly as the list would, so plans,
  adaptive decisions and results stay those of the sequential executor;
* **the driver object's lifetime is the resident id's**: a result's handles
  share one :class:`_Lease`; when the last is garbage the id is queued, and
  the queue rides in the ``free`` field of the next request to each worker
  -- no free round trip.  Evicted pushed lists and a finished shuffle's
  captures go the same way;
* failure handling is fail-fast: a worker that drops its socket, times out,
  or misses heartbeats marks the job with :class:`~repro.errors.
  WorkerLostError`, and so does reading a handle whose worker is gone.
  There is no lineage or task retry -- a lost worker costs every partition
  resident on it, and the computation fails promptly instead of hanging.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import queue
import socket
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable

from repro.errors import ExecutionError, WorkerLostError
from repro.runtime import stage as stage_mod
from repro.runtime.cluster import protocol, wire
from repro.runtime.cluster import store as store_mod
from repro.runtime.cluster.store import RemotePayload, RemoteRecords, ResidentPartition
from repro.runtime.context import DistributedContext
from repro.runtime.metrics import Metrics
from repro.runtime.spill import BucketPayload, approximate_size

#: Map-side writer functions whose payload outputs are captured on workers.
_WRITER_FUNCTIONS = (
    stage_mod.shuffle_write,
    stage_mod.salted_shuffle_write,
    stage_mod.repartition_write,
    stage_mod.prepartitioned_write,
)

#: How many distinct partition lists stay push-cached on the workers.
_PUSH_CACHE_CAPACITY = 16


class _RemoteTaskError(Exception):
    """Internal: a worker reported that the task itself failed."""

    def __init__(self, message: str, cause: BaseException | None, remote_traceback: str):
        super().__init__(message)
        self.cause = cause
        self.remote_traceback = remote_traceback


class _WorkerHandle:
    """Driver-side state for one registered worker: socket + scheduler."""

    def __init__(self, index: int, sock: socket.socket, serve_address: str, pid: int):
        self.index = index
        self.sock = sock
        self.serve_address = serve_address
        self.pid = pid
        self.lost: WorkerLostError | None = None
        self.busy = False
        #: Dead resident ids this worker has not been told to drop yet.
        self.unfreed: list[int] = []
        self.queue: queue.Queue = queue.Queue()
        self.thread = threading.Thread(
            target=self._loop, name=f"cluster-worker-{index}", daemon=True
        )
        self.thread.start()

    def submit(self, frame: bytes, timeout: float | None) -> Future:
        """Queue one pre-encoded request frame; the future gets the response."""
        future: Future = Future()
        if self.lost is not None:
            future.set_exception(self.lost)
            return future
        self.queue.put((frame, timeout, future))
        return future

    def _loop(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            frame, timeout, future = item
            if self.lost is not None:
                future.set_exception(self.lost)
                continue
            self.busy = True
            try:
                self.sock.settimeout(timeout)
                protocol.send_frame(self.sock, frame)
                message_type, payload, frame_bytes = protocol.recv_message_sized(self.sock)
            except protocol.ConnectionClosed:
                self._mark_lost(future, "closed its connection")
                continue
            except TimeoutError:
                self._mark_lost(future, f"did not respond within {timeout:.0f}s")
                continue
            except (OSError, protocol.ProtocolError) as error:
                self._mark_lost(future, f"connection failed ({error})")
                continue
            finally:
                self.busy = False
            if message_type == protocol.ERROR:
                future.set_exception(
                    _RemoteTaskError(
                        payload.get("message", "task failed"),
                        payload.get("exception"),
                        payload.get("traceback", ""),
                    )
                )
            else:
                future.set_result((message_type, payload, frame_bytes))

    def _mark_lost(self, future: Future, reason: str) -> None:
        """Fail this request, every queued request, and all future ones."""
        self.busy = False
        self.lost = WorkerLostError(
            f"cluster worker {self.index} (pid {self.pid}) {reason}"
        )
        self.sock.close()
        future.set_exception(self.lost)
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                item[2].set_exception(self.lost)

    def stop(self) -> None:
        self.queue.put(None)
        self.sock.close()


class _PushCache:
    """LRU of driver-held partition lists already resident on the workers.

    Holds *strong* references: partition lists cannot be weak-referenced,
    and a strong reference also pins the list's ``id`` so a recycled id can
    never alias a dead entry.  Eviction returns the freed data ids so the
    context can queue them for the workers to drop.
    """

    def __init__(self, capacity: int = _PUSH_CACHE_CAPACITY):
        self.capacity = capacity
        self._entries: collections.OrderedDict[int, tuple[int, list[list[Any]]]] = (
            collections.OrderedDict()
        )

    def lookup(self, partitions: list[list[Any]]) -> int | None:
        entry = self._entries.get(id(partitions))
        if entry is None:
            return None
        self._entries.move_to_end(id(partitions))
        return entry[0]

    def insert(self, partitions: list[list[Any]], data_id: int) -> list[int]:
        """Register a freshly shipped list; returns evicted data ids."""
        self._entries[id(partitions)] = (data_id, partitions)
        overflow = max(0, len(self._entries) - self.capacity)
        return [self._entries.popitem(last=False)[1][0] for _ in range(overflow)]

    def clear(self) -> None:
        self._entries.clear()


class _Lease:
    """The driver-side life of one resident result id.

    Every :class:`ResidentPartition` of one wave's output holds the wave's
    lease; whatever list, dataset or zip they end up in, the id is dead
    exactly when the last handle is, and ``__del__`` queues it (a deque
    append: safe from whichever thread the collector runs on).  The handles
    also reach the context's metrics through it, to charge driver reads.
    """

    __slots__ = ("resident_id", "metrics", "_garbage")

    def __init__(self, resident_id: int, metrics: Metrics, garbage: collections.deque):
        self.resident_id = resident_id
        self.metrics = metrics
        self._garbage = garbage

    def __del__(self) -> None:
        self._garbage.append(self.resident_id)


class ClusterContext(DistributedContext):
    """A :class:`DistributedContext` that executes stages on remote workers.

    With no ``cluster_address`` the context binds an ephemeral localhost
    port and spawns ``cluster_workers`` local worker subprocesses (via
    :class:`~repro.runtime.cluster.local.LocalCluster`).  With an address --
    passed explicitly or through ``DIABLO_CLUSTER_ADDRESS`` -- it binds that
    address and waits for externally started ``repro-worker`` processes to
    register.
    """

    #: Reduce passes must go through run_tasks even without spilling: the
    #: routed payloads are remote references that only workers should read.
    _reduce_in_tasks = True

    def __init__(
        self,
        num_partitions: int = 8,
        cluster_workers: int = 2,
        cluster_address: str | None = None,
        task_timeout: float = 300.0,
        heartbeat_interval: float = 5.0,
        register_timeout: float = 60.0,
        **kwargs: Any,
    ):
        super().__init__(num_partitions=num_partitions, executor="sequential", **kwargs)
        self.executor = "cluster"
        if cluster_workers <= 0:
            raise ValueError("cluster_workers must be positive")
        self.cluster_workers = cluster_workers
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        if cluster_address is None:
            cluster_address = os.environ.get("DIABLO_CLUSTER_ADDRESS") or None
        self._local_cluster = None
        self._workers: list[_WorkerHandle] | None = None
        self._push_cache = _PushCache()
        #: One id space for all that is resident: pushed lists, results, captures.
        self._resident_ids = itertools.count(1)
        self._capture_stack: list[list[int]] = []
        #: Resident ids nothing in the driver refers to any more; handed to
        #: every worker by :meth:`_frees_for`.
        self._garbage: collections.deque[int] = collections.deque()
        self._free_lock = threading.Lock()
        self._stop_monitor = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._start_cluster(cluster_address, register_timeout)

    @classmethod
    def from_config(cls, config: Any) -> "ClusterContext":
        """Build a cluster context from a :class:`~repro.api.DiabloConfig`."""
        return cls(
            num_partitions=config.num_partitions,
            cluster_workers=getattr(config, "cluster_workers", 2),
            cluster_address=getattr(config, "cluster_address", None),
            broadcast_join_threshold=config.broadcast_join_threshold,
            spill_threshold_bytes=config.spill_threshold_bytes,
            spill_dir=config.spill_dir,
            plan_optimize=getattr(config, "plan_optimize", True),
            columnar=getattr(config, "columnar", None),
            adaptive=getattr(config, "adaptive", True),
            plan_cache=getattr(config, "plan_cache", True),
        )

    # -- cluster bring-up ----------------------------------------------------

    def _start_cluster(self, cluster_address: str | None, register_timeout: float) -> None:
        if cluster_address is None:
            listener = socket.create_server(("127.0.0.1", 0))
            spawn_local = True
        else:
            listener = socket.create_server(protocol.parse_address(cluster_address))
            spawn_local = False
        self.cluster_address = protocol.format_address(listener.getsockname()[:2])
        try:
            if spawn_local:
                from repro.runtime.cluster.local import LocalCluster

                self._local_cluster = LocalCluster(self.cluster_workers, self.cluster_address)
            self._workers = self._accept_workers(listener, register_timeout)
        except BaseException:
            if self._local_cluster is not None:
                self._local_cluster.close()
            for handle in self._workers or []:
                handle.stop()
            raise
        finally:
            listener.close()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="cluster-heartbeat", daemon=True
        )
        self._monitor_thread.start()

    def _accept_workers(
        self, listener: socket.socket, register_timeout: float
    ) -> list[_WorkerHandle]:
        handles: list[_WorkerHandle] = []
        deadline = time.monotonic() + register_timeout
        while len(handles) < self.cluster_workers:
            listener.settimeout(max(0.1, deadline - time.monotonic()))
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                raise ExecutionError(
                    f"cluster registration timed out: {len(handles)} of "
                    f"{self.cluster_workers} workers registered on "
                    f"{self.cluster_address} within {register_timeout:.0f}s"
                ) from None
            try:
                conn.settimeout(10.0)
                message_type, payload = protocol.recv_message(conn)
            except (OSError, protocol.ProtocolError):
                conn.close()
                continue
            if message_type != protocol.REGISTER:
                conn.close()
                continue
            peer_python = tuple(payload.get("python", ()))[:2]
            if peer_python != tuple(sys.version_info[:2]):
                # Shipped functions travel as marshalled code objects, which
                # are only valid within one minor Python version.
                protocol.send_message(
                    conn,
                    protocol.ERROR,
                    {
                        "message": (
                            f"python version mismatch: driver runs "
                            f"{sys.version_info[0]}.{sys.version_info[1]}, "
                            f"worker runs {peer_python}"
                        )
                    },
                )
                conn.close()
                continue
            index = len(handles)
            protocol.send_message(conn, protocol.REGISTERED, {"index": index})
            conn.settimeout(None)
            handles.append(
                _WorkerHandle(index, conn, payload["serve_address"], payload.get("pid", 0))
            )
        return handles

    def _monitor_loop(self) -> None:
        """Probe idle workers so a silently dead one is noticed between jobs."""
        while not self._stop_monitor.wait(self.heartbeat_interval):
            for handle in self._workers or []:
                if handle.lost is None and not handle.busy and handle.queue.empty():
                    frame = protocol.encode_message(
                        protocol.HEARTBEAT, {"free": self._frees_for(handle)}
                    )
                    handle.submit(frame, self.heartbeat_interval * 2)

    def _frees_for(self, handle: _WorkerHandle) -> list[int]:
        """The dead resident ids ``handle``'s worker has not heard of yet.

        They ride in the ``free`` field of whatever request goes there next.
        Every id goes to every worker: a result, a pushed list or a capture
        has partitions on all of them.
        """
        with self._free_lock:
            while self._garbage:
                dead = self._garbage.popleft()
                for worker in self._workers or ():
                    worker.unfreed.append(dead)
            frees, handle.unfreed = handle.unfreed, []
        return frees

    # -- task dispatch -------------------------------------------------------

    def run_tasks(
        self,
        task: Callable[[list[Any], int], list[Any]],
        partitions: list[list[Any]],
        task_spec: tuple[Any, ...] | None = None,
        read: bool = False,
    ) -> list[list[Any]]:
        """Run the chain on the workers; the outputs stay there.

        Returns one :class:`ResidentPartition` per partition, or -- for an
        action that ``read``s every record right away -- the record lists
        themselves, carried by the task replies.
        """
        if not partitions:
            return []
        if task_spec is None:
            return self._run_in_driver(task, partitions)
        outcome = self._dispatch(task_spec, partitions, read)
        if outcome is None:
            return self._run_in_driver(task, partitions)
        return outcome

    def _run_in_driver(
        self, task: Callable[[list[Any], int], list[Any]], partitions: list[list[Any]]
    ) -> list[list[Any]]:
        """Driver fallback; the references it reads charge the driver counters."""
        self.metrics.record_cluster_fallback()
        return [task(partition, index) for index, partition in enumerate(partitions)]

    def _writer_capture(self, task_spec: tuple[Any, ...]) -> bool:
        """Whether this chain ends in a map-side shuffle writer."""
        last = task_spec[-1]
        return (
            last.kind == stage_mod.PARTITIONS_INDEXED
            and isinstance(last.function, functools.partial)
            and last.function.func in _WRITER_FUNCTIONS
        )

    def _driver_held(self, partitions: list[list[Any]]) -> str | None:
        """How the partitions that are *not* handles travel.

        ``None``: there are none.  ``"shipped"``: they are lists of references
        (a reduce bucket's routed payloads, zipped sides) and ride in the
        frame as they are.  ``"records"``: driver data, pushed once and named
        afterwards.  A handle is never touched to find out.
        """
        held = None
        for partition in partitions:
            if isinstance(partition, ResidentPartition):
                continue
            if partition:
                is_reference = isinstance(partition[0], (BucketPayload, RemoteRecords))
                return "shipped" if is_reference else "records"
            held = "records"
        return held

    def _dispatch(
        self, task_spec: tuple[Any, ...], partitions: list[list[Any]], read: bool
    ) -> list[list[Any]] | None:
        workers = self._workers
        if not workers:
            raise ExecutionError("cluster context is shut down")
        capture = self._writer_capture(task_spec)
        held = self._driver_held(partitions)
        store_as = self._push_cache.lookup(partitions) if held == "records" else None
        fresh = held == "records" and store_as is None
        if fresh:
            store_as = next(self._resident_ids)

        pushed_bytes = stored = driver_bytes = 0
        entries: dict[int, list[tuple[int, tuple]]] = {}
        try:
            # Pickled once per wave, not once per worker: the generated code
            # and broadcast tables in it are the bulk of a frame.
            task_bytes = wire.cluster_dumps(task_spec)
            for index, partition in enumerate(partitions):
                worker = workers[index % len(workers)]
                if isinstance(partition, ResidentPartition):
                    if partition.key[1] == index and partition.address == worker.serve_address:
                        spec: tuple = ("stored", partition.key[0])
                    else:
                        spec = ("shipped", partition)
                elif held == "shipped":
                    for element in partition:
                        if isinstance(element, BucketPayload):
                            # A real payload (produced by a driver fallback) is
                            # about to ride through the driver to a worker.
                            driver_bytes += sum(run.length for run in element.runs)
                            driver_bytes += sum(approximate_size(r) for r in element.records)
                    spec = ("shipped", partition)
                elif fresh:
                    blob = wire.cluster_dumps(partition)
                    pushed_bytes += len(blob)
                    spec = ("records", blob)
                else:
                    spec = ("stored", store_as)
                stored += spec[0] == "stored"
                entries.setdefault(worker.index, []).append((index, spec))
            shipped_entries = {
                worker_index: wire.cluster_dumps(worker_entries)
                for worker_index, worker_entries in entries.items()
            }
        except wire.UnshippableError:
            return None
        # From here on nothing can fail to encode, so the frees taken for a
        # frame are sure to leave with it -- the list this wave's push evicts
        # included.
        if fresh:
            self._garbage.extend(self._push_cache.insert(partitions, store_as))
        result_id = None if read and not capture else next(self._resident_ids)
        frames = {
            worker_index: protocol.encode_message(
                protocol.SHUFFLE_WRITE if capture else protocol.RUN_TASKS,
                {
                    "task": task_bytes,
                    "partitions": entries_bytes,
                    "columnar": self.columnar,
                    "store_as": store_as if fresh else None,
                    "result_id": result_id,
                    "free": self._frees_for(workers[worker_index]),
                },
            )
            for worker_index, entries_bytes in shipped_entries.items()
        }

        lease = None
        if capture:
            if self._capture_stack:
                self._capture_stack[-1].append(result_id)
        elif result_id is not None:
            # Made before anything is sent: if the wave fails half-way the
            # lease dies with this frame and the stored half is freed.
            lease = _Lease(result_id, self.metrics, self._garbage)
        self.metrics.record_driver_push(pushed_bytes)
        self.metrics.record_resident_reuse(stored)

        futures = [
            (workers[worker_index], workers[worker_index].submit(frame, self.task_timeout))
            for worker_index, frame in frames.items()
        ]
        by_index: dict[int, Any] = {}
        task_error: _RemoteTaskError | None = None
        lost_error: WorkerLostError | None = None
        for worker, future in futures:
            try:
                _, response, frame_bytes = future.result()
            except _RemoteTaskError as error:
                task_error = task_error or error
                continue
            except WorkerLostError as error:
                lost_error = lost_error or error
                continue
            counters = response.get("counters") or {}
            self.metrics.record_worker_payload(
                counters.get("payload_fetches", 0),
                counters.get("payload_fetch_bytes", 0),
                counters.get("payload_local_reads", 0),
            )
            if result_id is None:
                self.metrics.record_driver_fetch(frame_bytes, fetches=0)
            for index, output in response["results"]:
                if capture:
                    # The writer's ``[stats, payload...]`` shape, with remote
                    # references in place of the worker-resident payloads.
                    stats, num_buckets, buckets = output
                    counts = dict(buckets)
                    by_index[index] = [stats] + [
                        RemotePayload(
                            worker.serve_address, (result_id, index, bucket), counts[bucket], self
                        )
                        if bucket in counts
                        else BucketPayload((), ())
                        for bucket in range(num_buckets)
                    ]
                elif lease is None:
                    by_index[index] = output
                else:
                    by_index[index] = ResidentPartition(
                        worker.serve_address, (result_id, index), output, lease
                    )
        if lost_error is not None:
            raise lost_error
        if task_error is not None:
            cause = task_error.cause
            if isinstance(cause, BaseException):
                raise ExecutionError(f"1 task(s) failed: {cause}") from cause
            raise ExecutionError(
                f"1 task(s) failed: {task_error}\n{task_error.remote_traceback}"
            )
        if driver_bytes:
            self.metrics.record_driver_payload(driver_bytes)
        self.metrics.record_parallel_tasks(len(partitions))
        return [by_index[index] for index in range(len(partitions))]

    # -- shuffle lifecycle ---------------------------------------------------

    def run_shuffle(self, shuffle: Any) -> tuple[list[list[Any]], Any]:
        self._capture_stack.append([])
        try:
            return super().run_shuffle(shuffle)
        finally:
            # The reduce side has read them (or the shuffle failed): the
            # captures are garbage as of now, whoever still holds a reference.
            self._garbage.extend(self._capture_stack.pop())

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Stop workers, the heartbeat monitor and local subprocesses.

        Safe to call twice.  Unlike the in-process executors the cluster
        does *not* restart lazily: a shut-down cluster context is done.
        """
        workers = self._workers
        if workers is not None:
            self._stop_monitor.set()
            goodbyes = []
            for handle in workers:
                if handle.lost is None:
                    frame = protocol.encode_message(
                        protocol.SHUTDOWN, {"free": self._frees_for(handle)}
                    )
                    goodbyes.append(handle.submit(frame, 5.0))
            for future in goodbyes:
                try:
                    future.result(timeout=5.0)
                except Exception:
                    pass
            self._workers = None
            for handle in workers:
                handle.stop()
            if self._local_cluster is not None:
                self._local_cluster.close()
            self._push_cache.clear()
            store_mod.FETCH_CONNECTIONS.close()
        super().shutdown(cancel_pending)

    close = shutdown

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
