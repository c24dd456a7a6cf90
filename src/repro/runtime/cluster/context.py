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
  without a placement table;
* **a wave is one send-all / receive-all exchange** (:func:`_exchange`): the
  calling thread writes each worker's one frame, then reads every reply
  under one ``task_timeout`` deadline -- no relay threads.  Requests on a
  control socket are strict request/response under the handle's lock, and
  a wave takes its workers' locks in worker order;
* **a task spec ships once per worker**: the pickled spec's exact bytes map
  to a resident id (a bounded LRU), every frame names ``task_id``, and the
  bytes ride along only to a worker that has not acknowledged that id --
  acknowledged meaning it answered a frame that carried them with a
  ``task_result`` (prepare/commit), so a spec that failed to load is sent
  again;
* **what a task produces stays on the worker that computed it**: a wave
  files each output under ``(result id, partition index)`` (bucket payloads
  under ``(id, map task, bucket)`` for a map-side ``shuffle_write``) and
  replies with record counts; :meth:`ClusterContext.run_tasks` returns
  counted :class:`~repro.runtime.cluster.store.ResidentPartition` handles.
  The next wave names a handle at its home position as ``("stored", id)``;
  a handle anywhere else (zipped sides, a reversed or unioned list) travels
  as a reference the worker resolves from its own store or from its peer;
* records reach the driver only when driver code reads a handle (a
  ``collect``, the adaptive sampler's strided slices -- one request per
  worker for all of them) or an action asks for
  them in the task reply (``read=True``); ``driver_payload_bytes``,
  ``driver_pushed_bytes`` and ``driver_fetched_bytes`` count what did.  A
  handle answers ``len()`` and a slice exactly as the list would, so plans,
  adaptive decisions and results stay those of the sequential executor;
* **the driver object's lifetime is the resident id's**: a result's handles
  share one :class:`_Lease`; when the last is garbage the id is queued, and
  the queue rides in the ``free`` field of the next request to each worker
  -- no free round trip.  Evicted pushed lists and task specs, and a
  finished shuffle's captures go the same way;
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
import socket
import sys
import threading
import time
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
    stage_mod.prepartitioned_write,
)

#: How many distinct partition lists stay push-cached on the workers.
_PUSH_CACHE_CAPACITY = 16
#: How many distinct task specs stay registered on the workers.
_TASK_CACHE_CAPACITY = 64


class _RemoteTaskError(Exception):
    """Internal: a worker reported that the task itself failed."""

    def __init__(self, message: str, cause: BaseException | None, remote_traceback: str):
        super().__init__(message)
        self.cause = cause
        self.remote_traceback = remote_traceback


def _load_exception(shipped: bytes | None) -> BaseException | None:
    """The exception a worker shipped with its error report, or ``None`` when
    it could not ship or does not load on the driver."""
    if shipped is None:
        return None
    try:
        error = wire.cluster_loads(shipped)
    except Exception:  # noqa: BLE001 - the remote traceback still reports it
        return None
    return error if isinstance(error, BaseException) else None


class _WorkerHandle:
    """Driver-side state for one registered worker: its control socket.

    ``lock`` is held from sending a request to reading its reply, so the
    socket stays strictly request/response whichever driver thread talks
    to the worker (see :func:`_exchange`).
    """

    def __init__(self, index: int, sock: socket.socket, serve_address: str, pid: int):
        self.index = index
        self.sock = sock
        self.serve_address = serve_address
        self.pid = pid
        self.lock = threading.Lock()
        self.lost: WorkerLostError | None = None
        #: Dead resident ids this worker has not been told to drop yet.
        self.unfreed: list[int] = []
        #: Task ids this worker has loaded and acknowledged with a result.
        self.registered: set[int] = set()

    def _step(self, action: Callable[[socket.socket], Any], deadline: float, timeout: float) -> Any:
        """``action(sock)`` before ``deadline``; a failure marks the worker
        lost for good and is returned in place of the result."""
        if self.lost is not None:
            return self.lost
        try:
            self.sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            return action(self.sock)
        except protocol.ConnectionClosed:
            reason = "closed its connection"
        except TimeoutError:
            reason = f"did not respond within {timeout:.0f}s"
        except (OSError, protocol.ProtocolError) as error:
            reason = f"connection failed ({error})"
        self.lost = WorkerLostError(f"cluster worker {self.index} (pid {self.pid}) {reason}")
        self.sock.close()
        return self.lost


def _exchange(requests: list[tuple[_WorkerHandle, bytes]], timeout: float, locked: bool = False) -> list[Any]:
    """One lockstep round: send every frame, then read every reply.

    Returns per request ``(message type, payload, frame bytes)``, or the
    :class:`WorkerLostError` of a lost worker or a :class:`_RemoteTaskError`
    for an ``ERROR`` reply in its place.  Every reply is read, whatever the
    others did, so the control streams stay in step; one ``timeout`` covers
    the round.  The locks are taken in worker order (two driver threads
    cannot deadlock), unless the caller holds them.
    """
    handles = [] if locked else sorted((handle for handle, _ in requests), key=lambda h: h.index)
    for handle in handles:
        handle.lock.acquire()
    try:
        deadline = time.monotonic() + timeout
        sent = [
            handle._step(functools.partial(protocol.send_frame, frame=frame), deadline, timeout)
            for handle, frame in requests
        ]
        replies = []
        for (handle, _), error in zip(requests, sent, strict=True):
            reply = error or handle._step(protocol.recv_message_sized, deadline, timeout)
            if type(reply) is tuple and reply[0] == protocol.ERROR:
                reply = _RemoteTaskError(
                    reply[1].get("message", "task failed"),
                    _load_exception(reply[1].get("exception")),
                    reply[1].get("traceback", ""),
                )
            replies.append(reply)
        return replies
    finally:
        for handle in handles:
            handle.lock.release()


class _ResidentCache:
    """LRU of driver-side objects already resident on the workers.

    Maps ``key(obj)`` to the object's resident id.  Holds *strong* references:
    the push cache keys partition lists by ``id`` (lists cannot be
    weak-referenced), and pinning the list also pins its ``id`` so a
    recycled id can never alias a dead entry; the task registry keys the
    pickled spec bytes by value.  Eviction returns the freed ids so the
    context can queue them for the workers to drop.
    """

    def __init__(self, capacity: int, key: Callable[[Any], Any] = lambda obj: obj):
        self.capacity = capacity
        self._key = key
        self._entries: collections.OrderedDict[Any, tuple[int, Any]] = collections.OrderedDict()

    def lookup(self, obj: Any) -> int | None:
        key = self._key(obj)
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def insert(self, obj: Any, data_id: int) -> list[int]:
        """Register a freshly shipped object; returns evicted data ids."""
        self._entries[self._key(obj)] = (data_id, obj)
        overflow = max(0, len(self._entries) - self.capacity)
        return [self._entries.popitem(last=False)[1][0] for _ in range(overflow)]

    def discard(self, obj: Any) -> None:
        self._entries.pop(self._key(obj), None)

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

    executor = "cluster"

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
        super().__init__(num_partitions=num_partitions, **kwargs)
        if cluster_workers <= 0:
            raise ValueError("cluster_workers must be positive")
        self.cluster_workers = cluster_workers
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        if cluster_address is None:
            cluster_address = os.environ.get("DIABLO_CLUSTER_ADDRESS") or None
        self._local_cluster = None
        self._workers: list[_WorkerHandle] | None = None
        self._push_cache = _ResidentCache(_PUSH_CACHE_CAPACITY, key=id)
        #: Pickled task spec -> its id on the workers that acknowledged it.
        self._task_cache = _ResidentCache(_TASK_CACHE_CAPACITY)
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
                handle.sock.close()
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
                # A busy worker is in a wave, which notices if it is lost.
                if handle.lost is None and handle.lock.acquire(blocking=False):
                    try:
                        frame = protocol.encode_message(protocol.HEARTBEAT, {"free": self._frees_for(handle)})
                        _exchange([(handle, frame)], self.heartbeat_interval * 2, locked=True)
                    finally:
                        handle.lock.release()

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
                    worker.registered.discard(dead)
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
        (a reduce bucket's routed payloads, zipped sides, both for a reduce
        with zips) and ride in the frame as they are.  ``"records"``: driver
        data, pushed once and named afterwards.  A handle is never touched to
        find out.
        """
        held = None
        for partition in partitions:
            if isinstance(partition, ResidentPartition):
                continue
            if partition:
                is_reference = isinstance(partition, stage_mod.ZippedBucket) or isinstance(
                    partition[0], (BucketPayload, RemoteRecords)
                )
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
            # Pickled once per wave, and shipped only to workers that have not
            # registered these exact bytes: the generated code and broadcast
            # tables in it are the bulk of a frame.
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
                    if not all(isinstance(element, RemoteRecords) for element in partition):
                        wire.cluster_dumps(partition)  # driver data rides the frame: can it?
                    spec = ("shipped", partition)
                elif fresh:
                    blob = wire.cluster_dumps(partition)
                    pushed_bytes += len(blob)
                    spec = ("records", blob)
                else:
                    spec = ("stored", store_as)
                stored += spec[0] == "stored"
                entries.setdefault(worker.index, []).append((index, spec))
        except wire.UnshippableError:
            return None
        # From here on nothing can fail to encode (the entries hold ids, bytes
        # and references, or driver data just pickled), so the frees taken for
        # a frame are sure to leave with it -- the list this wave's push and
        # the spec its registration evict included.
        if fresh:
            self._garbage.extend(self._push_cache.insert(partitions, store_as))
        task_id = self._task_cache.lookup(task_bytes)
        if task_id is None:
            task_id = next(self._resident_ids)
            self._garbage.extend(self._task_cache.insert(task_bytes, task_id))
        # Prepare/commit: a worker counts as holding the spec only once it
        # has answered a frame that carried it.
        carries = {i for i in entries if task_id not in workers[i].registered}
        result_id = None if read and not capture else next(self._resident_ids)
        frames = {
            worker_index: protocol.encode_message(
                protocol.SHUFFLE_WRITE if capture else protocol.RUN_TASKS,
                {
                    "task_id": task_id,
                    "task": task_bytes if worker_index in carries else None,
                    "partitions": worker_entries,
                    "columnar": self.columnar,
                    "store_as": store_as if fresh else None,
                    "result_id": result_id,
                    "free": self._frees_for(workers[worker_index]),
                },
            )
            for worker_index, worker_entries in entries.items()
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

        requests = [(workers[worker_index], frame) for worker_index, frame in frames.items()]
        by_index: dict[int, Any] = {}
        task_errors: list[_RemoteTaskError] = []
        lost_error: WorkerLostError | None = None
        for (worker, _), reply in zip(requests, _exchange(requests, self.task_timeout), strict=True):
            if isinstance(reply, _RemoteTaskError):
                task_errors.append(reply)
                continue
            if isinstance(reply, WorkerLostError):
                lost_error = lost_error or reply
                continue
            _, response, frame_bytes = reply
            if worker.index in carries:
                worker.registered.add(task_id)
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
        if fresh and (task_errors or lost_error is not None):
            # Like a spec, a push counts only once every worker took it: the
            # failed wave's partial copies are freed, the next wave pushes again.
            self._push_cache.discard(partitions)
            self._garbage.append(store_as)
        if lost_error is not None:
            raise lost_error
        if task_errors:
            task_error = task_errors[0]
            failed = f"{len(task_errors)} of {len(requests)} worker task batch(es) failed"
            cause = task_error.cause
            if isinstance(cause, BaseException):
                raise ExecutionError(f"{failed}: {cause}") from cause
            raise ExecutionError(f"{failed}: {task_error}\n{task_error.remote_traceback}")
        if driver_bytes:
            self.metrics.record_driver_payload(driver_bytes)
        self.metrics.record_parallel_tasks(len(partitions))
        return [by_index[index] for index in range(len(partitions))]

    def _strided(self, partitions: list[Any], steps: list[int]) -> list[Any]:
        """The sampler's slices, cut on the workers: one fetch per worker for
        every handle not read yet."""
        unread = [isinstance(p, ResidentPartition) and p._records is None for p in partitions]
        jobs = list(zip(partitions, steps, unread, strict=True))
        cuts = [(p, (None, None, step)) for p, step, fetch in jobs if fetch]
        pulled = iter(store_mod.read_all([p for p, _ in cuts], [cut for _, cut in cuts]))
        return [next(pulled) if fetch else p[::step] for p, step, fetch in jobs]

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

        Safe to call twice.  Unlike the sequential executor the cluster
        does *not* restart lazily: a shut-down cluster context is done.
        """
        workers = self._workers
        if workers is not None:
            self._stop_monitor.set()
            goodbyes = [
                (handle, protocol.encode_message(protocol.SHUTDOWN, {"free": self._frees_for(handle)}))
                for handle in workers
                if handle.lost is None
            ]
            _exchange(goodbyes, 5.0)
            self._workers = None
            for handle in workers:
                handle.sock.close()
            if self._local_cluster is not None:
                self._local_cluster.close()
            self._push_cache.clear()
            self._task_cache.clear()
            store_mod.FETCH_CONNECTIONS.close()
        super().shutdown(cancel_pending)

    close = shutdown

    def __exit__(self, *_exc: Any) -> None:
        self.shutdown()
