"""The ``repro-worker`` daemon: one long-lived cluster worker process.

A worker makes two kinds of connections:

* **one outbound control connection to the driver** -- it registers, then
  serves driver requests in lockstep (one request, one response):
  ``run_tasks`` / ``shuffle_write`` execute fused stage chains over the
  partitions named in the request and *keep* what they produce (and the
  chain itself, so a repeated wave names it by id); the inputs a batch
  reads from other workers arrive in one ``fetch_payload`` per peer,
  ``heartbeat`` answers liveness probes, ``shutdown`` exits; every request
  first drops the resident ids listed in its ``free`` field;
* **one listening *serve* socket for readers** -- other workers, and the
  driver when its code looks at a result, fetch resident partitions and
  captured shuffle payloads from it by store key.  Fetches run on their own
  threads, so a worker busy reducing can still feed the records it produced
  earlier to the rest of the cluster.

Start one manually with ``repro-worker HOST:PORT`` (or
``DIABLO_CLUSTER_ADDRESS=HOST:PORT repro-worker``), pointing at the address
the driver's :class:`~repro.runtime.cluster.context.ClusterContext` is
listening on.  The worker retries the initial connection for a few seconds,
so workers may be launched before the driver binds.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import sys
import threading
import time
import traceback
from typing import Any

from repro.errors import ExecutionError
from repro.runtime import stage as stage_mod
from repro.runtime.cluster import protocol, wire
from repro.runtime.cluster import store as store_mod
from repro.runtime.cluster.store import WorkerStore, set_active_store

logger = logging.getLogger("repro.worker")

#: How long the initial driver connection is retried (the two-terminal flow:
#: workers may start before the driver binds its address).
CONNECT_RETRY_SECONDS = 15.0
#: How long a worker waits for the driver to answer its registration (a live
#: driver answers at once); then it exits on its own instead of hanging.
REGISTER_REPLY_SECONDS = 3.0


def _resolve_partition(
    store: WorkerStore, index: int, spec: tuple, store_as: int | None
) -> list[Any]:
    """Materialize one task partition from its wire spec."""
    kind, value = spec
    if kind == "stored":
        return store.get((value, index))
    if kind == "records":
        # Pushed by the driver: kept, so the next wave over the same list
        # names it instead of sending it again.
        records = wire.cluster_loads(value)
        store.put((store_as, index), records)
        return records
    if kind == "shipped":
        return store_mod.localize(value)
    raise ExecutionError(f"unknown partition spec kind {kind!r}")


def _execute_batch(store: WorkerStore, request: dict[str, Any], capture: bool) -> dict[str, Any]:
    """Run one ``run_tasks`` / ``shuffle_write`` request; the response payload.

    What a task produces stays here under ``result_id``: bucket payloads for
    a map-side chain, the output partition otherwise -- the reply carries
    record counts.  Only a request without a ``result_id`` (the driver is
    running an action that reads every record right away) gets the records
    back instead.  The task spec arrives once per worker: a frame that
    carries its bytes files the loaded chain under ``(task_id,)``, later
    frames name the id alone.  The shipped partitions' references are all
    read before the first task runs: one fetch per peer for the batch.
    """
    task_key = (request["task_id"],)
    if request["task"] is not None:
        store.put(task_key, stage_mod.compose(wire.cluster_loads(request["task"])))
    task = store.get(task_key)
    store_as = request["store_as"]
    result_id = request["result_id"]
    results: list[tuple[int, Any]] = []
    entries = request["partitions"]
    store_mod.resolve([value for _, (kind, value) in entries if kind == "shipped"])
    for index, spec in entries:
        output = task(_resolve_partition(store, index, spec, store_as), index)
        if capture:
            # Map-side shuffle: keep every non-empty bucket payload resident
            # and report only (bucket, record count); the driver routes the
            # references and peers fetch the data directly from this worker.
            stats = output[0]
            buckets: list[tuple[int, int]] = []
            for bucket_index, payload in enumerate(output[1:]):
                count = payload.record_count
                if count:
                    store.put((result_id, index, bucket_index), payload)
                    buckets.append((bucket_index, count))
            results.append((index, (stats, len(output) - 1, buckets)))
        elif result_id is None:
            results.append((index, output))
        else:
            store.put((result_id, index), output)
            results.append((index, len(output)))
    return {"results": results, "counters": store.drain_counters()}


class WorkerDaemon:
    """One worker process: control loop plus a peer-serve listener."""

    def __init__(self, driver_address: str, serve_host: str = "127.0.0.1"):
        self.driver_address = driver_address
        self.serve_host = serve_host
        self.store = WorkerStore()
        self.index: int | None = None
        self._serve_socket: socket.socket | None = None
        self._stopping = threading.Event()

    # -- peer serving --------------------------------------------------------

    def _serve_peer(self, conn: socket.socket) -> None:
        """Answer store fetches on one reader connection until it closes."""
        with conn:
            while True:
                try:
                    message_type, payload = protocol.recv_message(conn)
                except protocol.ConnectionClosed:
                    return
                except (OSError, protocol.ProtocolError) as error:
                    if not self._stopping.is_set():
                        logger.warning("peer connection failed: %s", error)
                    return
                if message_type != protocol.FETCH_PAYLOAD:
                    protocol.send_message(
                        conn, protocol.ERROR, {"message": f"unexpected {message_type}"}
                    )
                    return
                records = [
                    self.store.records(tuple(key), part)
                    for key, part in zip(payload["keys"], payload["parts"], strict=True)
                ]
                protocol.send_message(conn, protocol.PAYLOAD, {"records": records})

    def _serve_loop(self) -> None:
        assert self._serve_socket is not None
        while not self._stopping.is_set():
            try:
                conn, _ = self._serve_socket.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_peer, args=(conn,), daemon=True).start()

    # -- driver control loop -------------------------------------------------

    def _connect_driver(self) -> socket.socket:
        address = protocol.parse_address(self.driver_address)
        deadline = time.monotonic() + CONNECT_RETRY_SECONDS
        while True:
            try:
                return socket.create_connection(address, timeout=10.0)
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def run(self) -> int:
        """Register with the driver and serve requests until shutdown."""
        self._serve_socket = socket.create_server((self.serve_host, 0))
        serve_address = protocol.format_address(self._serve_socket.getsockname()[:2])
        set_active_store(self.store, serve_address)
        threading.Thread(target=self._serve_loop, daemon=True).start()

        sock = self._connect_driver()
        sock.settimeout(REGISTER_REPLY_SECONDS)
        protocol.send_message(
            sock,
            protocol.REGISTER,
            {
                "pid": os.getpid(),
                "serve_address": serve_address,
                "protocol_version": protocol.PROTOCOL_VERSION,
                "python": tuple(sys.version_info[:3]),
            },
        )
        try:
            message_type, payload = protocol.recv_message(sock)
        except TimeoutError:
            logger.error("driver did not answer the registration within %.0fs", REGISTER_REPLY_SECONDS)
            return 1
        sock.settimeout(None)
        if message_type == protocol.ERROR:
            logger.error("driver rejected registration: %s", payload.get("message"))
            return 1
        if message_type != protocol.REGISTERED:
            logger.error("expected %s, got %s", protocol.REGISTERED, message_type)
            return 1
        self.index = payload["index"]
        logger.info("registered as worker %d, serving peers on %s", self.index, serve_address)

        try:
            with sock:
                return self._control_loop(sock)
        finally:
            self._stopping.set()
            self._serve_socket.close()
            set_active_store(None, None)

    def _control_loop(self, sock: socket.socket) -> int:
        while True:
            try:
                message_type, payload = protocol.recv_message(sock)
            except protocol.ConnectionClosed:
                logger.info("driver disconnected; exiting")
                return 0
            except protocol.ProtocolError as error:
                # An undecodable body was still fully read, so the stream is
                # intact: report the failure and stay alive (lockstep means
                # this ERROR answers the request we could not decode).
                logger.warning("undecodable driver request: %s", error)
                protocol.send_message(
                    sock, protocol.ERROR, {"message": str(error), "exception": None}
                )
                continue
            if payload.get("free"):
                self.store.free(payload["free"])
            if message_type == protocol.SHUTDOWN:
                protocol.send_message(sock, protocol.SHUTDOWN_ACK, {"index": self.index})
                logger.info("shutdown requested; exiting")
                return 0
            if message_type == protocol.HEARTBEAT:
                partitions, payloads, tasks = self.store.resident_counts()
                protocol.send_message(
                    sock,
                    protocol.HEARTBEAT_ACK,
                    {
                        "index": self.index,
                        "partitions": partitions,
                        "payloads": payloads,
                        "tasks": tasks,
                    },
                )
                continue
            if message_type in (protocol.RUN_TASKS, protocol.SHUFFLE_WRITE):
                capture = message_type == protocol.SHUFFLE_WRITE
                try:
                    response = _execute_batch(self.store, payload, capture)
                except BaseException as error:  # noqa: B036 - reported to the driver
                    logger.warning("task batch failed:\n%s", traceback.format_exc())
                    try:
                        shipped: Any = wire.cluster_dumps(error)
                    except wire.UnshippableError:
                        shipped = None
                    protocol.send_message(
                        sock,
                        protocol.ERROR,
                        {
                            "message": f"{type(error).__name__}: {error}",
                            "exception": shipped,
                            "traceback": traceback.format_exc(),
                        },
                    )
                    continue
                protocol.send_message(sock, protocol.TASK_RESULT, response)
                continue
            protocol.send_message(
                sock, protocol.ERROR, {"message": f"unknown message type {message_type!r}"}
            )


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-worker`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="A DIABLO cluster worker; connects to a ClusterContext driver.",
    )
    parser.add_argument(
        "driver",
        nargs="?",
        default=os.environ.get("DIABLO_CLUSTER_ADDRESS"),
        help="driver address as HOST:PORT (default: $DIABLO_CLUSTER_ADDRESS)",
    )
    parser.add_argument(
        "--log-level", default="INFO", help="logging level for worker stderr (default INFO)"
    )
    arguments = parser.parse_args(argv)
    if not arguments.driver:
        parser.error("no driver address: pass HOST:PORT or set DIABLO_CLUSTER_ADDRESS")
    logging.basicConfig(
        level=getattr(logging, arguments.log_level.upper(), logging.INFO),
        format=f"%(asctime)s worker[{os.getpid()}] %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    # Shipped chains nest closures deeply (see wire._RECURSION_LIMIT); give
    # task execution the same headroom deserialization gets.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), wire._RECURSION_LIMIT))
    try:
        return WorkerDaemon(arguments.driver).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130


if __name__ == "__main__":
    sys.exit(main())
