"""Worker-side state, and the references that let records stay on it.

Each worker process owns one :class:`WorkerStore` -- **one keyspace**: every
entry is filed under a tuple that starts with a driver-issued id, and an id is
dropped as a whole when the driver says so.

* ``(id, partition index)`` -- a **resident partition**: a record list the
  driver pushed once, or (the common case) the output of a task that ran
  here.  The driver holds a counted :class:`ResidentPartition` handle, not
  the records.
* ``(id, map partition, bucket)`` -- a **captured payload**: the
  :class:`~repro.runtime.spill.BucketPayload` a map-side shuffle chain wrote
  for one reduce bucket, routed by the driver as a :class:`RemotePayload`.

Both references are :class:`RemoteRecords`: address, key and record count
travel (``__reduce__``), the records are read only where somebody looks at
them -- straight out of the store when that is the worker that owns them,
over **one** ``FETCH_PAYLOAD`` request per peer otherwise (:func:`localize`
groups a task's references by address).  The driver is just another reader:
what it pulls is charged to its :class:`~repro.runtime.metrics.Metrics`.

A :class:`RemotePayload` quacks like an in-memory ``BucketPayload`` (``runs``
is the empty tuple, ``records`` materializes on first access), so the
reduce-side processors in :mod:`repro.runtime.stage` stream it without
knowing it crossed the network.  Collapsing a spilled payload to one flat
record list preserves results: runs-then-remainder is exactly the record
order the in-memory path produces, and both the streaming merge and the sort
merge consume payloads in that order.
"""

from __future__ import annotations

import socket
import threading
from collections.abc import Sequence
from typing import Any, Iterable, Iterator

from repro.errors import ExecutionError, WorkerLostError
from repro.runtime.cluster import protocol
from repro.runtime.spill import iter_payload

#: ``(start, stop, step)`` of the slice a reader wants, or None for everything.
Part = tuple[Any, Any, Any] | None


class WorkerStore:
    """Everything one worker process keeps between requests (thread-safe: the
    serve loop reads while the task loop writes)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple[int, ...], Any] = {}
        self.payload_fetches = 0
        self.payload_fetch_bytes = 0
        self.payload_local_reads = 0

    def put(self, key: tuple[int, ...], value: Any) -> None:
        with self._lock:
            self._entries[key] = value

    def get(self, key: tuple[int, ...]) -> Any:
        with self._lock:
            try:
                return self._entries[key]
            except KeyError:
                raise ExecutionError(
                    f"worker holds nothing under {key}; the driver's view of "
                    "what is resident and this store disagree"
                ) from None

    def records(self, key: tuple[int, ...], part: Part = None) -> list[Any] | None:
        """The records filed under ``key`` as a list (a payload's spilled runs
        are streamed back in), cut to ``part``; None when there is no entry."""
        with self._lock:
            stored = self._entries.get(key)
        if stored is None:
            return None
        records = stored if isinstance(stored, list) else list(iter_payload(stored))
        return records if part is None else records[slice(*part)]

    def free(self, ids: Iterable[int]) -> None:
        """Drop every entry of the given ids."""
        dead = set(ids)
        with self._lock:
            for key in [key for key in self._entries if key[0] in dead]:
                del self._entries[key]

    def resident_counts(self) -> tuple[int, int]:
        """``(resident partitions, captured payloads)`` currently held."""
        with self._lock:
            partitions = sum(1 for key in self._entries if len(key) == 2)
            return partitions, len(self._entries) - partitions

    def drain_counters(self) -> dict[str, int]:
        """The payload-transfer counters since the last drain."""
        with self._lock:
            counters = {
                "payload_fetches": self.payload_fetches,
                "payload_fetch_bytes": self.payload_fetch_bytes,
                "payload_local_reads": self.payload_local_reads,
            }
            self.payload_fetches = 0
            self.payload_fetch_bytes = 0
            self.payload_local_reads = 0
            return counters


#: The store of the worker process we are running in (None in the driver).
_ACTIVE_STORE: WorkerStore | None = None
_ACTIVE_ADDRESS: str | None = None


def set_active_store(store: WorkerStore | None, address: str | None) -> None:
    """Install ``store`` as this process's worker store (worker startup)."""
    global _ACTIVE_STORE, _ACTIVE_ADDRESS
    _ACTIVE_STORE = store
    _ACTIVE_ADDRESS = address


class _FetchConnections:
    """A per-process cache of fetch sockets, one per serve address."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sockets: dict[str, socket.socket] = {}

    def fetch(
        self, address: str, keys: list[tuple[int, ...]], part: Part
    ) -> tuple[list[list[Any]], int]:
        """``(one record list per key, frame_bytes)`` from the store at ``address``."""
        with self._lock:
            sock = self._sockets.pop(address, None)
        try:
            if sock is None:
                sock = socket.create_connection(protocol.parse_address(address), timeout=60.0)
            protocol.send_message(sock, protocol.FETCH_PAYLOAD, {"keys": keys, "part": part})
            message_type, payload, frame_bytes = protocol.recv_message_sized(sock)
        except (OSError, protocol.ProtocolError) as error:
            if sock is not None:
                sock.close()
            raise WorkerLostError(
                f"the cluster worker serving {address} cannot be reached ({error}); "
                "the records it held are lost"
            ) from error
        records = payload.get("records", ())
        if message_type != protocol.PAYLOAD or len(records) != len(keys) or None in records:
            sock.close()
            raise ExecutionError(f"peer {address} could not serve {keys}: got {message_type}")
        with self._lock:
            previous = self._sockets.setdefault(address, sock)
        if previous is not sock:  # pragma: no cover - concurrent fetches to one peer
            sock.close()
        return records, frame_bytes

    def close(self) -> None:
        with self._lock:
            for sock in self._sockets.values():
                sock.close()
            self._sockets.clear()


#: Closed by ``ClusterContext.shutdown`` in the driver.
FETCH_CONNECTIONS = _FetchConnections()


class RemoteRecords:
    """Records that live in a worker's store: where, under which key, how many.

    ``owner`` exists in the driver only (it never travels): an object whose
    ``metrics`` is charged for what the driver pulls, and whose lifetime is
    the resident id's (see ``ClusterContext``).
    """

    __slots__ = ("address", "key", "record_count", "_records", "_owner")

    #: The ``Metrics`` method charged when the *driver* pulls these records.
    _driver_charge = ""

    def __init__(self, address: str, key: tuple[int, ...], record_count: int, owner: Any = None):
        self.address = address
        self.key = key
        self.record_count = record_count
        self._records: Any = None
        self._owner = owner

    def __reduce__(self) -> tuple:
        return (type(self), (self.address, self.key, self.record_count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.address}, key={self.key}, records={self.record_count})"


def _pull(address: str, references: list[RemoteRecords], part: Part = None) -> list[list[Any]]:
    """One ``FETCH_PAYLOAD`` round trip for references that all live at ``address``."""
    records, frame_bytes = FETCH_CONNECTIONS.fetch(address, [ref.key for ref in references], part)
    store = _ACTIVE_STORE
    if store is not None:
        with store._lock:
            store.payload_fetches += 1
            store.payload_fetch_bytes += frame_bytes
    elif references[0]._owner is not None:
        # No worker store: these records were just pulled into the driver.
        getattr(references[0]._owner.metrics, references[0]._driver_charge)(frame_bytes)
    return records


def _load(reference: RemoteRecords, part: Part = None) -> list[Any]:
    """The (slice of the) records behind one reference, wherever this runs."""
    store = _ACTIVE_STORE
    if store is None or _ACTIVE_ADDRESS != reference.address:
        return _pull(reference.address, [reference], part)[0]
    records = store.records(reference.key, part)
    if records is None:
        raise ExecutionError(f"local entry {reference.key} missing from the worker store")
    store.payload_local_reads += 1
    return records


class RemotePayload(RemoteRecords):
    """A shuffle bucket payload that still lives on the worker that wrote it.

    Duck-types the in-memory :class:`~repro.runtime.spill.BucketPayload`
    surface the reduce processors use: ``runs`` (always empty -- spilled runs
    were written on the *producing* worker's filesystem and are streamed by
    it at fetch time), ``records`` (materialized on first access and cached,
    because the sorted-merge path reads it twice), and ``record_count``
    (known without any transfer, so the driver can route buckets for free).
    """

    __slots__ = ()

    _driver_charge = "record_driver_payload"
    #: No local spill runs, ever: remote data arrives as one record block.
    runs: tuple = ()

    @property
    def records(self) -> tuple[Any, ...]:
        if self._records is None:
            self._records = _load(self)
        return self._records


class ResidentPartition(RemoteRecords, Sequence):
    """A task output that stayed on the worker that computed it.

    List-like for whoever holds it: ``len()`` is free, any element access
    fetches the records once and caches them, and a slice taken *before*
    that fetches only the slice (the adaptive sampler's stride costs at most
    its sample).  The driver gets these from ``ClusterContext.run_tasks``;
    inside a task an unresolved one reads itself from the local store or
    from its peer.
    """

    __slots__ = ()
    _driver_charge = "record_driver_fetch"

    def __len__(self) -> int:
        return self.record_count

    def _list(self) -> list[Any]:
        if self._records is None:
            self._records = _load(self)
        return self._records

    def __getitem__(self, item: Any) -> Any:
        if self._records is None and isinstance(item, slice):
            return _load(self, (item.start, item.stop, item.step))
        return self._list()[item]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._list())


def localize(partition: Any) -> Any:
    """Turn a shipped partition's references into records this task can read.

    ``partition`` is a handle away from its home position, a reduce bucket's
    list of routed payloads, or the zipped sides of a co-partitioned join.
    Local references are read from the store; the others are fetched with one
    request per peer, not one per reference.  Handles are replaced by their
    record lists, payloads keep their ``BucketPayload`` face.
    """
    whole = isinstance(partition, ResidentPartition)
    elements = [partition] if whole else partition
    by_peer: dict[str, list[RemoteRecords]] = {}
    for element in elements:
        if isinstance(element, RemoteRecords) and element._records is None:
            if element.address == _ACTIVE_ADDRESS:
                element._records = _load(element)
            else:
                by_peer.setdefault(element.address, []).append(element)
    for address, references in by_peer.items():
        for reference, records in zip(references, _pull(address, references), strict=True):
            reference._records = records
    resolved = [
        element._list() if isinstance(element, ResidentPartition) else element
        for element in elements
    ]
    return resolved[0] if whole else resolved
