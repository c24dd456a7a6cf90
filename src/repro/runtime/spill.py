"""Out-of-core shuffle spilling: framed-pickle runs, payloads, and the store.

The in-memory shuffle path is bounded by driver/worker RAM: every map task
materializes all of its buckets and the driver concatenates whole bucket
lists before the reduce side runs.  This module provides the spillable
alternative:

* a **map task** hands its whole partition to a :class:`BucketWriter`,
  which places each record by its key as it appends it; the estimated
  buffered bytes are charged per slice of :data:`SIZE_SAMPLE_RECORDS`
  records, and once they
  exceed ``spill_threshold_bytes`` the writer appends each non-empty bucket
  as one **framed-pickle run** to that bucket's per-(task, partition) spill
  file and empties the buffers.
* the task's output per bucket is a :class:`BucketPayload` -- the run
  descriptors plus whatever remained in memory -- instead of a record list.
  Payloads are tiny picklable tuples, so they cross the process boundary
  while the records stay on disk.
* a **reduce task** receives the list of payloads destined for its partition
  and *streams* the records back with :func:`iter_merged` (runs in write
  order, then the in-memory remainder), which reproduces exactly the record
  order of the in-memory path -- reduce-side merges and group-bys therefore
  yield byte-identical results with and without spilling.

File framing: a run is a sequence of **chunk frames**, each ``[8-byte
payload length | 4-byte record count | pickle bytes of a record chunk]``
(at most :data:`RUN_CHUNK_RECORDS` records per chunk), so a spill file is
self-describing and a :class:`SpillRun` descriptor (path, offset, length,
records) can seek straight to its first frame.  Readers decode one chunk at
a time (:func:`stream_run` yields whole chunks, which :func:`iter_merged`
flattens), so a reduce task merging k runs holds k chunks -- not k whole
runs, and never the whole partition -- in memory at once.

Lifecycle is owned by the driver's :class:`ShuffleStore`
(one per :class:`~repro.runtime.context.DistributedContext`): each shuffle
gets its own directory under a lazily-created temp root, removed as soon as
the shuffle's reduce side has consumed the runs (or the shuffle failed), and
the whole root is removed on context shutdown -- with a ``weakref.finalize``
backstop for contexts that are never closed.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import sys
import tempfile
import weakref
from itertools import chain
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

#: Chunk frame header: payload byte length + record count.
_FRAME_HEADER = struct.Struct(">QI")

#: Records per chunk frame within a run: the unit of reduce-side streaming
#: (and of memory use while merging -- one chunk per run is live at a time).
RUN_CHUNK_RECORDS = 512

#: Records per spill-budget charge in :meth:`BucketWriter.write`: one
#: :func:`approximate_size` sample stands for the whole slice.
SIZE_SAMPLE_RECORDS = 64


class SpillSpec(NamedTuple):
    """Picklable per-shuffle spill instructions shipped inside map tasks.

    Attributes:
        directory: the shuffle's private spill directory (absolute path on a
            filesystem shared by driver and worker processes).
        threshold_bytes: estimated in-memory bucket bytes a map task may
            buffer before flushing its buckets to runs.
    """

    directory: str
    threshold_bytes: int


class SpillRun(NamedTuple):
    """One framed-pickle run inside a spill file."""

    path: str
    offset: int
    length: int
    records: int


class BucketPayload(NamedTuple):
    """One map task's output for one reduce partition.

    ``runs`` hold the spilled record chunks in write (chronological) order;
    ``records`` is the in-memory remainder, chronologically *after* every
    run.  Streaming runs-then-remainder therefore reproduces the exact
    record order the in-memory path would have produced.
    """

    runs: tuple[SpillRun, ...]
    records: tuple[Any, ...]

    @property
    def record_count(self) -> int:
        return sum(run.records for run in self.runs) + len(self.records)


def approximate_size(record: Any) -> int:
    """Cheap per-record memory estimate driving the spill budget.

    ``sys.getsizeof`` plus one level of tuple contents, sampled once per
    slice of :data:`SIZE_SAMPLE_RECORDS` records by the writer; deterministic
    for a given value, so spill decisions (and the resulting metrics) are
    identical across executor modes.
    """
    size = sys.getsizeof(record)
    if isinstance(record, tuple):
        for element in record:
            size += sys.getsizeof(element)
    return size


def append_run(path: str, records: list[Any]) -> SpillRun:
    """Append one chunk-framed run to ``path`` and return its descriptor."""
    with open(path, "ab") as handle:
        offset = handle.tell()
        length = 0
        for start in range(0, len(records), RUN_CHUNK_RECORDS):
            chunk = records[start : start + RUN_CHUNK_RECORDS]
            payload = pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(_FRAME_HEADER.pack(len(payload), len(chunk)))
            handle.write(payload)
            length += _FRAME_HEADER.size + len(payload)
    return SpillRun(path, offset, length, len(records))


def stream_run(run: SpillRun) -> Iterator[list[Any]]:
    """Stream one run's decoded record chunks, one chunk frame at a time."""
    consumed = yielded = 0
    with open(run.path, "rb") as handle:
        handle.seek(run.offset)
        while consumed < run.length:
            header = handle.read(_FRAME_HEADER.size)
            length, count = _FRAME_HEADER.unpack(header)
            chunk = pickle.loads(handle.read(length))
            if len(chunk) != count:  # pragma: no cover - corruption guard
                raise OSError(
                    f"corrupt spill chunk {run.path}@{run.offset + consumed}: "
                    f"{len(chunk)} != {count}"
                )
            consumed += _FRAME_HEADER.size + length
            yielded += len(chunk)
            yield chunk
    if yielded != run.records:  # pragma: no cover - corruption guard
        raise OSError(f"corrupt spill run {run.path}@{run.offset}: {yielded} != {run.records}")


def read_run(run: SpillRun) -> list[Any]:
    """Load one whole run (convenience for tests and small runs)."""
    return list(chain.from_iterable(stream_run(run)))


def _payload_chunks(payloads: Iterable[BucketPayload]) -> Iterator[Sequence[Any]]:
    """Every payload's record chunks: its runs' chunks in write order, then
    its in-memory remainder."""
    for payload in payloads:
        for run in payload.runs:
            yield from stream_run(run)
        yield payload.records


def iter_payload(payload: BucketPayload) -> Iterator[Any]:
    """Stream one payload's records: runs in write order, then the remainder."""
    return iter_merged((payload,))


def iter_merged(payloads: Iterable[BucketPayload]) -> Iterator[Any]:
    """Stream a reduce partition's records across its payloads, in map-task
    order -- the same order the in-memory transpose produced.  Records are
    flattened out of whole chunks, so no generator frame runs per record."""
    return chain.from_iterable(_payload_chunks(payloads))


class BucketWriter:
    """Accumulates one map task's buckets, spilling once over budget.

    Created inside the map task (possibly in a worker process).  ``task_tag``
    makes the task's spill files unique within the shuffle directory
    (``i<input>-m<map partition>``); one file exists per (task, reduce
    partition), and successive flushes append runs to it.
    """

    def __init__(self, num_buckets: int, spill: SpillSpec | None, task_tag: str = "m0"):
        self.spill = spill
        self.task_tag = task_tag
        self.buckets: list[list[Any]] = [[] for _ in range(num_buckets)]
        self._paths: list[str | None] = [None] * num_buckets
        self.runs: list[list[SpillRun]] = [[] for _ in range(num_buckets)]
        self.buffered = 0
        self.peak_memory = 0
        self.spilled_bytes = 0
        self.spill_files = 0

    def write(self, targets: Sequence[int], records: Sequence[Any]) -> None:
        """Append ``records[i]`` to bucket ``targets[i]``, in order.

        With spilling on, the budget is charged once per slice of
        :data:`SIZE_SAMPLE_RECORDS` records, as the slice's first record's
        :func:`approximate_size` times the slice length, and the flush check
        runs after each slice -- so the buffered estimate may pass the
        threshold by up to one slice before the flush.
        """
        appends = [bucket.append for bucket in self.buckets]
        if self.spill is None:
            for target, record in zip(targets, records, strict=True):
                appends[target](record)
            return
        for start in range(0, len(records), SIZE_SAMPLE_RECORDS):
            stop = start + SIZE_SAMPLE_RECORDS
            piece = records[start:stop]
            for target, record in zip(targets[start:stop], piece, strict=True):
                appends[target](record)
            self._charge(piece)

    def write_keyed(self, partitioner: Any, records: Sequence[Any], tagged: bool = False) -> None:
        """Append each record to the bucket of its key, in order, placed by
        ``partitioner.place`` (see
        :meth:`~repro.runtime.partitioner.Partitioner.place`): one pass
        reads, places and appends each record, with the budget charged per
        slice as in :meth:`write`."""
        appends = [bucket.append for bucket in self.buckets]
        if self.spill is None:
            partitioner.place(records, appends, tagged)
            return
        for start in range(0, len(records), SIZE_SAMPLE_RECORDS):
            piece = records[start : start + SIZE_SAMPLE_RECORDS]
            partitioner.place(piece, appends, tagged)
            self._charge(piece)

    def _charge(self, piece: Sequence[Any]) -> None:
        """Charge one written slice to the budget; flush once over it."""
        self.buffered += approximate_size(piece[0]) * len(piece)
        if self.buffered > self.peak_memory:
            self.peak_memory = self.buffered
        if self.buffered > self.spill.threshold_bytes:  # type: ignore[union-attr]
            self.flush()

    def flush(self) -> None:
        """Spill every non-empty bucket as one run and empty the buffers
        (in place: :meth:`write` holds the lists' ``append`` methods)."""
        if self.spill is None:  # pragma: no cover - guarded by write()
            return
        for bucket_index, bucket in enumerate(self.buckets):
            if not bucket:
                continue
            path = self._paths[bucket_index]
            if path is None:
                path = os.path.join(
                    self.spill.directory, f"{self.task_tag}-p{bucket_index}.spill"
                )
                self._paths[bucket_index] = path
                self.spill_files += 1
            run = append_run(path, bucket)
            self.runs[bucket_index].append(run)
            self.spilled_bytes += run.length
            bucket.clear()
        self.buffered = 0

    def finish(self) -> list[BucketPayload]:
        """The per-bucket payloads (runs, then the in-memory remainder)."""
        return [
            BucketPayload(tuple(self.runs[index]), tuple(self.buckets[index]))
            for index in range(len(self.buckets))
        ]


class ShuffleStore:
    """Driver-owned lifecycle manager for shuffle spill directories.

    One store per :class:`~repro.runtime.context.DistributedContext`.  When
    spilling is disabled (``threshold_bytes is None``) the store is inert and
    :meth:`begin_shuffle` returns ``None``.  Otherwise every shuffle gets a
    private directory under a lazily-created temp root; the context removes
    it via :meth:`end_shuffle` as soon as the shuffle's runs have been
    consumed (success *or* failure), and :meth:`close` removes the root.  A
    ``weakref.finalize`` removes the root even if the context is never
    closed, so crashed runs do not leak spill files past interpreter exit.
    """

    def __init__(self, base_dir: str | None = None, threshold_bytes: int | None = None):
        if threshold_bytes is not None and threshold_bytes <= 0:
            raise ValueError("spill_threshold_bytes must be positive (or None to disable)")
        self.threshold_bytes = threshold_bytes
        self.base_dir = os.path.abspath(base_dir) if base_dir else None
        self._root: str | None = None
        self._finalizer: weakref.finalize | None = None
        self._shuffle_counter = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_bytes is not None

    @property
    def root(self) -> str | None:
        """The temp root currently holding spill directories (None until the
        first spilled shuffle, and again after :meth:`close`)."""
        return self._root

    def _ensure_root(self) -> str:
        if self._root is None:
            if self.base_dir is not None:
                os.makedirs(self.base_dir, exist_ok=True)
            self._root = tempfile.mkdtemp(prefix="diablo-shuffle-", dir=self.base_dir)
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._root, True
            )
        return self._root

    def begin_shuffle(self) -> SpillSpec | None:
        """Allocate a spill directory for one shuffle (None when disabled)."""
        if self.threshold_bytes is None:
            return None
        self._shuffle_counter += 1
        directory = os.path.join(self._ensure_root(), f"shuffle-{self._shuffle_counter}")
        os.makedirs(directory)
        return SpillSpec(directory, self.threshold_bytes)

    def end_shuffle(self, spec: SpillSpec | None) -> None:
        """Remove one shuffle's spill directory (idempotent, crash-safe)."""
        if spec is not None:
            shutil.rmtree(spec.directory, ignore_errors=True)

    def active_shuffle_dirs(self) -> list[str]:
        """Spill directories not yet cleaned up (diagnostics / tests)."""
        if self._root is None or not os.path.isdir(self._root):
            return []
        return sorted(
            os.path.join(self._root, name) for name in os.listdir(self._root)
        )

    def close(self) -> None:
        """Remove the temp root; the store stays usable (root recreated
        lazily on the next spilled shuffle)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
