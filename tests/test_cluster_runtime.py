"""Lifecycle and failure-detection tests for ``executor_mode="cluster"``.

These spawn real worker subprocesses through :class:`LocalCluster` (small
clusters, small data -- the full Figure 3 differential suite lives in
``test_cluster_equivalence.py`` behind ``DIABLO_CLUSTER_TESTS=1``).
"""

from __future__ import annotations

import gc
import os
import socket
import sys
import threading
import time
import types

import pytest

from repro.api import DiabloConfig
from repro.errors import ExecutionError, WorkerLostError
from repro.runtime.cluster import ClusterContext, LocalCluster, protocol, wire
from repro.runtime.cluster import context as context_mod
from repro.runtime.cluster import store as store_mod
from repro.runtime.cluster import worker as worker_mod
from repro.runtime.cluster.store import ResidentPartition
from repro.runtime.context import DistributedContext
from repro.runtime.partitioner import HashPartitioner


def _key_mod5(x):
    return (x % 5, x)


def _add(a, b):
    return a + b


def _concat(a, b):
    return a + b


def _is_even_key(pair):
    return pair[0] % 2 == 0


def _swap(pair):
    return (pair[1], pair[0])


def _heartbeat_acks(ctx) -> list[dict]:
    """One heartbeat ack per worker: what each one holds."""
    frame = protocol.encode_message(protocol.HEARTBEAT, {})
    return [reply[1] for reply in context_mod._exchange([(h, frame) for h in ctx._workers], 5.0)]


def _resident(ctx) -> tuple[int, int]:
    """``(resident partitions, captured payloads)`` over all workers, as their
    heartbeat acks report them."""
    acks = _heartbeat_acks(ctx)
    return sum(ack["partitions"] for ack in acks), sum(ack["payloads"] for ack in acks)


def _registered_tasks(ctx) -> list[int]:
    """How many task specs each worker keeps registered."""
    return [ack["tasks"] for ack in _heartbeat_acks(ctx)]


@pytest.fixture()
def cluster():
    ctx = ClusterContext(num_partitions=4, cluster_workers=2)
    yield ctx
    ctx.shutdown()


class TestLifecycle:
    def test_registration(self, cluster):
        workers = cluster._workers
        assert len(workers) == 2
        assert cluster.executor == "cluster"
        assert len({w.serve_address for w in workers}) == 2, "each worker serves its own port"
        assert all(w.pid > 0 for w in workers)
        assert all(w.lost is None for w in workers)

    def test_simple_pipeline(self, cluster):
        out = cluster.parallelize(range(100)).map(_key_mod5).reduce_by_key(_add).collect()
        expected = {k: sum(x for x in range(100) if x % 5 == k) for k in range(5)}
        assert dict(out) == expected
        snapshot = cluster.metrics.snapshot()
        assert snapshot["cluster_fallbacks"] == 0
        assert snapshot["driver_payload_bytes"] == 0
        assert snapshot["worker_payload_fetches"] + snapshot["worker_payload_local_reads"] > 0

    def test_resident_partitions_reused_across_stages(self, cluster):
        source = cluster.parallelize(range(200)).materialize()
        first = sorted(source.map(_key_mod5).reduce_by_key(_add).collect())
        assert cluster.metrics.resident_partition_reuses == 0
        second = sorted(source.map(_key_mod5).reduce_by_key(_add).collect())
        assert first == second
        # The second pass scans the same materialized partitions: the driver
        # sends store references, not the records again.
        assert cluster.metrics.resident_partition_reuses > 0

    def test_clean_shutdown_exits_workers(self):
        ctx = ClusterContext(num_partitions=4, cluster_workers=2)
        assert sorted(ctx.parallelize(range(20)).map(_key_mod5).reduce_by_key(_add).collect())
        local = ctx._local_cluster
        processes = [p for p in local.processes]
        ctx.shutdown()
        assert all(p is not None and p.returncode == 0 for p in processes), (
            "workers must exit voluntarily (code 0) on a clean shutdown, got "
            f"{[p and p.returncode for p in processes]}"
        )
        assert local.poll() == [None, None], "close() clears the process table"

    def test_double_shutdown_is_idempotent(self, cluster):
        cluster.shutdown()
        cluster.shutdown()  # must not raise or hang

    def test_context_manager_shuts_down(self):
        with ClusterContext(num_partitions=2, cluster_workers=1) as ctx:
            assert sorted(ctx.parallelize(range(10)).collect()) == list(range(10))
        assert ctx._workers is None

    def test_tasks_after_shutdown_fail_clearly(self, cluster):
        cluster.shutdown()
        with pytest.raises(ExecutionError, match="shut down"):
            cluster.parallelize(range(10)).map(_key_mod5).collect()

    def test_registration_timeout_raises(self):
        # Nothing will ever connect to this address.
        with pytest.raises(ExecutionError, match="registration timed out"):
            ClusterContext(
                num_partitions=2,
                cluster_workers=1,
                cluster_address="127.0.0.1:0",
                register_timeout=1.0,
            )


def _resident_pipelines(ctx) -> dict[str, list[list]]:
    """Every way a forced result is used again, as plain partition lists."""
    keyed = ctx.parallelize(range(240)).map(_key_mod5).materialize()
    swapped = keyed.map(_swap).materialize()
    placed = swapped.partition_by(HashPartitioner(4))
    other = ctx.parallelize([(x, str(x)) for x in range(0, 240, 3)]).partition_by(HashPartitioner(4))
    hot = ctx.parallelize([("hot", f"<{i}>") for i in range(500)] + [(f"c{i}", "-") for i in range(30)])
    results = {
        "collect": keyed.filter(_is_even_key).materialize(),
        "zip": placed.join(other),
        "salted": hot.map(_swap).map(_swap).materialize().reduce_by_key(_concat),
    }
    return {name: [list(partition) for partition in ds.partitions] for name, ds in results.items()}


class TestResidentResults:
    def test_forced_narrow_stages_push_nothing_after_the_first(self, cluster):
        first = cluster.parallelize(range(400)).map(_key_mod5).materialize()
        pushed = cluster.metrics.driver_pushed_bytes
        assert pushed > 0, "the driver-held input is pushed once"
        second = first.map(_swap).materialize()
        third = second.filter(_is_even_key).materialize()
        assert all(isinstance(p, ResidentPartition) for p in third.partitions)
        assert [len(p) for p in second.partitions] == [100] * 4, "counts need no records"
        snapshot = cluster.metrics.snapshot()
        assert snapshot["driver_pushed_bytes"] == pushed
        assert snapshot["driver_fetched_bytes"] == snapshot["driver_fetches"] == 0
        assert snapshot["resident_partition_reuses"] == 8
        assert sorted(third.collect()) == sorted((x, x % 5) for x in range(400) if x % 2 == 0)
        assert cluster.metrics.driver_fetches == 4, "only the collect read anything"

    def test_every_reuse_of_a_handle_matches_the_sequential_executor(self, cluster):
        with DistributedContext(num_partitions=4) as sequential:
            expected = _resident_pipelines(sequential)
        assert _resident_pipelines(cluster) == expected
        snapshot = cluster.metrics.snapshot()
        assert snapshot["cluster_fallbacks"] == 0
        assert snapshot["driver_payload_bytes"] == 0
        assert snapshot["narrow_joins"] == 1 and snapshot["salted_keys"] >= 1

    def test_dropping_a_dataset_frees_its_partitions_on_the_workers(self, cluster):
        source = cluster.parallelize(range(200)).materialize()
        assert _resident(cluster) == (0, 0)
        source.map(_key_mod5).collect()  # pushes the input; the reply carries the records
        baseline = _resident(cluster)
        assert baseline == (4, 0), "the pushed input stays for the next wave"
        keyed = source.map(_key_mod5).materialize()
        reduced = keyed.reduce_by_key(_add).materialize()
        partitions, payloads = _resident(cluster)
        assert partitions == 12 and payloads > 0, "captures wait for the next request"
        del keyed, reduced
        gc.collect()
        source.map(_key_mod5).collect()  # one more wave: the frees ride in it
        assert _resident(cluster) == baseline
        assert [handle.unfreed for handle in cluster._workers] == [[], []]
        assert not cluster._garbage, "nothing is left waiting for a free"

    def test_reading_a_handle_of_a_killed_worker_raises_worker_lost(self):
        ctx = ClusterContext(num_partitions=4, cluster_workers=2, heartbeat_interval=1.0)
        try:
            keyed = ctx.parallelize(range(40)).map(_key_mod5).materialize()
            assert list(keyed.partitions[1]), "the surviving worker's handle reads fine"
            # Registration order is not spawn order: find partition 0's owner.
            pids = [process.pid for process in ctx._local_cluster.processes]
            ctx._local_cluster.kill(pids.index(ctx._workers[0].pid))
            started = time.monotonic()
            with pytest.raises(WorkerLostError, match="cannot be reached"):
                list(keyed.partitions[0])
            with pytest.raises(WorkerLostError):
                keyed.map(_swap).collect()
            assert time.monotonic() - started < 2 * ctx.heartbeat_interval
        finally:
            ctx.shutdown()

    def test_shutdown_leaves_nothing_behind(self):
        ctx = ClusterContext(num_partitions=4, cluster_workers=2)
        keyed = ctx.parallelize(range(40)).map(_key_mod5).materialize()
        assert sorted(keyed.collect()) == sorted(_key_mod5(x) for x in range(40))
        processes = list(ctx._local_cluster.processes)
        monitor = ctx._monitor_thread
        ctx.shutdown()
        monitor.join(timeout=5.0)
        assert not monitor.is_alive()
        assert all(process.returncode == 0 for process in processes), "resident state went with them"
        assert not store_mod.FETCH_CONNECTIONS._sockets, "the driver's fetch sockets are closed"
        assert not ctx._push_cache._entries
        del keyed
        gc.collect()  # a lease dying after shutdown only appends to a dead queue


class TestConfigPlumbing:
    def test_from_config_builds_a_cluster_context(self):
        config = DiabloConfig(executor_mode="cluster", cluster_workers=1, num_partitions=2)
        ctx = DistributedContext.from_config(config)
        try:
            assert isinstance(ctx, ClusterContext)
            assert ctx.cluster_workers == 1
            assert sorted(ctx.parallelize(range(6)).collect()) == list(range(6))
        finally:
            ctx.shutdown()

    def test_cluster_mode_validates(self):
        assert DiabloConfig(executor_mode="cluster").executor_mode == "cluster"
        with pytest.raises(ValueError, match="unknown executor_mode"):
            DiabloConfig(executor_mode="clusterr")
        with pytest.raises(ValueError, match="cluster_workers"):
            DiabloConfig(cluster_workers=0)

    def test_runtime_key_distinguishes_cluster_settings(self):
        base = DiabloConfig(executor_mode="cluster")
        assert base.runtime_key() != base.replace(cluster_workers=5).runtime_key()
        assert base.runtime_key() != base.replace(cluster_address="h:1").runtime_key()


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _start_stalling_worker(address: str) -> threading.Thread:
    """A fake worker: registers correctly, then never answers anything."""

    def run() -> None:
        deadline = time.monotonic() + 10.0
        sock = None
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(protocol.parse_address(address), timeout=1.0)
                break
            except OSError:
                time.sleep(0.05)
        assert sock is not None
        sock.settimeout(None)  # stall forever, don't time out ourselves
        protocol.send_message(
            sock,
            protocol.REGISTER,
            {
                "pid": 1,
                "serve_address": "127.0.0.1:1",
                "protocol_version": protocol.PROTOCOL_VERSION,
                "python": tuple(sys.version_info[:3]),
            },
        )
        protocol.recv_message(sock)  # REGISTERED
        try:
            while True:
                protocol.recv_message(sock)  # swallow requests, never reply
        except Exception:
            pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestFailureDetection:
    def test_killed_worker_raises_worker_lost_promptly(self):
        ctx = ClusterContext(num_partitions=4, cluster_workers=2, task_timeout=30.0)
        try:
            assert len(ctx.parallelize(range(40)).map(_key_mod5).reduce_by_key(_add).collect()) == 5
            ctx._local_cluster.kill(0)
            started = time.monotonic()
            with pytest.raises(WorkerLostError, match="worker"):
                ctx.parallelize(range(40)).map(_key_mod5).reduce_by_key(_add).collect()
            assert time.monotonic() - started < 20.0, "detection must not wait for the full timeout"
        finally:
            ctx.shutdown()

    def test_unresponsive_worker_times_out_as_worker_lost(self):
        port = _free_port()
        address = f"127.0.0.1:{port}"
        _start_stalling_worker(address)
        ctx = ClusterContext(
            num_partitions=2,
            cluster_workers=1,
            cluster_address=address,
            task_timeout=1.5,
            heartbeat_interval=60.0,
        )
        try:
            started = time.monotonic()
            with pytest.raises(WorkerLostError, match="respond"):
                ctx.parallelize(range(10)).map(_key_mod5).reduce_by_key(_add).collect()
            elapsed = time.monotonic() - started
            assert elapsed < 15.0, f"timed out in {elapsed:.1f}s, expected ~task_timeout"
        finally:
            ctx.shutdown()

    def test_lost_worker_fails_queued_requests_too(self):
        ctx = ClusterContext(num_partitions=4, cluster_workers=2)
        try:
            handle = ctx._workers[0]
            handle._mark_lost_probe = None  # silence linters about unused vars
            error = WorkerLostError("test")
            handle.lost = error
            (reply,) = context_mod._exchange([(handle, b"ignored")], 1.0)
            with pytest.raises(WorkerLostError):
                raise reply
        finally:
            ctx.shutdown()


class TestWorkerErrors:
    def test_task_exception_surfaces_as_execution_error(self, cluster):
        def boom(x):
            raise ZeroDivisionError("cluster boom")

        with pytest.raises(ExecutionError, match="task"):
            cluster.parallelize(range(10)).map(boom).collect()
        # The cluster survives a task failure (unlike a lost worker).
        assert sorted(cluster.parallelize(range(5)).collect()) == list(range(5))

    def test_failure_message_counts_the_failed_batches(self, cluster):
        def boom(x):
            raise ZeroDivisionError("cluster boom")

        with pytest.raises(ExecutionError, match="2 of 2 worker task batch"):
            cluster.parallelize(range(10)).map(boom).collect()


def _task_frames(monkeypatch) -> list[tuple[int, dict]]:
    """Record every task frame the driver sends, as ``(worker index, payload)``."""
    sent: list[tuple[int, dict]] = []
    exchange = context_mod._exchange

    def recording(requests, timeout, locked=False):
        for handle, frame in requests:
            message_type, payload = wire.cluster_loads(frame[protocol._WIRE_HEADER.size :])
            if message_type in (protocol.RUN_TASKS, protocol.SHUFFLE_WRITE):
                sent.append((handle.index, payload))
        return exchange(requests, timeout, locked)

    monkeypatch.setattr(context_mod, "_exchange", recording)
    return sent


def _exit_in(pid):
    """A map function that kills the worker process ``pid`` when it runs there."""

    def exit_here(x):
        if os.getpid() == pid:
            os._exit(1)
        return x

    return exit_here


class TestLeanWave:
    """A wave is one send-all / receive-all exchange; reads batch per peer."""

    def test_two_driver_threads_share_one_context(self, cluster):
        expected = sorted(map(_key_mod5, range(200)))
        results, errors = [], []
        together = threading.Barrier(2, timeout=30.0)

        def collect_repeatedly():
            try:
                for _ in range(25):
                    together.wait()  # both waves in flight at once
                    results.append(sorted(cluster.parallelize(range(200)).map(_key_mod5).collect()))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=collect_repeatedly, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "the driver threads deadlocked"
        assert not errors
        assert results == [expected] * 50

    @pytest.mark.parametrize("doomed", [0, 1])
    def test_a_worker_killed_mid_wave_is_lost_and_its_peer_drained(self, doomed):
        ctx = ClusterContext(num_partitions=2, cluster_workers=2, task_timeout=20.0)
        try:
            survivor = ctx._workers[1 - doomed]
            started = time.monotonic()
            with pytest.raises(WorkerLostError, match=f"worker {doomed}"):
                ctx.parallelize(range(8)).map(_exit_in(ctx._workers[doomed].pid)).collect()
            assert time.monotonic() - started < ctx.task_timeout
            assert survivor.lost is None
            # The survivor's task reply was read: its next request gets its own answer.
            if survivor.index == 0:
                assert ctx.parallelize(range(4), 1).map(_key_mod5).collect() == [
                    _key_mod5(x) for x in range(4)
                ]
            frame = protocol.encode_message(protocol.HEARTBEAT, {})
            (reply,) = context_mod._exchange([(survivor, frame)], 5.0)
            assert reply[0] == protocol.HEARTBEAT_ACK and reply[1]["index"] == survivor.index
        finally:
            ctx.shutdown()

    def test_a_reduce_fetches_once_per_batch_and_peer(self, cluster):
        keyed = cluster.parallelize(range(400)).map(_key_mod5)
        assert cluster.metrics.worker_payload_fetches == 0
        reduced = keyed.reduce_by_key(_add).materialize()
        # Four map tasks, two per worker, each with a payload for every
        # bucket: each worker's two-task reduce batch reads its peer once.
        assert cluster.metrics.worker_payload_fetches == 2
        assert sorted(reduced.collect()) == sorted(
            (k, sum(x for x in range(400) if x % 5 == k)) for k in range(5)
        )

    def test_an_adaptive_sample_fetches_once_per_worker(self, cluster, monkeypatch):
        records = [("hot", f"<{i}>") for i in range(500)] + [(f"c{i}", "-") for i in range(30)]
        samples = []
        strided = ClusterContext._strided

        def counted(ctx, partitions, steps):
            before = ctx.metrics.driver_fetches
            sliced = strided(ctx, partitions, steps)
            samples.append((ctx.metrics.driver_fetches - before, sliced, steps))
            return sliced

        monkeypatch.setattr(ClusterContext, "_strided", counted)

        def run(ctx):
            keyed = ctx.parallelize(records).map(_swap).map(_swap).materialize()
            reduced = keyed.reduce_by_key(_concat).materialize()
            return keyed, sorted(reduced.collect()), ctx.metrics.adaptive_log

        with DistributedContext(num_partitions=4) as sequential:
            _, expected, expected_log = run(sequential)
        keyed, result, log = run(cluster)
        [(fetches, sliced, steps)] = samples
        assert fetches == len(cluster._workers) == 2, "one slice request per worker"
        # Record for record the slices the sequential executor samples.
        assert sliced == [list(part)[::step] for part, step in zip(keyed.partitions, steps, strict=True)]
        assert expected_log, "the sample decided something"
        assert log == expected_log and result == expected


def _unloadable_function():
    """A by-value function whose one global is a module no worker can import."""
    namespace = {"__name__": "diablo_test_origin", "ghost": types.ModuleType("diablo_ghost_module")}
    exec("def through_ghost(x):\n    return ghost.value(x)\n", namespace)
    return namespace["through_ghost"]


class TestTaskRegistry:
    def test_a_repeated_spec_ships_its_bytes_once_per_worker(self, cluster, monkeypatch):
        sent = _task_frames(monkeypatch)
        source = cluster.parallelize(range(40))
        first = source.map(_key_mod5).collect()
        assert source.map(_key_mod5).collect() == first
        assert len(sent) == 4, "two waves, one frame per worker each"
        task_ids = {payload["task_id"] for _, payload in sent}
        assert len(task_ids) == 1, "the same bytes keep the same id"
        assert [payload["task"] is not None for _, payload in sent] == [True, True, False, False]
        assert [handle.registered for handle in cluster._workers] == [task_ids, task_ids]
        assert _registered_tasks(cluster) == [1, 1]

    def test_a_worker_the_first_wave_skipped_gets_the_bytes_on_its_first_wave(
        self, cluster, monkeypatch
    ):
        sent = _task_frames(monkeypatch)
        assert cluster.parallelize(range(10), 1).map(_key_mod5).collect()
        assert cluster.parallelize(range(40), 4).map(_key_mod5).collect()
        carried = [(index, payload["task"] is not None) for index, payload in sent]
        assert sorted(carried) == [(0, False), (0, True), (1, True)]
        assert len({payload["task_id"] for _, payload in sent}) == 1
        assert _registered_tasks(cluster) == [1, 1]

    def test_a_spec_that_fails_to_load_is_resent(self, cluster, monkeypatch):
        sent = _task_frames(monkeypatch)
        source = cluster.parallelize(range(8))
        through_ghost = _unloadable_function()
        for _ in range(2):
            with pytest.raises(ExecutionError, match="diablo_ghost_module"):
                source.map(through_ghost).collect()
        assert len(sent) == 4 and all(payload["task"] is not None for _, payload in sent)
        assert len({payload["task_id"] for _, payload in sent}) == 1
        assert all(handle.lost is None and not handle.registered for handle in cluster._workers)
        assert _registered_tasks(cluster) == [0, 0]
        assert sorted(source.map(_key_mod5).collect()) == sorted(map(_key_mod5, range(8)))

    def test_eviction_past_the_cap_frees_registered_tasks(self, monkeypatch):
        monkeypatch.setattr(context_mod, "_TASK_CACHE_CAPACITY", 2)
        with ClusterContext(num_partitions=4, cluster_workers=2) as ctx:
            source = ctx.parallelize(range(40))
            for function in (_key_mod5, str, abs, float):
                assert len(source.map(function).collect()) == 40
            assert len(ctx._task_cache._entries) == 2
            # The fourth wave's frames carried the frees of the first two specs.
            assert _registered_tasks(ctx) == [2, 2]
            assert [len(handle.registered) for handle in ctx._workers] == [2, 2]


class TestLocalCluster:
    def test_logs_are_written_per_worker(self, tmp_path):
        ctx = ClusterContext(num_partitions=2, cluster_workers=2)
        try:
            log_dir = ctx._local_cluster.log_dir
            import os

            names = sorted(os.listdir(log_dir))
            assert names == ["worker-0.log", "worker-1.log"]
        finally:
            ctx.shutdown()

    def test_close_is_idempotent(self, tmp_path):
        # The listener's backlog completes the connection, but nothing ever
        # reads the registration: the worker gives up on its own (slack for
        # interpreter start-up on a loaded machine), so close has nothing
        # left to wait for.
        port = _free_port()
        listener = socket.create_server(("127.0.0.1", port))
        local = LocalCluster(1, f"127.0.0.1:{port}", log_dir=str(tmp_path))
        try:
            assert local.processes[0].wait(timeout=worker_mod.REGISTER_REPLY_SECONDS + 10) == 1
        finally:
            local.close()
            local.close()
            listener.close()
        assert "did not answer the registration" in (tmp_path / "worker-0.log").read_text()
