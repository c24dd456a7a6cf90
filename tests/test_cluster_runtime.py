"""Lifecycle and failure-detection tests for ``executor_mode="cluster"``.

These spawn real worker subprocesses through :class:`LocalCluster` (small
clusters, small data -- the full Figure 3 differential suite lives in
``test_cluster_equivalence.py`` behind ``DIABLO_CLUSTER_TESTS=1``).
"""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time

import pytest

from repro.api import DiabloConfig
from repro.errors import ExecutionError, WorkerLostError
from repro.runtime.cluster import ClusterContext, LocalCluster, protocol
from repro.runtime.cluster import store as store_mod
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


def _pair_key(pair):
    return pair[0]


def _resident(ctx) -> tuple[int, int]:
    """``(resident partitions, captured payloads)`` over all workers, as their
    heartbeat acks report them."""
    acks = [
        handle.submit(protocol.encode_message(protocol.HEARTBEAT, {}), 5.0).result(timeout=5.0)[1]
        for handle in ctx._workers
    ]
    return sum(ack["partitions"] for ack in acks), sum(ack["payloads"] for ack in acks)


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
        assert sorted(ctx.parallelize(range(20)).map(_key_mod5).distinct().collect())
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
        "reversed": swapped.sort_by(_pair_key, ascending=False).map(_swap),
        "union": keyed.union(swapped).map(_swap),
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
        threads = [handle.thread for handle in ctx._workers] + [ctx._monitor_thread]
        ctx.shutdown()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
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
                ctx.parallelize(range(10)).map(_key_mod5).distinct().collect()
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
            future = handle.submit(b"ignored", 1.0)
            with pytest.raises(WorkerLostError):
                future.result(timeout=1.0)
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

    def test_close_is_idempotent(self):
        port = _free_port()
        listener = socket.create_server(("127.0.0.1", port))
        try:
            local = LocalCluster(1, f"127.0.0.1:{port}")
            local.close()
            local.close()
        finally:
            listener.close()
