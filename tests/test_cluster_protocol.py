"""Unit tests for the cluster wire protocol, the closure-capable pickler and
the worker store.

These run without any worker processes: framing is exercised over
``socket.socketpair`` and serialization round-trips happen in-process.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.runtime.cluster import protocol, wire
from repro.runtime.cluster.store import WorkerStore

# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        payload = {"numbers": list(range(50)), "nested": {"a": (1, 2)}}
        protocol.send_message(left, protocol.RUN_TASKS, payload)
        message_type, received = protocol.recv_message(right)
        assert message_type == protocol.RUN_TASKS
        assert received == payload

    def test_multiple_frames_stay_delimited(self, pair):
        left, right = pair
        for index in range(5):
            protocol.send_message(left, protocol.HEARTBEAT, {"index": index})
        for index in range(5):
            message_type, received = protocol.recv_message(right)
            assert message_type == protocol.HEARTBEAT
            assert received == {"index": index}

    def test_sized_receive_reports_full_frame_bytes(self, pair):
        left, right = pair
        frame = protocol.encode_message(protocol.PAYLOAD, {"records": [1, 2, 3]})
        protocol.send_frame(left, frame)
        _, _, frame_bytes = protocol.recv_message_sized(right)
        assert frame_bytes == len(frame)

    def test_bad_magic_rejected(self, pair):
        left, right = pair
        frame = protocol.encode_message(protocol.HEARTBEAT, {})
        left.sendall(b"EVIL" + frame[4:])
        with pytest.raises(protocol.ProtocolError, match="magic"):
            protocol.recv_message(right)

    def test_version_mismatch_rejected(self, pair):
        left, right = pair
        frame = bytearray(protocol.encode_message(protocol.HEARTBEAT, {}))
        frame[4] = protocol.PROTOCOL_VERSION + 1
        left.sendall(bytes(frame))
        with pytest.raises(protocol.ProtocolError, match="version mismatch"):
            protocol.recv_message(right)

    def test_truncated_frame_is_a_protocol_error(self, pair):
        left, right = pair
        frame = protocol.encode_message(protocol.RUN_TASKS, {"data": list(range(100))})
        left.sendall(frame[: len(frame) - 10])
        left.close()
        with pytest.raises(protocol.ProtocolError, match="truncated"):
            protocol.recv_message(right)

    def test_clean_close_between_frames_is_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_message(right)
        # ConnectionClosed specializes ProtocolError so generic handlers work.
        assert issubclass(protocol.ConnectionClosed, protocol.ProtocolError)

    def test_oversized_header_length_rejected(self, pair):
        left, right = pair
        header = struct.Struct(">4sB3xQ").pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.MAX_FRAME_BYTES + 1
        )
        left.sendall(header)
        with pytest.raises(protocol.ProtocolError, match="cap"):
            protocol.recv_message(right)

    def test_oversized_body_rejected_at_encode_time(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 8)
        with pytest.raises(protocol.ProtocolError, match="cap"):
            protocol.encode_message(protocol.RUN_TASKS, {"data": list(range(100))})

    def test_undecodable_body_is_a_protocol_error(self, pair):
        left, right = pair
        body = b"this is not a pickle"
        header = struct.Struct(">4sB3xQ").pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION, len(body)
        )
        left.sendall(header + body)
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.recv_message(right)


class TestAddresses:
    def test_parse_and_format_round_trip(self):
        assert protocol.parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert protocol.format_address(("10.0.0.2", 81)) == "10.0.0.2:81"

    def test_parse_rejects_portless_addresses(self):
        with pytest.raises(ValueError):
            protocol.parse_address("localhost")
        with pytest.raises(ValueError):
            protocol.parse_address(":9000")


# ---------------------------------------------------------------------------
# The closure-capable pickler
# ---------------------------------------------------------------------------


_MODULE_CONSTANT = 17


def _module_function(x):
    return x + _MODULE_CONSTANT


class TestWireSerialization:
    def round_trip(self, obj):
        return wire.cluster_loads(wire.cluster_dumps(obj))

    def test_plain_data_round_trips(self):
        value = {"k": [1, 2.5, "three", (4, None)]}
        assert self.round_trip(value) == value

    def test_codebase_function_ships_by_reference(self):
        from repro.runtime.stage import pair_key

        assert self.round_trip(pair_key) is pair_key

    def test_test_module_function_ships_by_value(self):
        # Functions importable only through the driver's extra sys.path
        # entries (like this test module) must NOT go by reference: a worker
        # cannot import them.
        fn = self.round_trip(_module_function)
        assert fn is not _module_function
        assert fn(3) == 20

    def test_lambda_ships_by_value(self):
        fn = self.round_trip(lambda x: x * 3)
        assert fn(7) == 21

    def test_closure_cells_survive(self):
        offset = 40

        def shifted(x):
            return x + offset

        fn = self.round_trip(shifted)
        assert fn(2) == 42

    def test_defaults_and_kwdefaults_survive(self):
        def combine(a, b=10, *, c=100):
            return a + b + c

        fn = self.round_trip(combine)
        assert fn(1) == 111
        assert fn(1, 2, c=3) == 6

    def test_recursive_closure_survives(self):
        def factorial(n):
            return 1 if n <= 1 else n * factorial(n - 1)

        fn = self.round_trip(factorial)
        assert fn(5) == 120

    def test_local_function_reads_module_globals_after_shipping(self):
        def uses_global(x):
            return _module_function(x)

        fn = self.round_trip(uses_global)
        assert fn(3) == 20

    def test_function_from_unimportable_module_gets_isolated_globals(self):
        namespace = {"__name__": "__diablo_wire_test_fake__", "OFFSET": 5}
        exec("def shifted(x):\n    return x + OFFSET\n", namespace)
        fn = self.round_trip(namespace["shifted"])
        assert fn(2) == 7
        assert wire._ISOLATED_GLOBALS_MARKER in fn.__globals__

    def test_unpicklable_graph_raises_unshippable(self):
        with pytest.raises(wire.UnshippableError):
            wire.cluster_dumps({"lock": threading.Lock()})

    def test_context_ships_as_inert_stub(self):
        from repro.runtime.context import DistributedContext

        ctx = DistributedContext(num_partitions=2)
        try:
            stub = self.round_trip({"ctx": ctx})["ctx"]
        finally:
            ctx.shutdown()
        with pytest.raises(wire.DriverOnlyError, match="driver-only"):
            stub.num_partitions
        with pytest.raises(wire.DriverOnlyError):
            stub()

    def test_dataset_reachable_from_closure_becomes_stub(self):
        from repro.runtime.context import DistributedContext

        ctx = DistributedContext(num_partitions=2)
        try:
            ds = ctx.parallelize(range(4))

            def leaky(x):
                return (x, ds)

            fn = self.round_trip(leaky)
        finally:
            ctx.shutdown()
        _, stub = fn(1)
        with pytest.raises(wire.DriverOnlyError):
            stub.collect()

    def test_deeply_nested_closures_ship(self):
        def wrap(fn):
            def wrapped(x):
                return fn(x) + 1

            return wrapped

        chain = lambda x: x  # noqa: E731 - deliberately non-importable
        for _ in range(300):
            chain = wrap(chain)
        fn = self.round_trip(chain)
        assert fn(0) == 300


# ---------------------------------------------------------------------------
# Columnar kernels over the wire
# ---------------------------------------------------------------------------


class TestColumnarWireSerialization:
    """Vectorized plan functions must survive the trip to a cluster worker.

    The kernel classes live in the ``repro.*`` codebase so they ship by
    reference; what needs regression coverage is a :class:`ScalarScope`
    carrying the live program environment -- a driver dict that mutates
    between forces.  It ships by value (a worker cannot import driver
    state), so the clone must keep resolving names against the snapshot.
    """

    def round_trip(self, obj):
        return wire.cluster_loads(wire.cluster_dumps(obj))

    def test_kernel_classes_ship_by_reference(self):
        from repro.runtime import columnar

        assert self.round_trip(columnar.VectorizedFilter) is columnar.VectorizedFilter
        assert self.round_trip(columnar.ColumnarPartition) is columnar.ColumnarPartition

    def test_capture_bearing_scalar_scope_survives(self):
        from repro.runtime import columnar

        scope = columnar.ScalarScope(values={"threshold": 2})
        predicate = columnar.BinOp(">", columnar.Col((0,)), columnar.Ref("threshold"))
        fn = columnar.VectorizedFilter(predicate, scope, oracle=None)

        clone = self.round_trip(fn)
        assert type(clone) is columnar.VectorizedFilter
        assert clone.scope.resolve("threshold") == 2

        part = columnar.ColumnarPartition.from_records([(i, float(i)) for i in range(6)])
        filtered = clone.apply_batch(part).to_records()
        assert filtered == [(3, 3.0), (4, 4.0), (5, 5.0)]
        # The record path of the clone agrees with the batch path.
        assert [p for p in part.to_records() if clone(p)] == filtered

    def test_shipped_environment_is_a_snapshot_not_a_live_link(self):
        from repro.runtime import columnar

        values = {"threshold": 2}
        scope = columnar.ScalarScope(values=values)
        clone = self.round_trip(scope)
        values["threshold"] = 99  # driver-side mutation after shipping
        assert clone.resolve("threshold") == 2


# ---------------------------------------------------------------------------
# The worker's keyspace
# ---------------------------------------------------------------------------


class TestWorkerStore:
    @staticmethod
    def filled():
        store = WorkerStore()
        for data_id in (1, 2, 3):
            store.put((data_id, 0), [data_id])
            store.put((data_id, 1), [data_id, data_id])
        store.put((4, 0, 1), ["payload"])
        store.put((5,), "task")
        return store

    def test_free_drops_only_the_listed_ids(self):
        store = self.filled()
        store.free([2, 4])
        assert sorted(store._entries) == [(1, 0), (1, 1), (3, 0), (3, 1), (5,)]
        assert store.records((1, 1)) == [1, 1]
        assert store.records((2, 0)) is None
        assert store.resident_counts() == (4, 0, 1)

    def test_freeing_an_unknown_id_is_a_no_op(self):
        store = self.filled()
        store.free([99, 2])
        store.free([2])
        assert store.resident_counts() == (4, 1, 1)

    def test_put_after_free(self):
        store = self.filled()
        store.free([1, 5])
        store.put((1, 3), ["again"])
        store.put((5,), "reloaded")
        assert store.get((1, 3)) == ["again"]
        assert store.resident_counts() == (5, 1, 1)
        store.free([1])
        assert store.records((1, 3)) is None
        assert store.resident_counts() == (4, 1, 1)

    def test_overwriting_a_key_counts_it_once(self):
        store = self.filled()
        store.put((3, 0), ["replaced"])
        assert store.resident_counts() == (6, 1, 1)
        store.free([3])
        assert store.resident_counts() == (4, 1, 1)
        store.free([1, 2, 4, 5])
        assert store.resident_counts() == (0, 0, 0)
        assert not store._entries and not store._keys
