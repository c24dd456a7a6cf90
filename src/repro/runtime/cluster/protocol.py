"""The cluster wire protocol: length-prefixed framed-pickle messages.

Every message on every cluster socket -- driver-to-worker scheduling,
worker-to-worker payload fetches -- is one *frame*:

.. code-block:: text

    +--------+---------+---------+------------------+----------------+
    | magic  | version | padding | body length (u64)| pickled body   |
    | 4 bytes| 1 byte  | 3 bytes | big-endian       | length bytes   |
    +--------+---------+---------+------------------+----------------+

The body is ``(message_type, payload_dict)`` serialized by
:func:`~repro.runtime.cluster.wire.cluster_dumps` -- the same
length-then-bytes framing idiom as :mod:`repro.runtime.spill`'s run files,
promoted to a socket and given a magic/version prefix so an endpoint can
reject a peer speaking the wrong protocol *before* unpickling anything.

Errors are split so callers can tell a clean peer exit from a broken one:

* :class:`ConnectionClosed` -- the peer closed the socket *between* frames
  (normal during shutdown);
* :class:`ProtocolError` -- bad magic, a version mismatch, an oversized
  frame, or a socket that died *inside* a frame (truncation).
"""

from __future__ import annotations

import socket
import struct
from typing import Any

from repro.errors import DiabloError
from repro.runtime.cluster import wire

#: First bytes of every frame; reject non-cluster peers immediately.
MAGIC = b"DBLO"
#: Bumped on any incompatible change to framing or message payloads.
PROTOCOL_VERSION = 2
#: magic, version byte, 3 pad bytes, u64 body length.
_WIRE_HEADER = struct.Struct(">4sB3xQ")
#: Hard per-frame cap: a length beyond this is a corrupt or hostile header.
MAX_FRAME_BYTES = 1 << 31

# -- message types ------------------------------------------------------------
# Every driver -> worker request may carry ``"free"``: resident ids whose driver
# objects are gone, dropped before the request is served (there is no
# stand-alone free message).
REGISTER = "register"  #: worker -> driver: here I am (pid, serve address, versions)
REGISTERED = "registered"  #: driver -> worker: accepted, here is your index
RUN_TASKS = "run_tasks"  #: driver -> worker: run a fused narrow chain, keep the outputs
SHUFFLE_WRITE = "shuffle_write"  #: driver -> worker: run a map-side chain, keep payloads
TASK_RESULT = "task_result"  #: worker -> driver: per-partition record counts + counters
FETCH_PAYLOAD = "fetch_payload"  #: reader -> worker: send the records under these store keys
PAYLOAD = "payload"  #: worker -> reader: one record list per requested key
HEARTBEAT = "heartbeat"  #: driver -> worker: liveness probe
HEARTBEAT_ACK = "heartbeat_ack"  #: worker -> driver: still here, holding this much
SHUTDOWN = "shutdown"  #: driver -> worker: exit cleanly
SHUTDOWN_ACK = "shutdown_ack"  #: worker -> driver: exiting
ERROR = "error"  #: worker -> driver: the request failed (message + cause)


class ProtocolError(DiabloError):
    """The peer sent bytes that are not a valid protocol frame."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly between frames."""


def encode_message(message_type: str, payload: dict[str, Any]) -> bytes:
    """One complete frame (header + body) for ``(message_type, payload)``.

    Raises :class:`~repro.runtime.cluster.wire.UnshippableError` when the
    payload cannot cross the wire -- callers use that to fall back *before*
    anything is sent.
    """
    body = wire.cluster_dumps((message_type, payload))
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _WIRE_HEADER.pack(MAGIC, PROTOCOL_VERSION, len(body)) + body


def send_frame(sock: socket.socket, frame: bytes) -> None:
    """Write one pre-encoded frame to ``sock``."""
    sock.sendall(frame)


def send_message(sock: socket.socket, message_type: str, payload: dict[str, Any]) -> None:
    """Encode and write one message to ``sock``."""
    send_frame(sock, encode_message(message_type, payload))


def _recv_exact(sock: socket.socket, count: int, at_frame_start: bool) -> bytes:
    """Read exactly ``count`` bytes or raise the appropriate closure error."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_frame_start and remaining == count:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"truncated frame: connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message_sized(sock: socket.socket) -> tuple[str, dict[str, Any], int]:
    """Read one frame; returns ``(message_type, payload, frame_bytes)``.

    The byte count covers header plus body -- the payload-transfer metrics
    are measured here, on real serialized traffic.
    """
    header = _recv_exact(sock, _WIRE_HEADER.size, at_frame_start=True)
    magic, version, length = _WIRE_HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks v{version}, this side v{PROTOCOL_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    body = _recv_exact(sock, length, at_frame_start=False)
    try:
        message_type, payload = wire.cluster_loads(body)
    except Exception as error:
        raise ProtocolError(f"undecodable frame body: {error}") from error
    return message_type, payload, _WIRE_HEADER.size + length


def recv_message(sock: socket.socket) -> tuple[str, dict[str, Any]]:
    """Read one frame; returns ``(message_type, payload)``."""
    message_type, payload, _ = recv_message_sized(sock)
    return message_type, payload


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` into a socket address tuple."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"cluster address must look like host:port, got {address!r}")
    return host, int(port)


def format_address(address: tuple[str, int]) -> str:
    """The ``"host:port"`` form of a socket address tuple."""
    return f"{address[0]}:{address[1]}"
