"""The controller wire protocol: framing, codec, error and result transport.

Every message on the wire is one *frame*::

    +----------------+------+-------------------------+
    | length (4B BE) | type | body (compact JSON)     |
    +----------------+------+-------------------------+

``length`` counts the type byte plus the body, so an empty-body frame has
length 1.  The body is a JSON object.  A body of plain JSON values is one C
encoder call and one C scan; only a body holding a type JSON cannot carry —
``bytes``, ``datetime``/``date``/``time``, ``Decimal`` — or a ``"$"`` token
takes a small tagging codec (:func:`encode_value` / :func:`decode_value`)
that round-trips those types exactly and wraps mappings so a user value can
never collide with a codec tag.  The rule is one test on each end: every
tagged body holds ``"$"`` (its tag key), and a plain body is sent only when
its text holds none, so the receiver walks a body exactly when its bytes
hold ``"$"`` (a string ending in ``"$`` walks for nothing, harmlessly).
This binary-framing/JSON-body hybrid keeps the protocol debuggable
(``tcpdump`` shows readable bodies) while staying compact and strictly
delimited.

Three message families:

* request frames (client → server) cover the full request API of the
  in-process driver: hello/auth, execute, prepare, execute-prepared,
  execute-batch, begin/commit/rollback, statement close, ping, goodbye;
* error frames round-trip the :mod:`repro.errors` hierarchy by class name,
  so a :class:`~repro.errors.NoMoreBackendError` raised inside the
  controller re-raises as the same type inside the remote client;
* result frames stream a :class:`~repro.core.request.RequestResult` as a
  header holding its columns, counts and first ``RESULT_CHUNK_ROWS`` rows,
  then one ``RESULT_ROWS`` frame per further chunk; each says whether
  another follows (``more``).  A point read or an update count is one
  reply frame, and a large result set never requires one giant frame.
"""

from __future__ import annotations

import base64
import datetime as _dt
import json
import socket
import struct
import threading
import time
from decimal import Decimal
from enum import IntEnum
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import repro.errors as _errors
from repro.core.request import RequestResult
from repro.errors import DatabaseError, ProtocolError

#: bump when the frame layout or message semantics change incompatibly
PROTOCOL_VERSION = 2

#: hard cap on one frame's payload; a peer announcing more is protocol abuse
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: rows per result chunk (the header's, then each RESULT_ROWS frame's)
RESULT_CHUNK_ROWS = 256

_LENGTH = struct.Struct("!I")

#: bytes asked of the socket per ``recv``
_RECV_BYTES = 64 * 1024


class MessageType(IntEnum):
    """Frame type byte.  Client-originated below 0x20, server-originated above."""

    HELLO = 0x01
    EXECUTE = 0x02
    PREPARE = 0x03
    EXECUTE_PREPARED = 0x04
    EXECUTE_BATCH = 0x05
    BEGIN = 0x06
    COMMIT = 0x07
    ROLLBACK = 0x08
    CLOSE_STATEMENT = 0x09
    PING = 0x0A
    GOODBYE = 0x0B
    #: one-way liveness beacon; absorbed inside FrameSocket.recv, never returned
    HEARTBEAT = 0x0C

    WELCOME = 0x20
    OK = 0x21
    ERROR = 0x22
    PREPARED = 0x23
    RESULT_HEADER = 0x24
    RESULT_ROWS = 0x25

    # group-communication frames (controller <-> controller, repro.groupcomm)
    GROUP_JOIN = 0x30
    GROUP_LEAVE = 0x31
    GROUP_MCAST = 0x32
    GROUP_DELIVER = 0x33
    GROUP_SEND = 0x34
    GROUP_VIEW = 0x35
    GROUP_SUSPECT = 0x36


#: type byte -> MessageType, so decoding a frame never calls the Enum
_FRAME_TYPES = {int(member): member for member in MessageType}
#: the frames holding a result's rows; each leaves in a ``sendall`` of its own
_CHUNKS = (MessageType.RESULT_HEADER, MessageType.RESULT_ROWS)


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (cleanly or not) mid-conversation."""


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------

#: key marking a tagged value; real mappings are wrapped under tag "m"
_TAG = "$"


def encode_value(value: Any) -> Any:
    """A JSON-representable encoding of one SQL value (or nested container)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {_TAG: "b", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, _dt.datetime):
        return {_TAG: "dt", "v": value.isoformat()}
    if isinstance(value, _dt.date):
        return {_TAG: "d", "v": value.isoformat()}
    if isinstance(value, _dt.time):
        return {_TAG: "t", "v": value.isoformat()}
    if isinstance(value, Decimal):
        return {_TAG: "n", "v": str(value)}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, Mapping):
        return {_TAG: "m", "v": {str(k): encode_value(v) for k, v in value.items()}}
    raise ProtocolError(
        f"cannot encode a {type(value).__name__} value on the wire: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag == "b":
            return base64.b64decode(value["v"])
        if tag == "dt":
            return _dt.datetime.fromisoformat(value["v"])
        if tag == "d":
            return _dt.date.fromisoformat(value["v"])
        if tag == "t":
            return _dt.time.fromisoformat(value["v"])
        if tag == "n":
            return Decimal(value["v"])
        if tag == "m":
            return {k: decode_value(v) for k, v in value["v"].items()}
        raise ProtocolError(f"unknown value tag {tag!r} in frame body")
    return value


#: the one C encoder call a plain body costs
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=True)
#: the C scanner behind ``json.loads``, called without its Python wrappers
_SCAN = json.JSONDecoder().scan_once


def encode_body(body: Mapping) -> bytes:
    """Serialize a frame body (a mapping of fields) to compact JSON bytes.

    A body of plain JSON values is one C encoder call; the tagged walk runs
    only when that fails (a typed value) or its text holds a ``"$"`` token.
    """
    try:
        text = _ENCODER.encode(body)
    except (TypeError, ValueError):
        text = None
    if text is None or '"$"' in text:
        encoded = {str(key): encode_value(value) for key, value in body.items()}
        text = _ENCODER.encode(encoded)
    return text.encode("utf-8")


def decode_body(data: bytes) -> Dict[str, Any]:
    """Invert :func:`encode_body`: one C scan, plus the walk if a tag may be present."""
    try:
        text = data.decode("utf-8")
        document, end = _SCAN(text, 0)
    except (StopIteration, ValueError) as exc:  # no value at all, or a bad one
        raise ProtocolError(f"frame body is not valid JSON: {exc!r}") from None
    if end != len(text):
        raise ProtocolError(f"frame body is not valid JSON: extra data at {end}")
    if not isinstance(document, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(document).__name__}"
        )
    if b'"$"' not in data:
        return document
    return {key: decode_value(value) for key, value in document.items()}


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(message_type: int, body: Optional[Mapping] = None) -> bytes:
    """One complete frame as bytes: length prefix, type byte, JSON body."""
    payload = bytes([int(message_type)]) + (encode_body(body) if body else b"{}")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame_payload(payload: bytes) -> Tuple[MessageType, Dict[str, Any]]:
    """Decode the payload (type byte + body) of one frame."""
    if not payload:
        raise ProtocolError("empty frame payload")
    message_type = _FRAME_TYPES.get(payload[0])
    if message_type is None:
        raise ProtocolError(f"unknown frame type byte 0x{payload[0]:02x}")
    return message_type, decode_body(payload[1:])


class FrameSocket:
    """A socket speaking frames, with byte accounting for monitoring.

    Both ends of the protocol use this wrapper: the server counts a
    session's traffic through it and the remote driver uses it as its
    transport.  A response leaves through :meth:`send_frames` as one
    ``sendall`` unless it holds several row chunks, which leave one to a
    ``sendall``, and ``recv`` decodes out of one receive buffer, so a
    response that arrived in one segment costs one ``recv`` on the socket
    however many frames it holds.  ``recv`` takes an optional
    ``idle_callback`` invoked on each socket timeout *between* frames (never
    mid-frame, never with received bytes pending); whatever it raises aborts
    the wait — the server uses this for idle-timeout and drain handling
    without tearing down half-received frames.

    ``HEARTBEAT`` frames are pure liveness: ``recv`` absorbs them (updating
    ``last_heartbeat_at`` and the optional ``on_heartbeat`` hook) and keeps
    waiting for a real frame, so a heartbeating peer counts as alive for
    idle-timeout purposes without ever surfacing in request/response flows.
    Sends are serialized by a lock so a heartbeater thread can share the
    socket with a request/response thread.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        #: ``sendall`` calls made: ``frames_out / sends`` is frames per segment
        self.sends = 0
        self.heartbeats_in = 0
        self.heartbeats_out = 0
        #: monotonic timestamp of the last HEARTBEAT absorbed (0.0 = never)
        self.last_heartbeat_at = 0.0
        #: optional callable(body) invoked for each absorbed HEARTBEAT
        self.on_heartbeat: Optional[Callable[[Dict[str, Any]], None]] = None
        self._send_lock = threading.Lock()
        #: bytes received and not yet decoded
        self._received = bytearray()

    def send(self, message_type: int, body: Optional[Mapping] = None) -> None:
        self.send_frames(((message_type, body),))

    def send_frames(self, frames: Iterable[Tuple[int, Optional[Mapping]]]) -> None:
        """Send ``frames`` in order, one row chunk to a ``sendall``.

        A result's header holds its first chunk and each ``RESULT_ROWS`` frame
        one more; every other frame rides with a chunk, so a response of at
        most one chunk is one segment whatever else it carries.  ``frames`` is
        consumed lazily: a result of many chunks is encoded and sent a chunk
        at a time, never held whole.
        """
        pending: List[bytes] = []
        chunks = 0
        for message_type, body in frames:
            chunks += message_type in _CHUNKS
            if chunks == 2:
                self._write(pending)
                pending, chunks = [], 1
            pending.append(encode_frame(message_type, body))
        self._write(pending)

    def _write(self, encoded: List[bytes]) -> None:
        data = b"".join(encoded)
        # counted first: a peer holding the reply finds it in the counters
        self.bytes_out += len(data)
        self.frames_out += len(encoded)
        self.sends += 1
        with self._send_lock:
            self.sock.sendall(data)

    def send_heartbeat(self, body: Optional[Mapping] = None) -> None:
        """Send a one-way liveness beacon (no reply is expected)."""
        self.send(MessageType.HEARTBEAT, body)
        self.heartbeats_out += 1

    def _next_payload(self, idle_callback: Optional[Callable[[], None]]) -> bytes:
        """The payload of the next frame, reading the socket only when the buffer runs dry."""
        received = self._received
        while True:
            if len(received) >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(received)
                if length == 0 or length > MAX_FRAME_BYTES:
                    raise ProtocolError(f"invalid frame length {length}")
                end = _LENGTH.size + length
                if len(received) >= end:
                    payload = bytes(received[_LENGTH.size : end])
                    del received[:end]
                    return payload
            try:
                data = self.sock.recv(_RECV_BYTES)
            except socket.timeout:
                # Only an *idle* connection (nothing of a frame received
                # yet) may be interrupted; a half-received frame keeps
                # waiting for its remainder.
                if idle_callback is not None and not received:
                    idle_callback()
                continue
            if not data:
                raise ConnectionClosed("peer closed the connection")
            received += data

    def recv(
        self, idle_callback: Optional[Callable[[], None]] = None
    ) -> Tuple[MessageType, Dict[str, Any]]:
        while True:
            payload = self._next_payload(idle_callback)
            self.bytes_in += _LENGTH.size + len(payload)
            self.frames_in += 1
            message_type, body = decode_frame_payload(payload)
            if message_type is MessageType.HEARTBEAT:
                self.heartbeats_in += 1
                self.last_heartbeat_at = time.monotonic()
                callback = self.on_heartbeat
                if callback is not None:
                    try:
                        callback(body)
                    except Exception:  # liveness must never kill the reader
                        pass
                continue
            return message_type, body

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close failures are ignorable
            pass


# ---------------------------------------------------------------------------
# error frames
# ---------------------------------------------------------------------------


def _error_registry() -> Dict[str, type]:
    registry = {
        name: obj
        for name, obj in vars(_errors).items()
        if isinstance(obj, type) and issubclass(obj, _errors.ReproError)
    }
    # injector errors live outside repro.errors but cross the wire too
    from repro.core.faults import BackendCrashedError, InjectedFaultError

    registry[InjectedFaultError.__name__] = InjectedFaultError
    registry[BackendCrashedError.__name__] = BackendCrashedError
    return registry


_ERROR_TYPES = _error_registry()


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Error-frame body for ``exc``; unknown types degrade to DatabaseError."""
    name = type(exc).__name__
    if name not in _ERROR_TYPES:
        name = DatabaseError.__name__
    return {"error_type": name, "message": str(exc)}


def decode_error(body: Mapping) -> Exception:
    """Rebuild the typed exception an error frame carries."""
    error_class = _ERROR_TYPES.get(str(body.get("error_type")), DatabaseError)
    return error_class(str(body.get("message", "")))


# ---------------------------------------------------------------------------
# result frames
# ---------------------------------------------------------------------------


def result_frames(
    result: RequestResult, chunk_rows: int = RESULT_CHUNK_ROWS
) -> Iterator[Tuple[MessageType, Dict[str, Any]]]:
    """Stream one result as (type, body) frames: a header with the first rows, then chunks.

    Each frame's ``more`` says whether a ``RESULT_ROWS`` frame follows, so a
    result of at most ``chunk_rows`` rows is the header alone.
    """
    rows, step = result.rows, max(chunk_rows, 1)
    yield (
        MessageType.RESULT_HEADER,
        {
            "columns": list(result.columns),
            "update_count": result.update_count,
            "backend_name": result.backend_name,
            "backends_executed": result.backends_executed,
            "from_cache": result.from_cache,
            "transaction_id": result.transaction_id,
            "rows": rows[:step],
            "more": len(rows) > step,
        },
    )
    for start in range(step, len(rows), step):
        end = start + step
        yield (MessageType.RESULT_ROWS, {"rows": rows[start:end], "more": len(rows) > end})


def result_from_frames(
    header: Mapping, row_chunks: Iterator[List[List[Any]]]
) -> RequestResult:
    """Assemble a :class:`RequestResult` from a header body and the later row chunks.

    JSON carries a row as an array; each becomes a tuple again here, in
    C-level passes, so a remote result has the rows of a local one.
    """
    rows: List[Tuple[Any, ...]] = list(map(tuple, header.get("rows") or ()))
    for chunk in row_chunks:
        rows.extend(map(tuple, chunk))
    return RequestResult(
        columns=list(header.get("columns") or []),
        rows=rows,
        update_count=int(header.get("update_count", -1)),
        backend_name=header.get("backend_name"),
        backends_executed=int(header.get("backends_executed", 0)),
        from_cache=bool(header.get("from_cache", False)),
        transaction_id=header.get("transaction_id"),
    )


__all__ = [
    "ConnectionClosed",
    "FrameSocket",
    "MAX_FRAME_BYTES",
    "MessageType",
    "PROTOCOL_VERSION",
    "RESULT_CHUNK_ROWS",
    "decode_body",
    "decode_error",
    "decode_frame_payload",
    "decode_value",
    "encode_body",
    "encode_error",
    "encode_frame",
    "encode_value",
    "result_frames",
    "result_from_frames",
]
