"""The TCP link: the group protocol's frames over real sockets.

:class:`SocketGroupTransport` is a :class:`~repro.groupcomm.node.GroupNode`
— the one implementation of views, sequencing and suspicion — whose link is
:class:`_TcpLink`: the PR 6 framed wire protocol
(:mod:`repro.net.protocol`) to its peers, typically one node per controller
process.  **One protocol rule:** this module only moves frames — dialling,
connection caching, the acceptor, heartbeat frames and the clock that drives
the failure detector; nothing here decides ordering or membership, so the
in-process :class:`~repro.groupcomm.transport.GroupTransport` (same nodes,
memory link) runs the identical protocol.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import GroupCommunicationError
from repro.groupcomm.node import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_THRESHOLD,
    GroupNode,
    _RpcTransportError,
)
from repro.net.protocol import (
    ConnectionClosed,
    FrameSocket,
    MessageType,
    ProtocolError,
    decode_error,
    encode_error,
)

#: default cap on one group RPC round trip
DEFAULT_RPC_TIMEOUT = 10.0

#: socket poll granularity for inbound service loops and RPC waits
_POLL_INTERVAL = 0.1


class _PeerConnection:
    """One cached outbound request/response connection to a peer node."""

    __slots__ = ("frames", "lock")

    def __init__(self, frames: FrameSocket):
        self.frames = frames
        self.lock = threading.Lock()


class _TcpLink:
    """Framed request/response sockets between group nodes."""

    kind = "tcp"

    def __init__(
        self, host: str, port: int, rpc_timeout: float, heartbeat_interval: float
    ):
        self.address = f"{host}:{port}"
        self._rpc_timeout = rpc_timeout
        self._heartbeat_interval = heartbeat_interval
        self._lock = threading.Lock()
        self._connections: Dict[str, _PeerConnection] = {}
        self._inbound: List[FrameSocket] = []
        self._listener: Optional[socket.socket] = None
        self._node: Optional[GroupNode] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------------

    def open(self, node: GroupNode) -> None:
        """Bind, listen, start the acceptor and heartbeat monitor for ``node``."""
        host, _, port = self.address.rpartition(":")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen(64)
        listener.settimeout(_POLL_INTERVAL)
        self.address = "%s:%d" % listener.getsockname()[:2]
        self._listener = listener
        self._node = node
        threading.Thread(
            target=self._accept_loop,
            name=f"group-acceptor-{self.address}",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._monitor_loop,
            name=f"group-monitor-{self.address}",
            daemon=True,
        ).start()

    def close(self) -> None:
        """Close every socket without a goodbye."""
        with self._lock:
            self._closed = True
            listener, self._listener = self._listener, None
            inbound, self._inbound = list(self._inbound), []
            connections, self._connections = dict(self._connections), {}
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
        for frames in inbound:
            frames.close()
        for connection in connections.values():
            connection.frames.close()

    def _monitor_loop(self) -> None:
        while not self._closed:
            time.sleep(self._heartbeat_interval)
            if self._closed:
                return
            try:
                self._node._heartbeat_round()
            except Exception:  # noqa: BLE001 - the monitor must survive anything
                pass

    # -- outbound -----------------------------------------------------------------------

    def probe(self, address: str) -> bool:
        """True when a fresh TCP dial to ``address`` succeeds."""
        try:
            self._dial(address, min(self._heartbeat_interval, 1.0)).close()
        except _RpcTransportError:
            return False
        return True

    def beacon(self, address: str) -> bool:
        """Send one heartbeat frame to ``address``; True when it went out."""
        try:
            connection = self._connection(address)
        except _RpcTransportError:
            return False
        if not connection.lock.acquire(blocking=False):
            return False  # an RPC is in flight on this connection: liveness enough
        try:
            connection.frames.send_heartbeat({"address": self.address})
            return True
        except (OSError, ConnectionClosed, ProtocolError):
            self.drop(address)
            return False
        finally:
            connection.lock.release()

    def _dial(self, address: str, timeout: Optional[float] = None) -> FrameSocket:
        host, _, port = address.rpartition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=timeout or self._rpc_timeout
            )
        except (OSError, ValueError) as exc:
            raise _RpcTransportError(
                f"cannot reach group node at {address}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_POLL_INTERVAL)
        return FrameSocket(sock)

    def _connection(self, address: str) -> _PeerConnection:
        with self._lock:
            if self._closed:
                raise _RpcTransportError(f"group node {self.address} is dead")
            connection = self._connections.get(address)
        if connection is not None:
            return connection
        frames = self._dial(address)
        connection = _PeerConnection(frames)
        with self._lock:
            existing = self._connections.get(address)
            if existing is not None:
                frames.close()
                return existing
            if self._closed:
                frames.close()
                raise _RpcTransportError(f"group node {self.address} is dead")
            self._connections[address] = connection
        return connection

    def drop(self, address: str) -> None:
        """Forget the cached connection to ``address``."""
        with self._lock:
            connection = self._connections.pop(address, None)
        if connection is not None:
            connection.frames.close()

    def call(self, address: str, message_type: MessageType, body: dict) -> dict:
        """One request/response RPC to the node at ``address``.

        Normally reuses the cached connection.  When that connection is busy
        with another in-flight RPC — which happens when a delivery handler
        issues a *nested* RPC back toward a node we are mid-call with — a
        one-shot connection is used instead: waiting on the shared lock in
        that situation forms a distributed lock cycle (A's handler waits on
        B's handler which waits on A's connection lock) that would stall
        until the timeouts cascade.
        """
        connection = self._connection(address)
        if connection.lock.acquire(blocking=False):
            try:
                return self._call_on(
                    connection.frames, address, message_type, body, cached=True
                )
            finally:
                connection.lock.release()
        frames = self._dial(address)
        try:
            return self._call_on(frames, address, message_type, body, cached=False)
        finally:
            frames.close()

    def _call_on(
        self,
        frames: FrameSocket,
        address: str,
        message_type: MessageType,
        body: dict,
        cached: bool,
    ) -> dict:
        deadline = time.monotonic() + self._rpc_timeout

        def idle() -> None:
            if self._closed:
                raise ConnectionClosed(f"group node {self.address} was killed")
            if time.monotonic() > deadline:
                raise ConnectionClosed(
                    f"group rpc to {address} timed out after {self._rpc_timeout}s"
                )

        try:
            frames.send(message_type, body)
            reply_type, reply = frames.recv(idle_callback=idle)
        except (ConnectionClosed, OSError, ProtocolError) as exc:
            if cached:
                self.drop(address)
            raise _RpcTransportError(
                f"group rpc to {address} failed: {exc}"
            ) from exc
        # a completed round trip is proof of life, independent of how far
        # behind the peer is on processing our heartbeat frames
        self._node._heard_from(address)
        if reply_type is MessageType.ERROR:
            raise decode_error(reply)
        return reply

    # -- inbound service ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_POLL_INTERVAL)
            frames = FrameSocket(sock)
            frames.on_heartbeat = self._node._note_heartbeat
            with self._lock:
                if self._closed:
                    frames.close()
                    return
                self._inbound.append(frames)
            threading.Thread(
                target=self._serve_connection,
                args=(frames,),
                name=f"group-serve-{self.address}",
                daemon=True,
            ).start()

    def _serve_connection(self, frames: FrameSocket) -> None:
        def idle() -> None:
            if self._closed:
                raise ConnectionClosed("node shutting down")

        try:
            while not self._closed:
                try:
                    message_type, body = frames.recv(idle_callback=idle)
                except (ConnectionClosed, OSError, ProtocolError):
                    return
                try:
                    reply = self._node._handle(message_type, body)
                    frames.send(MessageType.OK, reply)
                except GroupCommunicationError as exc:
                    try:
                        frames.send(MessageType.ERROR, encode_error(exc))
                    except (OSError, ConnectionClosed, ProtocolError):
                        return
                except (OSError, ConnectionClosed, ProtocolError):
                    return
        finally:
            frames.close()
            with self._lock:
                if frames in self._inbound:
                    self._inbound.remove(frames)


class SocketGroupTransport(GroupNode):
    """One node of a TCP group network: the group protocol over a :class:`_TcpLink`."""

    def __init__(
        self,
        bind_host: str = "127.0.0.1",
        bind_port: int = 0,
        peers: Sequence[str] = (),
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_threshold: int = DEFAULT_HEARTBEAT_THRESHOLD,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        name: Optional[str] = None,
    ):
        super().__init__(
            _TcpLink(bind_host, bind_port, rpc_timeout, heartbeat_interval),
            peers=list(peers),
            heartbeat_interval=heartbeat_interval,
            heartbeat_threshold=heartbeat_threshold,
            name=name or "socket-node",
        )
        self.rpc_timeout = rpc_timeout


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_THRESHOLD",
    "DEFAULT_RPC_TIMEOUT",
    "SocketGroupTransport",
]
