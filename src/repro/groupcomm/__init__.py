"""Group communication substrate (JGroups stand-in, paper §4.1).

C-JDBC relies on JGroups' "reliable and ordered message delivery to
synchronize write requests and demarcate transactions" between replicated
controllers.  This package provides those guarantees with **one protocol
and two links**:

* :class:`GroupChannel` — join/leave a named group, send totally ordered
  multicasts, receive view-change notifications;
* :class:`~repro.groupcomm.node.GroupNode` — the protocol, written once:
  views, the derived sequencer, sequence-and-deliver, suspicion and
  re-election, as one handler table reached through one ``call``;
* :class:`SocketGroupTransport` — a node over the TCP link (framed sockets,
  acceptor, heartbeat monitor): one per controller process;
* :class:`GroupTransport` — a network of nodes over the memory link (a dict
  lookup in the caller's thread): the same protocol without threads, sockets
  or sleeps, plus failure injection for tests.

The rule: ordering, membership and failure handling live in ``node.py`` and
nowhere else; ``socket_transport.py`` and ``transport.py`` only move frames.
"""

from repro.groupcomm.channel import GroupChannel
from repro.groupcomm.message import GroupMessage, ViewChange
from repro.groupcomm.socket_transport import SocketGroupTransport
from repro.groupcomm.transport import GroupTransport

__all__ = [
    "GroupChannel",
    "GroupMessage",
    "GroupTransport",
    "SocketGroupTransport",
    "ViewChange",
]
