"""The memory link: the group protocol between nodes of one process.

A :class:`GroupTransport` is a network of :class:`~repro.groupcomm.node.
GroupNode` s — one per member — joined by :class:`_MemoryLink`: a dict
``address -> node`` whose ``call`` runs the peer's handler in the caller's
thread.  **One protocol rule:** there is no ordering, view numbering or
delivery logic here; joins, multicasts and failures run the same sequencer
protocol the TCP nodes of :mod:`repro.groupcomm.socket_transport` run
(redirects, view installation, re-election, the payload wire codec), only
synchronously and without a thread, a socket or a sleep — which makes this
the place to inject delivery order, drops and crashes deterministically.

Failure injection: :meth:`GroupTransport.fail_member` crashes a member's node
and walks the survivors through the protocol's suspicion path on the spot;
:meth:`GroupTransport.partition` drops messages to specific members.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.groupcomm.message import GroupMessage, ViewChange
from repro.groupcomm.node import GroupNode, _RpcTransportError
from repro.net.protocol import MessageType


class _MemoryLink:
    """A node's attachment to the wire: a dict of every live node by address."""

    kind = "inproc"

    def __init__(self, wire: Dict[str, GroupNode], address: str):
        self._wire = wire
        self.address = address

    def open(self, node: GroupNode) -> None:
        self._wire[self.address] = node

    def close(self) -> None:
        self._wire.pop(self.address, None)

    def call(self, address: str, message_type: MessageType, body: dict) -> dict:
        peer = self._wire.get(address)
        # a crashed node neither answers nor gets anything out
        if peer is None or self.address not in self._wire:
            raise _RpcTransportError(f"cannot reach group node at {address}")
        return peer._handle(message_type, body)

    def probe(self, address: str) -> bool:
        return address in self._wire and self.address in self._wire

    def beacon(self, address: str) -> bool:
        return False  # no clock runs the failure detector here: see fail_member

    def drop(self, address: str) -> None:
        pass  # nothing is cached per peer


class GroupTransport:
    """An in-process group network: one protocol node per member."""

    def __init__(self, name: str = "transport"):
        self.name = name
        self._lock = threading.Lock()
        #: address -> live node: what the memory links dial through
        self._wire: Dict[str, GroupNode] = {}
        #: member name -> the node hosting it (a failed member gets a fresh one)
        self._nodes: Dict[str, GroupNode] = {}
        #: every node ever created, so the aggregate counters never go back
        self._all_nodes: List[GroupNode] = []
        self._ports = itertools.count(1)

    def node(self, member: str) -> GroupNode:
        """The protocol node hosting ``member`` (on the wire once it joins a group)."""
        with self._lock:
            node = self._nodes.get(member)
            if node is None:
                # addresses ascend in creation order, so the longest-standing
                # node is the derived sequencer, as on a TCP network
                link = _MemoryLink(self._wire, f"inproc:{next(self._ports)}")
                node = self._nodes[member] = GroupNode(link, peers=self._wire, name=member)
                self._all_nodes.append(node)
            return node

    # -- membership ----------------------------------------------------------------

    def join(
        self,
        group: str,
        member: str,
        on_message: Callable[[GroupMessage], None],
        on_view_change: Optional[Callable[[ViewChange], None]] = None,
    ) -> List[str]:
        """Add ``member`` to ``group``; returns the new membership view."""
        return self.node(member).join(group, member, on_message, on_view_change)

    def leave(self, group: str, member: str) -> None:
        self.node(member).leave(group, member)

    def members(self, group: str) -> List[str]:
        """The group's membership, as its sequencer sees it."""
        for node in list(self._wire.values()):
            if node._local.get(group):
                return node.members(group)
        return []

    # -- failure injection --------------------------------------------------------------

    def fail_member(self, member: str) -> None:
        """Simulate the crash of ``member``: kill its node, let survivors notice.

        What the heartbeat monitor does over TCP after a few silent
        intervals happens here at once: every survivor runs the protocol's
        suspicion path (probe, escalate to the lowest survivor, evict, push
        the new view) before this returns.
        """
        with self._lock:
            node = self._nodes.pop(member, None)
        if node is None:
            return
        node.kill()
        for group in list(node._local):
            for survivor in list(self._wire.values()):
                survivor._report_suspect(group, node.address)

    def partition(self, sender: str, receiver: str) -> None:
        """Drop messages from ``sender`` to ``receiver`` (one direction)."""
        self.node(receiver).partition(sender, receiver)

    def heal_partition(self, sender: str, receiver: str) -> None:
        self.node(receiver).heal_partition(sender, receiver)

    # -- messaging ---------------------------------------------------------------------

    def multicast(self, group: str, sender: str, payload: Any) -> GroupMessage:
        """Send a totally ordered message to every member of ``group``.

        Delivery is synchronous: the call returns after every live member's
        callback has run.  The sender receives its own message too (JGroups
        default), which the distributed request manager relies on to apply
        writes locally in the same total order as everywhere else.
        """
        return self.node(sender).multicast(group, sender, payload)

    def send_to(self, group: str, sender: str, receiver: str, payload: Any) -> Any:
        """Point-to-point message within a group (used for state transfer)."""
        return self.node(sender).send_to(group, sender, receiver, payload)

    # -- monitoring -------------------------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        return sum(node.messages_sent for node in self._all_nodes)

    @property
    def messages_delivered(self) -> int:
        return sum(node.messages_delivered for node in self._all_nodes)

    def describe(self) -> dict:
        """Network status for the console's ``group`` command."""
        groups = {}
        for node in list(self._wire.values()):
            for group, status in node.describe()["groups"].items():
                if status["is_sequencer"]:
                    groups[group] = dict(status, members=sorted(status["members"]))
        return {
            "transport": "inproc",
            "groups": groups,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
        }
