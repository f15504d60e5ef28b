"""The group protocol: total order and membership, written once.

A :class:`GroupNode` is one node of a group network — typically one per
controller.  It holds everything the paper's §4.1 controller replication
stands on (views, the derived sequencer, sequence-and-deliver, suspicion) as
one handler table keyed by :class:`~repro.net.protocol.MessageType`, and
reaches every node — itself included — through one function,
:meth:`GroupNode._call`.  *How* a frame gets to another node is the job of a
**link**; the protocol never knows which one it runs over:

* the TCP link (:mod:`repro.groupcomm.socket_transport`) frames messages over
  sockets, with an acceptor, a heartbeat monitor and connection caching;
* the memory link (:mod:`repro.groupcomm.transport`) looks the peer up in a
  dict and runs its handler in the caller's thread — no listener, no threads,
  no heartbeats.

**One protocol rule:** anything about ordering, membership or failure
handling belongs here, exactly once; a link only moves frames.  A link
provides an ``address``, ``open(node)``, ``close()``, ``call(address,
message_type, body) -> dict`` (raising :class:`_RpcTransportError` when the
peer is unreachable), ``probe(address) -> bool``, ``beacon(address) -> bool``,
``drop(address)`` and a ``kind`` label for :meth:`GroupNode.describe`.

Design (JGroups SEQUENCER):

* **Sequencer-based total order.**  The sequencer is *derived*, not
  elected: it is the member with the lowest ``(host, port)`` address in the
  current view.  A sender submits a multicast to the sequencer
  (``GROUP_MCAST``); the sequencer assigns the next sequence number under a
  per-group lock and synchronously fans ``GROUP_DELIVER`` frames out to
  every member address (including itself and the origin), so a multicast
  returns only after every live member processed it — the blocking group
  RPC semantics the distributed request manager acknowledges writes on.
* **Membership.**  A joiner asks any known peer (``GROUP_JOIN``);
  non-sequencers answer with a redirect, the sequencer pushes the new view
  (``GROUP_VIEW``) to every member — itself and the joiner included —
  before replying.  When no peer is reachable the joiner becomes a
  singleton group (and, as lowest address, its sequencer).
* **Failure detection.**  Heartbeat frames flow both ways: members beacon
  the sequencer and the sequencer beacons the members.  A node that has not
  heard from a peer for ``heartbeat_interval * heartbeat_threshold``
  seconds suspects it: the suspicion goes to the lowest surviving address
  (``GROUP_SUSPECT``, possibly the suspecting node itself), which probes the
  accused once more, evicts it and re-broadcasts the surviving view.  The
  sequence counter travels inside every view so a re-elected sequencer
  continues numbering where its predecessor stopped.
* **Partitions** are injected receiver-side: a ``(sender, receiver)`` pair
  registered via :meth:`GroupNode.partition` silently drops multicast
  deliveries to that member and fails point-to-point sends.

Retry semantics: if the sequencer dies mid-multicast the sender runs
failure handling and retries against the re-elected sequencer.  A multicast
the dead sequencer had already fanned out but not acknowledged is delivered
*again* with a fresh sequence number — at-least-once across sequencer
crashes — which the distributed layer tolerates (idempotent replay, origin
results keyed by message id).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import GroupCommunicationError
from repro.groupcomm.message import (
    GroupMessage,
    ViewChange,
    _next_message_id,
    payload_from_wire,
    payload_to_wire,
)
from repro.net.protocol import MessageType

#: default seconds between heartbeat beacons
DEFAULT_HEARTBEAT_INTERVAL = 0.5
#: missed intervals before a silent peer is suspected dead
DEFAULT_HEARTBEAT_THRESHOLD = 3


def _address_key(address: str) -> Tuple[str, int]:
    """Sort key for ``host:port`` addresses (sequencer = lowest)."""
    host, _, port = address.rpartition(":")
    return (host, int(port))


def _body(group: str, sender: str, payload: Any, **extra: Any) -> dict:
    """The frame body announcing ``payload`` from ``sender`` (see :func:`_message`)."""
    return {
        "group": group,
        "sender": sender,
        "payload": payload_to_wire(payload),
        "message_id": _next_message_id(),
        **extra,
    }


def _message(document: dict, payload: Any) -> GroupMessage:
    """The :class:`GroupMessage` a frame body describes, carrying ``payload``."""
    sequence = document.get("sequence")
    return GroupMessage(
        group=str(document.get("group")),
        sender=str(document.get("sender")),
        payload=payload,
        message_id=int(document.get("message_id") or 0),
        sequence=int(sequence) if sequence else None,
    )


class _RpcTransportError(GroupCommunicationError):
    """Internal: the RPC *transport* failed (dial, timeout, dead socket).

    Distinguished from handler-raised :class:`GroupCommunicationError`
    (duplicate member, unknown receiver, ...) so failure handling only
    triggers on genuinely unreachable peers.
    """


class _GroupState:
    """This node's view of one group."""

    __slots__ = ("name", "view_id", "sequence", "members")

    def __init__(self, name: str):
        self.name = name
        self.view_id = 0
        #: last sequence number assigned (sequencer) or seen (member)
        self.sequence = 0
        #: member name -> node address hosting it
        self.members: Dict[str, str] = {}

    def addresses(self) -> List[str]:
        """Node addresses in the view, lowest (the sequencer) first."""
        return sorted(set(self.members.values()), key=_address_key)

    def successor(
        self, members: Dict[str, str], joined: Sequence[str] = (), left: Sequence[str] = ()
    ) -> dict:
        """The view document that follows this view; build it under the order lock.

        Nothing changes here: the sequencer installs the document like every
        other member, when :meth:`GroupNode._broadcast_view` brings it round.
        """
        return {
            "group": self.name,
            "view_id": self.view_id + 1,
            "seq": self.sequence,
            "members": members,
            "joined": list(joined),
            "left": list(left),
        }


class GroupNode:
    """One node of a group network, speaking the group protocol over a link."""

    def __init__(
        self,
        link,
        peers: Iterable[str] = (),
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_threshold: int = DEFAULT_HEARTBEAT_THRESHOLD,
        name: Optional[str] = None,
    ):
        if heartbeat_interval <= 0:
            raise GroupCommunicationError(
                f"heartbeat_interval must be positive, got {heartbeat_interval!r}"
            )
        if heartbeat_threshold < 1:
            raise GroupCommunicationError(
                f"heartbeat_threshold must be >= 1, got {heartbeat_threshold!r}"
            )
        self._link = link
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_threshold = heartbeat_threshold
        #: addresses to ask about a group this node has no view of yet; read
        #: again at every join, so a link may hand in a live registry
        self._peers = peers
        self._lock = threading.RLock()
        #: group -> member name -> (on_message, on_view_change) for members
        #: hosted by THIS node
        self._local: Dict[str, Dict[str, tuple]] = {}
        self._groups: Dict[str, _GroupState] = {}
        #: per-group sequencing/membership lock (reentrant: fan-out may
        #: remove a dead member mid-multicast)
        self._order_locks: Dict[str, threading.RLock] = {}
        #: (sender, receiver) member pairs whose messages are dropped
        self._partitions: Set[tuple] = set()
        #: peer node address -> monotonic time we last heard a heartbeat
        self._last_heard: Dict[str, float] = {}
        self._started = False
        self._dead = False
        self.name = name or "group-node"
        #: what a frame of each type does at this node, whoever sent it and
        #: over whichever link it arrived (see :meth:`_handle`)
        self._handlers: Dict[MessageType, Callable[[dict], Optional[dict]]] = {
            MessageType.GROUP_JOIN: self._handle_join,
            MessageType.GROUP_LEAVE: self._handle_leave,
            MessageType.GROUP_MCAST: self._handle_mcast,
            MessageType.GROUP_DELIVER: self._handle_deliver,
            MessageType.GROUP_SEND: self._handle_send,
            MessageType.GROUP_VIEW: self._install_view,
            MessageType.GROUP_SUSPECT: self._handle_suspect,
        }
        # statistics (written under ``_lock``: sender, server and monitor
        # threads all count)
        self.messages_sent = 0
        self.messages_delivered = 0
        self.views_installed = 0
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.delivered_by_sender: Dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> str:
        """Open the link (bind, listen, monitor — whatever it needs); idempotent."""
        with self._lock:
            if self._started:
                return self.address
            if self._dead:
                raise GroupCommunicationError(
                    f"group node {self.address} has been killed"
                )
            self._link.open(self)
            self._started = True
        return self.address

    def stop(self) -> None:
        """Graceful shutdown: leave every group, then close the link."""
        for group, members in list(self._local.items()):
            for member in list(members):
                try:
                    self.leave(group, member)
                except GroupCommunicationError:
                    pass
        self.kill()

    def kill(self) -> None:
        """Abrupt crash: close the link without a goodbye.

        This is the chaos-suite way to kill a controller's group node; the
        survivors detect the silence through missed heartbeats.
        """
        with self._lock:
            if self._dead:
                return
            self._dead = True
            self._started = False  # a killed node cannot be restarted
        self._link.close()

    @property
    def address(self) -> str:
        """This node's ``host:port`` on its link (final once the link is open)."""
        return self._link.address

    @property
    def is_running(self) -> bool:
        return self._started and not self._dead

    # -- group contract: membership -----------------------------------------------------

    def join(
        self,
        group: str,
        member: str,
        on_message: Callable[[GroupMessage], None],
        on_view_change: Optional[Callable[[ViewChange], None]] = None,
    ) -> List[str]:
        """Add a locally hosted ``member`` to ``group``; returns the view."""
        self.start()
        with self._lock:
            local = self._local.setdefault(group, {})
            if member in local:
                raise GroupCommunicationError(
                    f"member {member!r} already joined group {group!r}"
                )
            # register before the network join: the sequencer pushes the new
            # view (and may start delivering) the moment we are accepted
            local[member] = (on_message, on_view_change)
        try:
            self._network_join(group, member)
        except BaseException:
            with self._lock:
                self._local.get(group, {}).pop(member, None)
            raise
        return self.members(group)

    def leave(self, group: str, member: str) -> None:
        with self._lock:
            local = self._local.get(group, {})
            if member not in local:
                return
            del local[member]
            state = self._groups.get(group)
            sequencer = None
            if state is not None and member in state.members:
                sequencer = state.addresses()[0]
        if sequencer is not None:
            try:
                self._call(
                    sequencer, MessageType.GROUP_LEAVE, {"group": group, "member": member}
                )
            except GroupCommunicationError:
                pass  # sequencer unreachable: its detector will notice us
        with self._lock:
            state = self._groups.get(group)
            if state is not None:
                state.members.pop(member, None)

    def members(self, group: str) -> List[str]:
        with self._lock:
            state = self._groups.get(group)
            return sorted(state.members) if state is not None else []

    # -- group contract: failure injection ----------------------------------------------

    def partition(self, sender: str, receiver: str) -> None:
        """Drop messages from member ``sender`` to member ``receiver``."""
        with self._lock:
            self._partitions.add((sender, receiver))

    def heal_partition(self, sender: str, receiver: str) -> None:
        with self._lock:
            self._partitions.discard((sender, receiver))

    # -- group contract: messaging ------------------------------------------------------

    def multicast(self, group: str, sender: str, payload: Any) -> GroupMessage:
        """Totally ordered reliable multicast; returns after all-member delivery."""
        with self._lock:
            if sender not in self._local.get(group, {}):
                raise GroupCommunicationError(
                    f"sender {sender!r} is not a member of group {group!r}"
                )
        body = _body(group, sender, payload)
        redirect: Optional[str] = None
        last_error: Optional[Exception] = None
        for _attempt in range(self.heartbeat_threshold + 3):
            if redirect is not None:
                sequencer, redirect = redirect, None
            else:
                sequencer = self._sequencer(group)
                if sequencer is None:
                    raise GroupCommunicationError(
                        f"no membership view for group {group!r}"
                    )
            try:
                reply = self._call(sequencer, MessageType.GROUP_MCAST, body)
            except _RpcTransportError as exc:
                last_error = exc
                # the sequencer looks dead: run failure handling, then
                # retry against the re-elected one (possibly ourselves)
                self._report_suspect(group, sequencer)
                if self._sequencer(group) == sequencer:
                    # still in the view, so it answered a probe: slow, not
                    # dead — give it a moment before the next attempt
                    time.sleep(min(self.heartbeat_interval, 0.05))
                continue
            if not reply.get("accepted"):
                target = reply.get("redirect")
                if target:
                    redirect = str(target)
                    continue
                raise GroupCommunicationError(
                    f"multicast to group {group!r} rejected:"
                    f" {reply.get('reason') or 'unknown'}"
                )
            errors = reply.get("errors") or []
            if errors:
                names = [name for name, _ in errors]
                raise GroupCommunicationError(
                    f"delivery failed at members {names}: {errors[0][1]}"
                )
            self._count("messages_sent")
            return _message(dict(body, sequence=reply["sequence"]), payload)
        raise GroupCommunicationError(
            f"multicast to group {group!r} failed after sequencer loss: {last_error}"
        )

    def send_to(self, group: str, sender: str, receiver: str, payload: Any) -> Any:
        """Point-to-point message within a group (used for state transfer)."""
        with self._lock:
            if (sender, receiver) in self._partitions:
                raise GroupCommunicationError(
                    f"network partition between {sender!r} and {receiver!r}"
                )
            state = self._groups.get(group)
            address = state.members.get(receiver) if state is not None else None
        if address is None:
            raise GroupCommunicationError(
                f"member {receiver!r} is not in group {group!r}"
            )
        body = _body(group, sender, payload, receiver=receiver)
        self._call(address, MessageType.GROUP_SEND, body)
        self._count("messages_sent")
        return _message(body, payload)

    # -- monitoring ---------------------------------------------------------------------

    def describe(self) -> dict:
        """Node status for the console's ``group`` command."""
        now = time.monotonic()
        with self._lock:
            groups = {}
            for group, state in self._groups.items():
                sequencer = self._sequencer(group)
                groups[group] = {
                    "members": dict(state.members),
                    "view_id": state.view_id,
                    "sequence": state.sequence,
                    "sequencer": sequencer,
                    "is_sequencer": sequencer == self.address,
                }
            return {
                "transport": self._link.kind,
                "address": self.address,
                "running": self.is_running,
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_threshold": self.heartbeat_threshold,
                "heartbeats_sent": self.heartbeats_sent,
                "heartbeats_received": self.heartbeats_received,
                "last_heard_ago": {
                    address: round(now - at, 3)
                    for address, at in self._last_heard.items()
                    if address != self.address
                },
                "messages_sent": self.messages_sent,
                "messages_delivered": self.messages_delivered,
                "views_installed": self.views_installed,
                "delivered_by_sender": dict(self.delivered_by_sender),
                "groups": groups,
            }

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- reaching nodes -----------------------------------------------------------------

    def _call(self, address: str, message_type: MessageType, body: dict) -> dict:
        """One request/response exchange with the node at ``address``.

        The only place that tells this node from a peer: a frame addressed
        to ourselves goes straight to the handler table the link serves
        inbound frames from, so every caller above treats all nodes alike.
        """
        if address == self.address:
            return self._handle(message_type, body)
        return self._link.call(address, message_type, body)

    def _handle(self, message_type: MessageType, body: dict) -> dict:
        """Serve one inbound frame; the link calls this for every request."""
        handler = self._handlers.get(message_type)
        if handler is None:
            raise GroupCommunicationError(
                f"unexpected frame {message_type.name} on a group node"
            )
        return handler(body) or {}

    def _order_lock_for(self, group: str) -> threading.RLock:
        with self._lock:
            lock = self._order_locks.get(group)
            if lock is None:
                lock = self._order_locks[group] = threading.RLock()
            return lock

    def _sequencer(self, group: str) -> Optional[str]:
        """Address of the group's sequencer in this node's view (None = no view)."""
        with self._lock:
            state = self._groups.get(group)
            if state is None or not state.members:
                return None
            return state.addresses()[0]

    # -- join protocol ------------------------------------------------------------------

    def _network_join(self, group: str, member: str) -> None:
        body = {"group": group, "member": member, "address": self.address}
        candidates: List[str] = []
        with self._lock:
            state = self._groups.get(group)
            if state is not None:
                candidates.extend(state.addresses())
            for peer in list(self._peers):
                if peer not in candidates:
                    candidates.append(peer)
        tried: Set[str] = set()
        queue = [address for address in candidates if address != self.address]
        while queue:
            address = queue.pop(0)
            if address in tried or address == self.address:
                continue
            tried.add(address)
            try:
                reply = self._call(address, MessageType.GROUP_JOIN, body)
            except _RpcTransportError:
                continue
            if reply.get("accepted"):
                self._install_view(reply["view"])
                return
            redirect = reply.get("redirect")
            if redirect and redirect not in tried:
                queue.insert(0, str(redirect))
        # nobody out there knows the group: become (or stay) its sequencer
        self._local_join(group, member)

    def _local_join(self, group: str, member: str) -> None:
        with self._order_lock_for(group):
            with self._lock:
                state = self._groups.setdefault(group, _GroupState(group))
                if member in state.members:
                    raise GroupCommunicationError(
                        f"member {member!r} already joined group {group!r}"
                    )
                document = state.successor(
                    {**state.members, member: self.address}, joined=[member]
                )
            self._broadcast_view(document)

    def _handle_join(self, body: dict) -> dict:
        group = str(body.get("group"))
        member = str(body.get("member"))
        joiner_address = str(body.get("address"))
        with self._order_lock_for(group):
            with self._lock:
                state = self._groups.get(group)
                if state is None or not state.members or not self._local.get(group):
                    return {"accepted": False, "reason": "not-a-member"}
                sequencer = state.addresses()[0]
                if sequencer != self.address:
                    return {"accepted": False, "redirect": sequencer}
                if member in state.members:
                    raise GroupCommunicationError(
                        f"member {member!r} already joined group {group!r}"
                    )
                self._last_heard[joiner_address] = time.monotonic()
                document = state.successor(
                    {**state.members, member: joiner_address}, joined=[member]
                )
            # push the view to every member (including the joiner) before
            # acknowledging, so no delivery can precede the view anywhere
            self._broadcast_view(document)
            return {"accepted": True, "view": document}

    def _handle_leave(self, body: dict) -> None:
        group = str(body.get("group"))
        member = str(body.get("member"))
        with self._order_lock_for(group):
            with self._lock:
                state = self._groups.get(group)
                if state is None or member not in state.members:
                    return
                members = dict(state.members)
                del members[member]
                document = state.successor(members, left=[member])
            self._broadcast_view(document)

    # -- views --------------------------------------------------------------------------

    def _broadcast_view(self, document: dict) -> None:
        addresses = sorted(
            {str(a) for a in dict(document["members"]).values()}, key=_address_key
        )
        for address in addresses:
            try:
                self._call(address, MessageType.GROUP_VIEW, document)
            except GroupCommunicationError:
                pass  # unreachable member: failure detection will handle it

    def _install_view(self, document: dict) -> None:
        group = str(document.get("group"))
        with self._lock:
            state = self._groups.setdefault(group, _GroupState(group))
            if int(document.get("view_id") or 0) <= state.view_id:
                return  # stale or duplicate view
            state.members = {
                str(name): str(address)
                for name, address in dict(document.get("members") or {}).items()
            }
            state.view_id = int(document["view_id"])
            state.sequence = max(state.sequence, int(document.get("seq") or 0))
            now = time.monotonic()
            for address in set(state.members.values()):
                self._last_heard.setdefault(address, now)
            self.views_installed += 1
            listeners = [
                callbacks[1]
                for _name, callbacks in sorted(self._local.get(group, {}).items())
                if callbacks[1] is not None
            ]
        view = ViewChange(
            group=group,
            members=sorted(dict(document.get("members") or {})),
            joined=[str(name) for name in document.get("joined") or []],
            left=[str(name) for name in document.get("left") or []],
            view_id=int(document.get("view_id") or 0),
        )
        for listener in listeners:
            try:
                listener(view)
            except Exception:  # noqa: BLE001 - view listeners must not break membership
                pass

    # -- sequencing and delivery --------------------------------------------------------

    def _handle_mcast(self, body: dict) -> dict:
        group = str(body.get("group"))
        sequencer = self._sequencer(group)
        if sequencer is None:
            raise GroupCommunicationError(
                f"node {self.address} has no view for group {group!r}"
            )
        if sequencer != self.address:
            return {"accepted": False, "redirect": sequencer}
        with self._order_lock_for(group):
            with self._lock:
                state = self._groups.get(group)
                if state is None or str(body.get("sender")) not in state.members:
                    raise GroupCommunicationError(
                        f"sender {body.get('sender')!r} is not a member of"
                        f" group {group!r}"
                    )
                state.sequence += 1
                document = dict(body)
                document["sequence"] = state.sequence
                addresses = state.addresses()
            errors: List[list] = []
            dead: List[str] = []
            for address in addresses:
                try:
                    reply = self._call(address, MessageType.GROUP_DELIVER, document)
                except _RpcTransportError:
                    # one more chance on a fresh connection before declaring
                    # the member dead — a member that fails two RPCs in a
                    # row has really crashed
                    try:
                        reply = self._call(
                            address, MessageType.GROUP_DELIVER, document
                        )
                    except _RpcTransportError:
                        dead.append(address)
                        continue
                errors.extend(reply.get("errors") or [])
            for address in dead:
                self._remove_address_as_sequencer(group, address)
            return {
                "accepted": True,
                "sequence": document["sequence"],
                "errors": errors,
            }

    def _handle_deliver(self, document: dict) -> dict:
        """Deliver one sequenced message to every local member; replies the errors."""
        group = str(document.get("group"))
        sender = str(document.get("sender"))
        sequence = document.get("sequence")
        with self._lock:
            state = self._groups.get(group)
            if state is not None and sequence and int(sequence) > state.sequence:
                # track the highest sequence seen so this node continues the
                # numbering correctly if it ever becomes the sequencer
                state.sequence = int(sequence)
            locals_ = sorted(self._local.get(group, {}).items())
            partitions = set(self._partitions)
        message = _message(document, payload_from_wire(document.get("payload")))
        errors: List[list] = []
        for name, callbacks in locals_:
            if (sender, name) in partitions:
                continue  # injected partition: drop silently
            try:
                callbacks[0](message)
                self._count_delivered(sender)
            except Exception as exc:  # noqa: BLE001 - report member failures
                errors.append([name, str(exc)])
        return {"errors": errors}

    def _handle_send(self, body: dict) -> None:
        group = str(body.get("group"))
        sender = str(body.get("sender"))
        receiver = str(body.get("receiver"))
        with self._lock:
            if (sender, receiver) in self._partitions:
                raise GroupCommunicationError(
                    f"network partition between {sender!r} and {receiver!r}"
                )
            entry = self._local.get(group, {}).get(receiver)
        if entry is None:
            raise GroupCommunicationError(
                f"member {receiver!r} is not in group {group!r}"
            )
        entry[0](_message(body, payload_from_wire(body.get("payload"))))
        self._count_delivered(sender)

    def _count_delivered(self, sender: str) -> None:
        with self._lock:
            self.messages_delivered += 1
            self.delivered_by_sender[sender] = self.delivered_by_sender.get(sender, 0) + 1

    # -- failure detection --------------------------------------------------------------

    def _heartbeat_round(self) -> None:
        """Beacon and check silence once; a link with a clock calls this."""
        now = time.monotonic()
        limit = self.heartbeat_interval * self.heartbeat_threshold
        with self._lock:
            groups = {
                group: state.addresses()
                for group, state in self._groups.items()
                if self._local.get(group) and state.members
            }
            last_heard = dict(self._last_heard)
        suspects: List[Tuple[str, str]] = []
        for group, addresses in groups.items():
            # sequencing this group, we beacon every member and expire the
            # silent; as a member, we beacon and watch the sequencer
            watched = addresses[1:] if addresses[0] == self.address else addresses[:1]
            for address in watched:
                if self._link.beacon(address):
                    self._count("heartbeats_sent")
                if now - last_heard.get(address, now) > limit:
                    suspects.append((group, address))
        for group, address in suspects:
            self._report_suspect(group, address)

    def _heard_from(self, address: str) -> None:
        """Record proof of life from the node at ``address``."""
        with self._lock:
            self._last_heard[address] = time.monotonic()

    def _note_heartbeat(self, body: dict) -> None:
        address = body.get("address")
        if address:
            self._heard_from(str(address))
            self._count("heartbeats_received")

    def _report_suspect(self, group: str, dead_address: str) -> None:
        """Handle a suspected-dead peer: take the suspicion to the sequencer-to-be."""
        # verify before acting: a peer that is slow to process heartbeats
        # still accepts connections, a crashed one refuses instantly
        if self._link.probe(dead_address):
            self._heard_from(dead_address)
            return
        while True:
            with self._lock:
                state = self._groups.get(group)
                if state is None or dead_address not in state.members.values():
                    return
                survivors = [
                    address for address in state.addresses() if address != dead_address
                ]
            if not survivors:
                return
            try:
                # the lowest survivor evicts — and that may well be this node
                self._call(
                    survivors[0],
                    MessageType.GROUP_SUSPECT,
                    {"group": group, "address": dead_address},
                )
                return
            except _RpcTransportError:
                # the would-be sequencer is unreachable too: drop it from our
                # local view and escalate to the next survivor
                with self._lock:
                    state = self._groups.get(group)
                    if state is None:
                        return
                    state.members = {
                        name: address
                        for name, address in state.members.items()
                        if address != survivors[0]
                    }
                continue

    def _handle_suspect(self, body: dict) -> dict:
        group = str(body.get("group"))
        dead_address = str(body.get("address"))
        with self._lock:
            state = self._groups.get(group)
            if state is None or dead_address not in state.members.values():
                return {"removed": False}
            sequencer = state.addresses()[0]
            if sequencer != self.address and sequencer != dead_address:
                return {"removed": False, "redirect": sequencer}
        # verify the accusation ourselves before evicting: one failed
        # heartbeat on the accuser's path must not evict a live member
        if self._link.probe(dead_address):
            self._heard_from(dead_address)
            return {"removed": False, "reason": "alive"}
        self._remove_address_as_sequencer(group, dead_address)
        return {"removed": True}

    def _remove_address_as_sequencer(self, group: str, dead_address: str) -> None:
        """As (possibly just-become) sequencer: evict an address, push the view."""
        with self._order_lock_for(group):
            with self._lock:
                state = self._groups.get(group)
                if state is None:
                    return
                left = sorted(
                    name
                    for name, address in state.members.items()
                    if address == dead_address
                )
                if not left:
                    return
                members = {
                    name: address
                    for name, address in state.members.items()
                    if address != dead_address
                }
                document = state.successor(members, left=left)
            self._link.drop(dead_address)
            self._broadcast_view(document)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.is_running else ("dead" if self._dead else "new")
        return f"{type(self).__name__}({self.address}, {state})"


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_THRESHOLD",
    "GroupNode",
]
