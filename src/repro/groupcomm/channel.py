"""Group channel: the JChannel-like handle used by distributed components."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import GroupCommunicationError
from repro.groupcomm.message import GroupMessage, ViewChange
from repro.groupcomm.transport import GroupTransport


class GroupChannel:
    """One member's handle on a group.

    Usage mirrors JGroups: create the channel over a transport, register a
    message handler, ``connect(group)``, then ``multicast(payload)``.  The
    handler runs synchronously in total order with respect to every other
    member's handler.
    """

    def __init__(self, transport: GroupTransport, member_name: str):
        self.transport = transport
        self.member_name = member_name
        self.group: Optional[str] = None
        self._handler: Optional[Callable[[GroupMessage], None]] = None
        self._view_handler: Optional[Callable[[ViewChange], None]] = None

    # -- configuration --------------------------------------------------------------

    def set_message_handler(self, handler: Callable[[GroupMessage], None]) -> None:
        self._handler = handler

    def set_view_handler(self, handler: Callable[[ViewChange], None]) -> None:
        self._view_handler = handler

    # -- membership ------------------------------------------------------------------

    def connect(self, group: str) -> List[str]:
        if self.group is not None:
            raise GroupCommunicationError(
                f"channel {self.member_name!r} already connected to {self.group!r}"
            )
        view = self.transport.join(group, self.member_name, self._deliver, self._view_changed)
        self.group = group
        return view

    def disconnect(self) -> None:
        if self.group is not None:
            self.transport.leave(self.group, self.member_name)
            self.group = None

    @property
    def connected(self) -> bool:
        return self.group is not None

    def members(self) -> List[str]:
        if self.group is None:
            return []
        return self.transport.members(self.group)

    # -- messaging --------------------------------------------------------------------

    def multicast(self, payload: Any) -> GroupMessage:
        if self.group is None:
            raise GroupCommunicationError("channel is not connected to a group")
        return self.transport.multicast(self.group, self.member_name, payload)

    def send_to(self, receiver: str, payload: Any) -> Any:
        if self.group is None:
            raise GroupCommunicationError("channel is not connected to a group")
        return self.transport.send_to(self.group, self.member_name, receiver, payload)

    # -- delivery ----------------------------------------------------------------------

    def _deliver(self, message: GroupMessage) -> None:
        if self._handler is not None:
            self._handler(message)

    def _view_changed(self, view: ViewChange) -> None:
        if self._view_handler is not None:
            self._view_handler(view)
