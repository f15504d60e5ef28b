"""Messages exchanged over the group communication layer."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import GroupCommunicationError

_sequence = itertools.count(1)
_sequence_lock = threading.Lock()


def _next_message_id() -> int:
    with _sequence_lock:
        return next(_sequence)


@dataclass
class GroupMessage:
    """A totally ordered multicast message.

    ``sequence`` is assigned by the transport's sequencer: every member
    delivers messages in increasing sequence order, which is the total order
    the distributed request managers rely on.
    """

    group: str
    sender: str
    payload: Any
    message_id: int = field(default_factory=_next_message_id)
    sequence: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self.payload).__name__
        return f"GroupMessage(seq={self.sequence}, from={self.sender}, {kind})"


@dataclass
class ViewChange:
    """Membership change notification delivered to surviving members."""

    group: str
    members: List[str]
    joined: List[str] = field(default_factory=list)
    left: List[str] = field(default_factory=list)
    view_id: int = 0


# ---------------------------------------------------------------------------
# payload wire codec
# ---------------------------------------------------------------------------
#
# Frame bodies must survive JSON, and the protocol encodes payloads the same
# way over either link (the memory link skips the JSON, not the codec, so
# every receiver gets its own rebuilt object).  Registered payload dataclasses
# round-trip as ``{"@payload": <class name>, "fields": {...}}`` documents
# whose fields are copied one level deep; a class needing to restore non-JSON
# field types (tuples, nested tuples) or holding a mutable field (which the
# memory link would otherwise share between receivers) defines a
# ``from_wire(fields)`` classmethod that rebuilds them.  Plain JSON-safe
# values pass through untouched, so tests can multicast bare strings over
# either link.

_WIRE_TAG = "@payload"

#: class name -> registered payload dataclass
_PAYLOAD_TYPES: Dict[str, type] = {}


def register_payload(cls: type) -> type:
    """Class decorator registering a payload dataclass for wire transport."""
    _PAYLOAD_TYPES[cls.__name__] = cls
    return cls


def payload_to_wire(payload: Any) -> Any:
    """Wire-safe document for ``payload`` (passthrough for plain values)."""
    cls = type(payload)
    if _PAYLOAD_TYPES.get(cls.__name__) is cls:
        return {_WIRE_TAG: cls.__name__, "fields": vars(payload).copy()}
    return payload


def payload_from_wire(document: Any) -> Any:
    """Invert :func:`payload_to_wire`."""
    if isinstance(document, dict) and _WIRE_TAG in document:
        cls = _PAYLOAD_TYPES.get(str(document[_WIRE_TAG]))
        if cls is None:
            raise GroupCommunicationError(
                f"unknown group payload type {document[_WIRE_TAG]!r}"
            )
        fields = dict(document.get("fields") or {})
        from_wire = getattr(cls, "from_wire", None)
        if from_wire is not None:
            return from_wire(fields)
        return cls(**fields)
    return document
