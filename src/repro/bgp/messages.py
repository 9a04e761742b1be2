"""BGP-4 message types (RFC 4271, simulated subset).

Messages are immutable value objects exchanged over the abstracted BGP
transport (:class:`repro.net.packets.BgpTransport`), each a ``NamedTuple``:
building one is a tuple build, not a frozen dataclass's ``__init__``.
Tuples of two kinds with equal fields compare equal (and
``KeepaliveMessage()`` is falsy): receivers tell kinds apart with
``isinstance``.  An UPDATE carries at
most one NLRI prefix, mirroring the per-prefix processing of the paper's
Listing 1 and keeping bookkeeping simple; feeds with hundreds of thousands
of prefixes are simply streams of single-prefix updates (which is also how
ExaBGP hands routes to user code).

What *is* batched is the transport.  Under a real speaker a burst of
UPDATEs written to one socket leaves as a few TCP segments, not one
packet per message; :class:`UpdateTrain` models that: the UPDATEs a
:class:`~repro.bgp.session.BgpSession` queues in one simulated instant
(after the first, which leaves at once) travel as one transport segment
and are applied, in order, by the receiver.  A train is coalescing, not
a message kind: every member is still a single-NLRI
:class:`UpdateMessage` and means exactly what it would mean alone — but
the receiver works on the train: the session hands its members on a
sub-train at a time, the speaker makes one Loc-RIB pass over them and
tells each listener once, with the list of changes (a lone UPDATE is a
train of one).

Why not RFC 4271 NLRI packing (many prefixes per UPDATE sharing one
attribute set)?  Because the traffic has nothing to pack:
``synthetic_full_table`` draws a fresh random AS path per route, so on
every benchmark workload the number of distinct attribute sets is about
the number of routes.  What a burst does share is its (session, instant).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple, Union

from repro.bgp.attributes import PathAttributes
from repro.net.addresses import IPv4Address, IPv4Prefix


class OpenMessage(NamedTuple):
    """OPEN: announces the speaker's AS number and router id."""

    asn: int = 0
    router_id: IPv4Address = IPv4Address(0)


class KeepaliveMessage(NamedTuple):
    """KEEPALIVE: refreshes the hold timer."""


class NotificationMessage(NamedTuple):
    """NOTIFICATION: signals an error and closes the session."""

    error_code: int = 0
    reason: str = ""


class UpdateMessage(NamedTuple):
    """UPDATE: announce or withdraw a single prefix.

    ``attributes is None`` means the message is a withdraw of ``prefix``.
    """

    prefix: IPv4Prefix = IPv4Prefix("0.0.0.0/0")
    attributes: Optional[PathAttributes] = None

    @property
    def is_withdraw(self) -> bool:
        """True when the update withdraws the prefix."""
        return self.attributes is None

    @classmethod
    def announce(cls, prefix: IPv4Prefix, attributes: PathAttributes) -> "UpdateMessage":
        """Build an announcement."""
        return cls(prefix, attributes)

    @classmethod
    def withdraw(cls, prefix: IPv4Prefix) -> "UpdateMessage":
        """Build a withdraw."""
        return cls(prefix)


class UpdateTrain(NamedTuple):
    """UPDATEs one session sent in the same simulated instant, carried as
    one transport segment (TCP coalescing) and applied in send order."""

    updates: Tuple[UpdateMessage, ...] = ()


#: Any BGP message (an annotation: receivers dispatch with ``isinstance``).
BgpMessage = Union[OpenMessage, KeepaliveMessage, NotificationMessage, UpdateMessage, UpdateTrain]
