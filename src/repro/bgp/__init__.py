"""BGP substrate.

A from-scratch implementation of the parts of BGP-4 the supercharged
controller relies on: message types, path attributes, the Loc-RIB (the
one store of learned routes) and per-peer Adj-RIB-Out, the full best-path
decision process, a session finite-state machine and a speaker that ties
everything together; per-peer policy is two fields of ``PeerConfig``
(``local_pref``, ``advertise``).  The controller of :mod:`repro.core` embeds a
speaker exactly like ExaBGP was embedded in the paper's prototype.
"""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import (
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    UpdateTrain,
)
from repro.bgp.rib import LocRib, Route, RibChange, RouteSource
from repro.bgp.decision import best_path, rank_routes
from repro.bgp.session import BgpSession, BgpSessionState
from repro.bgp.speaker import BgpSpeaker, PeerConfig

__all__ = [
    "AsPath",
    "Origin",
    "PathAttributes",
    "BgpMessage",
    "KeepaliveMessage",
    "NotificationMessage",
    "OpenMessage",
    "UpdateMessage",
    "UpdateTrain",
    "LocRib",
    "Route",
    "RibChange",
    "RouteSource",
    "best_path",
    "rank_routes",
    "BgpSession",
    "BgpSessionState",
    "BgpSpeaker",
    "PeerConfig",
]
