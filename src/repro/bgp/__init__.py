"""BGP substrate.

A from-scratch implementation of the parts of BGP-4 the supercharged
controller relies on: message types, path attributes, Adj-RIB-In /
Loc-RIB / Adj-RIB-Out, the full best-path decision process, a session
finite-state machine and a speaker that ties everything together with
import/export policies.  The controller of :mod:`repro.core` embeds a
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
from repro.bgp.rib import AdjRibIn, LocRib, Route, RibChange, RouteSource
from repro.bgp.decision import DecisionProcess, best_path, rank_routes
from repro.bgp.session import BgpSession, BgpSessionState
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.bgp.policy import ExportPolicy, ImportPolicy, RouteMap, RouteMapEntry

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
    "AdjRibIn",
    "LocRib",
    "Route",
    "RibChange",
    "RouteSource",
    "DecisionProcess",
    "best_path",
    "rank_routes",
    "BgpSession",
    "BgpSessionState",
    "BgpSpeaker",
    "PeerConfig",
    "ExportPolicy",
    "ImportPolicy",
    "RouteMap",
    "RouteMapEntry",
]
