"""BGP session finite-state machine.

A reduced version of the RFC 4271 FSM with the states that matter for the
experiments: Idle → Connect → OpenSent → OpenConfirm → Established, plus
hold-timer expiry and administrative/notification shutdown.  The transport
is abstracted: the owner supplies a ``send`` callable and feeds incoming
messages to :meth:`BgpSession.receive`.

Sending coalesces like a TCP socket under a burst: the first UPDATE of a
simulated instant leaves at once; further UPDATEs queued in that same
instant are corked and leave together as one
:class:`~repro.bgp.messages.UpdateTrain` when the instant's pending
events have run.  Links charge a size-independent latency, so every
UPDATE still arrives when it did and in the order it was sent.

Receiving hands the update callbacks *member tuples*: a train arrives as
consecutive sub-trains of at most :data:`SUB_TRAIN` members, a lone
UPDATE as a tuple of one.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bgp.messages import (
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    UpdateTrain,
)
from repro.net.addresses import IPv4Address
from repro.sim.engine import Event, Simulator
from repro.sim.process import PeriodicProcess


#: Most members of a received train handed to the update callbacks at
#: once.  It bounds what processing a train keeps alive (a change and an
#: action or two per member; a 5,000-member table as one batch put the
#: campaign's peak RSS up 5.4%) and is where a session reset from inside
#: a callback stops the delivery.
SUB_TRAIN = 256

#: Bucket edges of the ``bgp.updates_per_train`` histogram.
TRAIN_SIZE_EDGES = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

#: Hold time in seconds.  Every speaker proposes the same one, so it is
#: also the negotiated value; keepalives go every third of it.
HOLD_TIME = 90.0
#: Simulated TCP establishment delay before the first OPEN is sent.
CONNECT_DELAY = 0.01
#: How long a stalled handshake waits before re-sending the OPEN.
CONNECT_RETRY = 5.0


class BgpSessionState(enum.Enum):
    """RFC 4271 session states (Active is folded into Connect)."""

    IDLE = "idle"
    CONNECT = "connect"
    OPEN_SENT = "open_sent"
    OPEN_CONFIRM = "open_confirm"
    ESTABLISHED = "established"


class BgpSession:
    """One BGP adjacency towards a single peer.

    Parameters
    ----------
    sim:
        Simulator used for hold/keepalive timers.
    local_asn, local_router_id:
        Identity advertised in our OPEN.
    peer_ip:
        The peer's address (used only for diagnostics and callbacks).
    send:
        Callable delivering a :class:`BgpMessage` to the peer.
    """

    def __init__(
        self,
        sim: Simulator,
        local_asn: int,
        local_router_id: IPv4Address,
        peer_ip: IPv4Address,
        send: Callable[[BgpMessage], None],
    ) -> None:
        self._sim = sim
        self.local_asn = local_asn
        self.local_router_id = local_router_id
        self.peer_ip = peer_ip
        self._send = send
        self._flush_name = f"bgp-flush:{peer_ip}"
        self._hold_name = f"bgp-hold:{peer_ip}"
        self._state = BgpSessionState.IDLE
        self._hold_timer: Optional[Event] = None
        self._keepalive_process: Optional[PeriodicProcess] = None
        self._established_callbacks: List[Callable[["BgpSession"], None]] = []
        self._down_callbacks: List[Callable[["BgpSession", str], None]] = []
        self._update_callbacks: List[
            Callable[["BgpSession", Tuple[UpdateMessage, ...]], None]
        ] = []
        self.peer_asn: Optional[int] = None
        self.peer_router_id: Optional[IPv4Address] = None
        self.updates_received = 0
        self.updates_sent = 0
        self.trains_received = 0
        self.trains_sent = 0
        #: Instant of the last UPDATE handed to the transport or corked.
        self._update_sent_at: Optional[float] = None
        #: UPDATEs of the current instant waiting for the flush event.
        self._corked: List[UpdateMessage] = []
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Enable the passive coalescing metrics: ``bgp.trains_sent`` and
        the per-train ``bgp.updates_per_train`` histogram."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def state(self) -> BgpSessionState:
        """Current FSM state."""
        return self._state

    @property
    def is_established(self) -> bool:
        """Whether UPDATEs may be exchanged."""
        return self._state is BgpSessionState.ESTABLISHED

    def on_established(self, callback: Callable[["BgpSession"], None]) -> None:
        """Register a callback fired when the session reaches Established."""
        self._established_callbacks.append(callback)

    def on_down(self, callback: Callable[["BgpSession", str], None]) -> None:
        """Register a callback fired when the session leaves Established."""
        self._down_callbacks.append(callback)

    def on_update(
        self, callback: Callable[["BgpSession", Tuple[UpdateMessage, ...]], None]
    ) -> None:
        """Register a callback ``(session, updates)`` fired with every
        received sub-train, in arrival order (a lone UPDATE is a tuple of
        one)."""
        self._update_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Administrative events
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Administrative start: begin connecting and send our OPEN."""
        if self._state is not BgpSessionState.IDLE:
            return
        self._state = BgpSessionState.CONNECT
        self._sim.schedule(CONNECT_DELAY, self._send_open, name="bgp-open")

    def stop(self, reason: str = "administrative stop") -> None:
        """Administrative stop: notify the peer and fall back to Idle."""
        if self._state is BgpSessionState.IDLE:
            return
        if self._state is BgpSessionState.ESTABLISHED:
            self._send_control(NotificationMessage(error_code=6, reason=reason))
        self._tear_down(reason)

    def connection_lost(self, reason: str = "connection lost") -> None:
        """Transport-level failure (link down, peer crash)."""
        if self._state is BgpSessionState.IDLE:
            return
        self._tear_down(reason)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_update(self, update: UpdateMessage) -> None:
        """Send an UPDATE to the peer (only valid once established)."""
        self.send_updates((update,))

    def send_updates(self, updates: Sequence[UpdateMessage]) -> None:
        """Send UPDATEs to the peer in order (only valid once established)."""
        if not self.is_established:
            raise RuntimeError(
                f"session to {self.peer_ip} is {self._state.value}, cannot send updates"
            )
        if not updates:
            return
        self.updates_sent += len(updates)
        now = self._sim.now
        if now != self._update_sent_at:
            self._update_sent_at = now
            self._send(updates[0])
            updates = updates[1:]
            if not updates:
                return
        # Not the first UPDATE of this instant: cork behind the first.
        if not self._corked:
            self._sim.call_soon(self._flush, name=self._flush_name)
        self._corked.extend(updates)

    def _flush(self) -> None:
        """Hand the corked UPDATEs to the transport as one segment.

        Runs as the flush event and ahead of every non-UPDATE send; a
        flush event that finds the cork already emptied does nothing."""
        corked = self._corked
        if not corked:
            return
        self._corked = []
        if len(corked) == 1:
            self._send(corked[0])
            return
        self.trains_sent += 1
        if self._telemetry is not None:
            self._telemetry.counter("bgp.trains_sent").inc()
            self._telemetry.histogram(
                "bgp.updates_per_train", TRAIN_SIZE_EDGES
            ).observe(len(corked))
        self._send(UpdateTrain(updates=tuple(corked)))

    def _send_control(self, message: BgpMessage) -> None:
        """Send a non-UPDATE message behind whatever is corked (TCP order)."""
        self._flush()
        self._send(message)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, message: BgpMessage) -> None:
        """Feed a message received from the peer into the FSM."""
        if isinstance(message, OpenMessage):
            self._handle_open(message)
        elif isinstance(message, KeepaliveMessage):
            self._handle_keepalive()
        elif isinstance(message, UpdateMessage):
            self._handle_updates((message,))
        elif isinstance(message, UpdateTrain):
            if self.is_established:
                self.trains_received += 1
            self._handle_updates(message.updates)
        elif isinstance(message, NotificationMessage):
            self._tear_down(f"notification from peer: {message.reason}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _send_open(self) -> None:
        if self._state is not BgpSessionState.CONNECT:
            return
        self._transmit_open()
        self._state = BgpSessionState.OPEN_SENT
        self._schedule_connect_retry()

    def _transmit_open(self) -> None:
        """Put our OPEN on the wire (first send, retry or re-send alike)."""
        self._send_control(OpenMessage(asn=self.local_asn, router_id=self.local_router_id))

    def _schedule_connect_retry(self) -> None:
        """Re-send our OPEN if the handshake stalls (e.g. the first OPEN was
        lost while the peer's ARP entry was still unresolved)."""

        def retry() -> None:
            if self._state in (BgpSessionState.CONNECT, BgpSessionState.OPEN_SENT):
                self._transmit_open()
                self._state = BgpSessionState.OPEN_SENT
                self._schedule_connect_retry()

        self._sim.schedule(CONNECT_RETRY, retry, name=f"bgp-retry:{self.peer_ip}")

    def _handle_open(self, message: OpenMessage) -> None:
        if self._state not in (
            BgpSessionState.CONNECT,
            BgpSessionState.OPEN_SENT,
        ):
            return
        self.peer_asn = message.asn
        self.peer_router_id = message.router_id
        # Re-send our OPEN unconditionally: if ours was lost (e.g. dropped
        # while the peer's L2 address was unresolved) the peer is still
        # waiting for it, and a duplicate OPEN is ignored otherwise.
        self._transmit_open()
        self._send_control(KeepaliveMessage())
        self._state = BgpSessionState.OPEN_CONFIRM
        self._restart_hold_timer()

    def _handle_keepalive(self) -> None:
        if self._state is BgpSessionState.OPEN_CONFIRM:
            self._state = BgpSessionState.ESTABLISHED
            self._start_keepalives()
            for callback in list(self._established_callbacks):
                callback(self)
        if self._state is BgpSessionState.ESTABLISHED:
            self._restart_hold_timer()

    def _handle_updates(self, updates: Tuple[UpdateMessage, ...]) -> None:
        """Deliver received UPDATEs to the callbacks, sub-train by sub-train."""
        if self._state is not BgpSessionState.ESTABLISHED:
            return
        self._restart_hold_timer()
        for start in range(0, len(updates), SUB_TRAIN):
            if self._state is not BgpSessionState.ESTABLISHED:
                break  # a callback reset the session: the rest is lost
            members = updates[start:start + SUB_TRAIN]
            self.updates_received += len(members)
            for callback in list(self._update_callbacks):
                callback(self, members)

    def _start_keepalives(self) -> None:
        self._keepalive_process = PeriodicProcess(
            self._sim,
            HOLD_TIME / 3.0,
            lambda: self._send_control(KeepaliveMessage()),
            name=f"bgp-keepalive:{self.peer_ip}",
        )
        self._keepalive_process.start(initial_delay=HOLD_TIME / 3.0)

    def _restart_hold_timer(self) -> None:
        if self._hold_timer is not None:
            self._hold_timer = self._sim.postpone(self._hold_timer, HOLD_TIME)
        else:
            self._hold_timer = self._sim.schedule(
                HOLD_TIME, self._hold_expired, name=self._hold_name
            )

    def _hold_expired(self) -> None:
        self._tear_down("hold timer expired")

    def _tear_down(self, reason: str) -> None:
        was_established = self._state is BgpSessionState.ESTABLISHED
        self._state = BgpSessionState.IDLE
        # A reset loses what was still in the socket buffer.
        self._corked = []
        if self._hold_timer is not None:
            self._hold_timer.cancel()
            self._hold_timer = None
        if self._keepalive_process is not None:
            self._keepalive_process.stop()
            self._keepalive_process = None
        if was_established:
            for callback in list(self._down_callbacks):
                callback(self, reason)

    def __repr__(self) -> str:
        return f"BgpSession(peer={self.peer_ip}, state={self._state.value})"
