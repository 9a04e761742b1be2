"""Ports and point-to-point links.

A :class:`Port` belongs to a device (router, switch, traffic board…) and is
connected to exactly one :class:`Link`.  Links are full-duplex with a
configurable one-way propagation/processing latency and can be brought
down to emulate a physical failure — the core event of the paper's
evaluation (R2 being disconnected from the switch).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Tuple

from repro.net.packets import EthernetFrame
from repro.sim.engine import Simulator


class PortError(RuntimeError):
    """Raised for invalid port wiring (double attach, send on unwired port…)."""


class LinkState(enum.Enum):
    """Administrative/operational state of a link."""

    UP = "up"
    DOWN = "down"


class Port:
    """A device port identified by ``(owner name, port number)``.

    The owner registers a frame handler (``on_frame(frame, port)``) and an
    optional link-state handler (``on_link_state(state, port)``) so it can
    react to loss of carrier — which is how BFD-less devices notice a
    failure, and how the switch generates port-status notifications.
    ``owner`` is the device itself (``None`` on a bare port): a
    forwarding-state walk crosses a link and asks the ingress port whose
    it is.
    """

    def __init__(self, owner_name: str, number: int, owner: Optional[object] = None) -> None:
        self.owner_name = owner_name
        self.number = number
        self.owner = owner
        self._link: Optional["Link"] = None
        self._frame_handler: Optional[Callable[[EthernetFrame, "Port"], None]] = None
        self._state_handler: Optional[Callable[[LinkState, "Port"], None]] = None
        #: Counters, useful in tests and benchmarks.
        self.frames_sent = 0
        self.frames_received = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def link(self) -> Optional["Link"]:
        """The link this port is attached to, if any."""
        return self._link

    @property
    def is_up(self) -> bool:
        """Whether the attached link exists and is up."""
        return self._link is not None and self._link.state is LinkState.UP

    def attach(self, link: "Link") -> None:
        """Attach the port to a link (called by :class:`Link`)."""
        if self._link is not None:
            raise PortError(f"port {self} is already attached to a link")
        self._link = link

    def set_frame_handler(
        self, handler: Callable[[EthernetFrame, "Port"], None]
    ) -> None:
        """Register the callback invoked for every delivered frame."""
        self._frame_handler = handler

    def set_state_handler(self, handler: Callable[[LinkState, "Port"], None]) -> None:
        """Register the callback invoked when the link changes state."""
        self._state_handler = handler

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, frame: EthernetFrame) -> bool:
        """Transmit a frame on the attached link.

        Returns ``True`` if the frame was accepted for transmission,
        ``False`` if the link is down (the frame is silently dropped, as
        real hardware would).
        """
        if self._link is None:
            raise PortError(f"port {self} is not attached to any link")
        accepted = self._link.transmit(frame, self)
        if accepted:
            self.frames_sent += 1
        return accepted

    def deliver(self, frame: EthernetFrame) -> None:
        """Hand a frame received from the link to the owner (called by the link)."""
        self.frames_received += 1
        if self._frame_handler is not None:
            self._frame_handler(frame, self)

    def notify_state(self, state: LinkState) -> None:
        """Propagate a link state change to the owner (called by the link)."""
        if self._state_handler is not None:
            self._state_handler(state, self)

    def __repr__(self) -> str:
        return f"Port({self.owner_name}:{self.number})"


class Link:
    """Full-duplex point-to-point link between two ports.

    Parameters
    ----------
    sim:
        Simulator used to schedule frame deliveries.
    port_a, port_b:
        The two endpoints; the link attaches itself to both.
    latency:
        One-way latency in seconds applied to every frame.
    name:
        Optional label used in diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        port_a: Port,
        port_b: Port,
        latency: float = 10e-6,
        name: str = "",
    ) -> None:
        if latency < 0:
            raise PortError(f"latency must be non-negative, got {latency}")
        self._sim = sim
        self._ports: Tuple[Port, Port] = (port_a, port_b)
        self.latency = latency
        self.name = name or f"{port_a.owner_name}<->{port_b.owner_name}"
        self._event_name = f"link:{self.name}"
        self._state = LinkState.UP
        self._drop_filter: Optional[Callable[[EthernetFrame], bool]] = None
        self.frames_dropped = 0
        port_a.attach(self)
        port_b.attach(self)

    @property
    def state(self) -> LinkState:
        """Current link state."""
        return self._state

    @property
    def ports(self) -> Tuple[Port, Port]:
        """Both endpoints."""
        return self._ports

    def peer_of(self, port: Port) -> Port:
        """The port at the other end of the link."""
        if port is self._ports[0]:
            return self._ports[1]
        if port is self._ports[1]:
            return self._ports[0]
        raise PortError(f"{port} is not an endpoint of link {self.name}")

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Bring the link down: in-flight frames already scheduled still
        arrive (they are on the wire) but new transmissions are dropped,
        and both endpoints are notified of loss of carrier."""
        if self._state is LinkState.DOWN:
            return
        self._state = LinkState.DOWN
        for port in self._ports:
            port.notify_state(LinkState.DOWN)

    def restore(self) -> None:
        """Bring the link back up and notify both endpoints."""
        if self._state is LinkState.UP:
            return
        self._state = LinkState.UP
        for port in self._ports:
            port.notify_state(LinkState.UP)

    def set_drop_filter(self, predicate: Callable[[EthernetFrame], bool]) -> None:
        """Silently lose every frame matching ``predicate`` while the link
        stays up — lossy-wire emulation (e.g. BFD packet loss storms).  The
        sender still believes the frame was transmitted."""
        self._drop_filter = predicate

    def clear_drop_filter(
        self, predicate: Optional[Callable[[EthernetFrame], bool]] = None
    ) -> None:
        """Stop dropping frames; the link becomes lossless again.

        Passing the previously installed ``predicate`` clears only if it is
        still the active filter, so a stale scheduled clear cannot cancel a
        filter installed later by someone else.
        """
        if predicate is not None and self._drop_filter is not predicate:
            return
        self._drop_filter = None

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(self, frame: EthernetFrame, from_port: Port) -> bool:
        """Schedule delivery of ``frame`` to the peer of ``from_port``.

        Returns ``False`` (and counts a drop) when the link is down.
        """
        if self._state is LinkState.DOWN:
            self.frames_dropped += 1
            return False
        if self._drop_filter is not None and self._drop_filter(frame):
            self.frames_dropped += 1
            return True
        destination = self.peer_of(from_port)

        def deliver() -> None:
            # A failure that happened while the frame was in flight does not
            # destroy it — it is already on the wire — matching the paper's
            # observation that loss starts at the instant of failure.
            destination.deliver(frame)

        self._sim.schedule(self.latency, deliver, name=self._event_name)
        return True

    def __repr__(self) -> str:
        return f"Link({self.name}, {self._state.value})"

