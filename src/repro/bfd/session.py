"""BFD session state machine (asynchronous mode).

The implemented subset follows RFC 5880: three-way state convergence
(Down → Init → Up), periodic control-packet transmission at the negotiated
interval, and failure declaration when no packet arrives for
``detect_multiplier × negotiated interval`` seconds.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, List, Optional

from repro.net.packets import BfdControl
from repro.sim.engine import Event, Simulator
from repro.sim.process import PeriodicProcess

_discriminators = itertools.count(1)


class BfdSessionState(enum.Enum):
    """RFC 5880 session states (AdminDown unused)."""

    DOWN = "down"
    INIT = "init"
    UP = "up"


class BfdSession:
    """One BFD session towards a single peer.

    Parameters
    ----------
    sim:
        Simulator for transmission and detection timers.
    send:
        Callable delivering a :class:`BfdControl` packet to the peer.
    desired_min_tx_interval:
        Our transmission interval in seconds (paper-scale defaults: 15 ms,
        giving a ~45 ms worst-case detection time with multiplier 3).
    required_min_rx_interval:
        Slowest rate we are willing to accept from the peer.
    detect_multiplier:
        Number of missed intervals before declaring the peer down.
    """

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[BfdControl], None],
        desired_min_tx_interval: float = 0.015,
        required_min_rx_interval: float = 0.015,
        detect_multiplier: int = 3,
        name: str = "bfd",
    ) -> None:
        if desired_min_tx_interval <= 0 or required_min_rx_interval <= 0:
            raise ValueError("BFD intervals must be positive")
        if detect_multiplier < 1:
            raise ValueError(f"detect_multiplier must be >= 1, got {detect_multiplier}")
        self._sim = sim
        self._send = send
        self.name = name
        self._detect_name = f"bfd-detect:{name}"
        self.local_discriminator = next(_discriminators)
        self.remote_discriminator = 0
        self.desired_min_tx_interval = desired_min_tx_interval
        self.required_min_rx_interval = required_min_rx_interval
        self.detect_multiplier = detect_multiplier
        self._remote_min_rx_interval = 1.0
        self._remote_detect_multiplier = detect_multiplier
        self._state = BfdSessionState.DOWN
        self._tx_process: Optional[PeriodicProcess] = None
        self._detect_timer: Optional[Event] = None
        self._up_callbacks: List[Callable[["BfdSession"], None]] = []
        self._down_callbacks: List[Callable[["BfdSession", str], None]] = []
        self.packets_sent = 0
        self.packets_received = 0
        self.last_state_change = 0.0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    @property
    def state(self) -> BfdSessionState:
        """Current session state."""
        return self._state

    @property
    def is_up(self) -> bool:
        """Whether bidirectional liveness is currently established."""
        return self._state is BfdSessionState.UP

    @property
    def transmit_interval(self) -> float:
        """Actual transmission interval: the slower of our desire and the
        peer's advertised minimum receive interval (RFC 5880 §6.8.7).
        Before the peer has been heard from, RFC 5880 §6.8.3 mandates a slow
        (1 s) rate, which is what the initial remote value models."""
        return max(self.desired_min_tx_interval, self._remote_min_rx_interval)

    @property
    def detection_time(self) -> float:
        """Time without packets after which the peer is declared down."""
        return self._remote_detect_multiplier * max(
            self.required_min_rx_interval, self._peer_tx_interval()
        )

    def on_up(self, callback: Callable[["BfdSession"], None]) -> None:
        """Register a callback fired when the session reaches Up."""
        self._up_callbacks.append(callback)

    def on_down(self, callback: Callable[["BfdSession", str], None]) -> None:
        """Register a callback fired when the session leaves Up."""
        self._down_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start transmitting control packets."""
        if self._tx_process is not None:
            return
        self._tx_process = PeriodicProcess(
            self._sim,
            self.transmit_interval,
            self._transmit,
            jitter=0.1,
            name=f"bfd-tx:{self.name}",
        )
        self._tx_process.start(initial_delay=0.0)

    def stop(self) -> None:
        """Stop the session (administrative)."""
        if self._tx_process is not None:
            self._tx_process.stop()
            self._tx_process = None
        if self._detect_timer is not None:
            self._detect_timer.cancel()
            self._detect_timer = None
        self._set_state(BfdSessionState.DOWN, "administrative stop")

    # ------------------------------------------------------------------
    # Packet I/O
    # ------------------------------------------------------------------
    def receive(self, packet: BfdControl) -> None:
        """Process a control packet from the peer."""
        self.packets_received += 1
        self.remote_discriminator = packet.my_discriminator
        previous_interval = self.transmit_interval
        self._remote_min_rx_interval = packet.required_min_rx_interval
        self._remote_detect_multiplier = packet.detect_multiplier
        self._remote_tx_interval = packet.desired_min_tx_interval
        if self._tx_process is not None and self.transmit_interval != previous_interval:
            # Apply the negotiated (usually faster) rate immediately instead
            # of waiting for the slow pre-negotiation tick to fire.
            self._tx_process.stop()
            self._tx_process = PeriodicProcess(
                self._sim,
                self.transmit_interval,
                self._transmit,
                jitter=0.1,
                name=f"bfd-tx:{self.name}",
            )
            self._tx_process.start(initial_delay=self.transmit_interval)
        self._restart_detection_timer()

        peer_state = packet.state
        if self._state is BfdSessionState.DOWN:
            if peer_state == "down":
                self._set_state(BfdSessionState.INIT, "peer down seen")
            elif peer_state == "init":
                self._set_state(BfdSessionState.UP, "three-way handshake complete")
        elif self._state is BfdSessionState.INIT:
            if peer_state in ("init", "up"):
                self._set_state(BfdSessionState.UP, "three-way handshake complete")
        elif self._state is BfdSessionState.UP:
            if peer_state == "down":
                self._set_state(BfdSessionState.DOWN, "peer signalled down")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peer_tx_interval(self) -> float:
        return getattr(self, "_remote_tx_interval", self.required_min_rx_interval)

    def _transmit(self) -> None:
        self.packets_sent += 1
        self._send(
            BfdControl(
                my_discriminator=self.local_discriminator,
                your_discriminator=self.remote_discriminator,
                state=self._state.value,
                desired_min_tx_interval=self.desired_min_tx_interval,
                required_min_rx_interval=self.required_min_rx_interval,
                detect_multiplier=self.detect_multiplier,
            )
        )

    def _restart_detection_timer(self) -> None:
        if self._detect_timer is not None:
            self._detect_timer = self._sim.postpone(self._detect_timer, self.detection_time)
        else:
            self._detect_timer = self._sim.schedule(
                self.detection_time, self._detection_expired, name=self._detect_name
            )

    def _detection_expired(self) -> None:
        if self._state is not BfdSessionState.DOWN:
            self._set_state(BfdSessionState.DOWN, "detection time expired")

    def _set_state(self, state: BfdSessionState, reason: str) -> None:
        if state is self._state:
            return
        previous = self._state
        self._state = state
        self.last_state_change = self._sim.now
        if state is BfdSessionState.UP:
            for callback in list(self._up_callbacks):
                callback(self)
        elif previous is BfdSessionState.UP and state is BfdSessionState.DOWN:
            for callback in list(self._down_callbacks):
                callback(self, reason)

    def __repr__(self) -> str:
        return f"BfdSession({self.name}, {self._state.value})"
