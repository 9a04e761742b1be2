"""Periodic processes built on top of the event queue.

BFD transmission, keepalive generation and traffic sources are all
"send something every ``interval`` seconds" loops; :class:`PeriodicProcess`
factors that pattern out, including optional jitter and clean shutdown.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class ProcessState(enum.Enum):
    """Lifecycle of a :class:`PeriodicProcess`."""

    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"


class PeriodicProcess:
    """Invoke a callback every ``interval`` seconds of simulated time.

    Parameters
    ----------
    sim:
        The simulator driving the process.
    interval:
        Base period between invocations, in seconds; must be positive.
    callback:
        Zero-argument callable invoked on every tick.
    jitter:
        Optional fraction (0..1) of the interval added/subtracted uniformly
        at random on every tick.  Useful to avoid artificial phase locking
        between independent periodic senders (e.g. many traffic flows).
    name:
        Label propagated to the underlying events (diagnostics only).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        name: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {jitter}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._name = name
        self._state = ProcessState.CREATED
        self._handle: Optional[Event] = None

    @property
    def state(self) -> ProcessState:
        """Current lifecycle state."""
        return self._state

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking.  The first tick fires after ``initial_delay``
        (defaults to one interval)."""
        if self._state is ProcessState.RUNNING:
            raise SimulationError(f"process {self._name!r} is already running")
        self._state = ProcessState.RUNNING
        delay = self._interval if initial_delay is None else initial_delay
        self._handle = self._sim.schedule(delay, self._tick, name=self._name)

    def stop(self) -> None:
        """Stop ticking; the pending tick (if any) is cancelled."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._state = ProcessState.STOPPED

    def _tick(self) -> None:
        if self._state is not ProcessState.RUNNING:
            return
        self._callback()
        if self._state is not ProcessState.RUNNING:
            # The callback may have stopped the process.
            return
        delay = self._interval
        if self._jitter:
            span = self._interval * self._jitter
            delay += self._sim.random.uniform(-span, span)
            delay = max(delay, 1e-9)
        self._handle = self._sim.schedule(delay, self._tick, name=self._name)
