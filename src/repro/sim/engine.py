"""Core discrete-event simulation engine.

Time is a float number of **seconds** since the start of the simulation.
Components schedule callbacks at absolute or relative times; the engine
executes them in timestamp order (FIFO among equal timestamps).

The queue is one binary heap (``heapq``) of plain ``(time, seq, callback,
event)`` tuples, so every ordering comparison is a C-level tuple compare
that stops at the unique sequence number.  The event records are single
``__slots__`` objects that double as their own handles.  A heap is the
whole design because of what campaigns schedule: hold and keepalive
timers park tens of seconds ahead, so nearly every sub-second FIB, link
and BFD event lands *before* the latest queued time (99.8% of scheduled
events on the ``fig4-*`` benchmark workloads, 88% on ``churn-failover``);
an append-only in-order lane would serve the remainder only
(docs/performance.md).

The heap holds only what can interleave: a serial FIB download runs
its next entry in place while nothing queued is due first
(:meth:`Simulator.advance`), and a watchdog restarted per message keeps
its one entry, re-filed when the stale key surfaces (:meth:`Simulator.postpone`).

A cancelled event stays in the heap until it reaches the head, where
the run loop discards it.  :meth:`Simulator.schedule_batch` amortises
the per-call overhead for components that arm many events at once
(failure campaigns, traffic flows); :meth:`Simulator.schedule_series`
paces a long replay with one event pending at a time.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.random import SeededRandom

_isfinite = math.isfinite
_INF = float("inf")

#: A queue entry: (time, sequence, callback, event).
_Entry = Tuple[float, int, Callable[[], None], "Event"]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or a corrupted event queue."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run a table build with the cyclic collector off.

    Route objects are acyclic and freed by reference count: a collection
    during a bulk phase re-walks every long-lived route and frees nothing
    (tests/test_collector.py pins that; docs/performance.md "The
    collector").  On the way out, if the collector was on when the build
    started, one ``gc.collect(1)`` sweeps what the build allocated and
    parks the survivors in the oldest generation — so their first sweep is
    not billed to the next phase — and the collector is switched back on.
    A caller that had it off keeps it off, and is not swept.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.collect(1)
            gc.enable()


class Event:
    """A single scheduled callback; it doubles as its own handle.

    Events are ordered by ``(time, sequence)`` — the queue tuples carry
    those two keys — so that events scheduled for the same instant run in
    the order they were scheduled (deterministic FIFO tie-breaking, which
    matters for reproducibility).

    The schedule/run hot path allocates one object per queued event (none
    for one run in place): the record :meth:`Simulator.schedule` returns
    *is* the handle, exposing ``time``/``name``/``cancelled``/``executed``
    and :meth:`cancel`.  ``time`` and ``sequence`` are its current key; a
    postponed event's heap entry holds an older one until re-filed.
    """

    __slots__ = ("time", "sequence", "callback", "name", "cancelled", "executed")

    def __init__(
        self, time: float, sequence: int, callback: Callable[[], None], name: str = ""
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.name = name
        self.cancelled = False
        self.executed = False

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event had not yet run nor been cancelled.
        Cancelling an already-executed event is a harmless no-op returning
        ``False``.
        """
        if self.cancelled or self.executed:
            return False
        self.cancelled = True
        return True


class _Series:
    """The pending event of a :meth:`Simulator.schedule_series`.  Only its
    heap entry refers to it, so a finished series is freed by reference
    count."""

    __slots__ = ("heap", "start", "first", "interval", "items", "callback", "name", "index")

    def __init__(self, sim: "Simulator", interval: float, items: Sequence[Any],
                 callback: Callable[[Any], None], name: str) -> None:
        self.heap, self.start, self.first = sim._heap, sim._now, sim._sequence
        sim._sequence += len(items)  # the batch's block of sequence numbers
        self.interval, self.items, self.callback, self.name = interval, items, callback, name

    def arm(self, index: int) -> None:
        """File item ``index`` at the key the batch would have given it."""
        self.index = index
        when = self.start + (index + 1) * self.interval
        sequence = self.first + index
        fire = self.fire
        heappush(self.heap, (when, sequence, fire, Event(when, sequence, fire, self.name)))

    def fire(self) -> None:
        index = self.index
        if index + 1 < len(self.items):
            self.arm(index + 1)
        self.callback(self.items[index])


class Simulator:
    """Discrete-event simulator with a monotonically increasing clock.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random source (``self.random``);
        substrates that need randomness should draw from it so that an
        entire experiment is reproducible from a single seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        #: The event queue: a binary heap of entries.
        self._heap: List[_Entry] = []
        self._sequence = 0
        self._executed = 0
        self._running = False
        #: Latest instant :meth:`advance` may move the clock to: the run's
        #: ``until`` inside an unbudgeted :meth:`run`, ``-inf`` otherwise.
        self._advance_horizon = -_INF
        #: Optional passive observer called as ``observer(name, when)``
        #: after each executed event (see :meth:`set_observer`).
        self._observer: Optional[Callable[[str, float], None]] = None
        self.random = SeededRandom(seed)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (diagnostic counter)."""
        return self._executed

    def set_observer(self, observer: Optional[Callable[[str, float], None]]) -> None:
        """Install (or clear, with ``None``) the event-loop observer.

        The observer is called as ``observer(event_name, when)`` for every
        executed event, *before* its callback runs.  It must be strictly
        passive — the sim profiler counts and attributes sim time, nothing
        more — so installing one never changes the trajectory.  When no
        observer is installed the loop pays one attribute load and an
        ``is not None`` test per event.
        """
        self._observer = observer

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and finite.
        """
        # One compound range check covers negative, inf and nan without a
        # math.isfinite call on the hot path.
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"delay must be finite, got {delay}")
        return self._push(self._now + delay, callback, name)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} which is before now ({self._now})"
            )
        if not _isfinite(when):
            raise SimulationError(f"time must be finite, got {when}")
        return self._push(when, callback, name)

    def schedule_batch(
        self,
        items: Iterable[Sequence],
    ) -> List[Event]:
        """Schedule many callbacks in one call.

        ``items`` is an iterable of ``(delay, callback)`` or ``(delay,
        callback, name)`` tuples; delays are relative to the current
        instant, exactly as :meth:`schedule`.  Events are created in
        iteration order, so FIFO tie-breaking among equal timestamps is
        identical to a loop of individual :meth:`schedule` calls — a batch
        is an overhead optimisation, never a semantic change.  Used by the
        failure injector (arming a whole campaign) and the traffic
        generator (starting every flow at once).
        """
        now = self._now
        heap = self._heap
        sequence = self._sequence
        handles: List[Event] = []
        append = handles.append
        for item in items:
            delay = item[0]
            if not 0.0 <= delay < _INF:
                self._sequence = sequence
                if delay < 0:
                    raise SimulationError(f"cannot schedule in the past (delay={delay})")
                raise SimulationError(f"delay must be finite, got {delay}")
            callback = item[1]
            when = now + delay
            event = Event(when, sequence, callback, item[2] if len(item) > 2 else "")
            heappush(heap, (when, sequence, callback, event))
            sequence += 1
            append(event)
        self._sequence = sequence
        return handles

    def schedule_series(
        self, interval: float, items: Sequence[Any], callback: Callable[[Any], None], name: str = ""
    ) -> None:
        """``schedule_batch`` of ``((k + 1) * interval, lambda: callback(items[k]),
        name)`` for every ``k``, keeping one event pending: the series reserves
        the batch's sequence numbers now, and each event files its successor
        before it calls ``callback``, so every event runs at the batch's
        ``(time, sequence)`` key."""
        if not 0.0 <= len(items) * interval < _INF:
            raise SimulationError(f"interval must be non-negative and finite, got {interval}")
        if items:
            _Series(self, interval, items, callback, name).arm(0)

    def call_soon(self, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at the current instant (after pending same-time events)."""
        return self._push(self._now, callback, name)

    def _push(self, when: float, callback: Callable[[], None], name: str) -> Event:
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(when, sequence, callback, name)
        heappush(self._heap, (when, sequence, callback, event))
        return event

    def postpone(self, event: Event, delay: float) -> Event:
        """``event.cancel()`` + ``schedule(delay, event.callback, event.name)``,
        returning the handle that now stands for the event.

        A pending event moving forward is that handle: it takes the next
        sequence number, and its heap entry is re-filed when it surfaces.
        One that has run, was cancelled or would move earlier is replaced.
        """
        when = self._now + delay
        if event.cancelled or event.executed or not event.time <= when < _INF:
            event.cancel()
            return self.schedule(delay, event.callback, event.name)
        event.time = when
        event.sequence = self._sequence
        self._sequence += 1
        return event

    def advance(self, delay: float, name: str = "") -> bool:
        """In place of a callback's last act, ``schedule(delay, successor,
        name)``: if that event would run next, move the clock to it, count
        and observe it, and return ``True`` (the caller then runs the
        successor's work).  Return ``False`` and change nothing when a live
        event is due at or before that instant (equal times keep FIFO), it
        is beyond ``until``, the run has a ``max_events`` budget, or outside
        :meth:`run`."""
        when = self._now + delay
        if not 0.0 <= delay < _INF or when > self._advance_horizon:
            return False
        heap = self._heap
        while heap:
            head_time, sequence, callback, event = heap[0]
            if head_time > when:
                break
            if event.cancelled:
                heappop(heap)
            elif sequence != event.sequence:
                heapreplace(heap, (event.time, event.sequence, callback, event))
            else:
                return False
        self._now = when
        self._executed += 1
        observer = self._observer
        if observer is not None:
            observer(name, when)
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time when the run stopped.  When ``until`` is
        given and the run stopped on it or on an empty queue, the clock is
        advanced to exactly ``until`` even if the last event fired earlier,
        mirroring how a wall clock would behave; a run that stopped on
        ``max_events`` stays at its last event, so the events it left
        behind are still in the future.

        The cyclic collector is off while the loop runs (events allocate
        nothing it could free, see :func:`collector_paused`) and is put
        back as it was found.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        collector_was_enabled = gc.isenabled()
        gc.disable()
        executed = 0
        heap = self._heap
        pop = heappop
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        if max_events is None:
            self._advance_horizon = horizon
        try:
            # The executed counter is accumulated locally and flushed in the
            # finally block, so an exception from a callback keeps it exact.
            while heap and executed < budget:
                when, sequence, callback, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if sequence != event.sequence:
                    heapreplace(heap, (event.time, event.sequence, callback, event))
                    continue
                if when > horizon:
                    break
                pop(heap)
                if when < self._now:
                    raise SimulationError("event queue corrupted: time went backwards")
                self._now = when
                executed += 1
                event.executed = True
                observer = self._observer
                if observer is not None:
                    observer(event.name, when)
                callback()
            if until is not None and until > self._now and (executed < budget or not heap):
                self._now = until
            return self._now
        finally:
            self._executed += executed
            self._running = False
            self._advance_horizon = -_INF
            if collector_was_enabled:
                gc.enable()

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for ``duration`` seconds of simulated time from now."""
        if duration < 0:
            raise SimulationError(f"duration must be non-negative, got {duration}")
        return self.run(until=self._now + duration, max_events=max_events)
