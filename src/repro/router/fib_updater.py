"""Serial FIB update engine.

The convergence bottleneck the paper attacks is *not* BGP: it is the time
the router's line cards take to rewrite the hardware FIB, one entry at a
time.  :class:`FibUpdater` reproduces that behaviour: write requests are
queued and applied strictly serially, with

* ``first_entry_latency`` — the delay before the first entry of a batch is
  programmed (protocol processing, RIB→FIB download setup; the paper
  measured ~375 ms on the Nexus 7k), and
* ``per_entry_latency`` — the incremental cost of every entry
  (~0.28 ms/entry reproduces the paper's ≈141 s for 512 k prefixes).

Listeners can subscribe to per-prefix completion events, which is how the
reachability monitor measures when a destination's forwarding state was
actually repaired.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, NamedTuple, Optional, Sequence

from repro.net.addresses import IPv4Prefix
from repro.router.fib import Adjacency, FlatFib
from repro.sim.engine import Event, Simulator

#: Fixed bucket edges (ms) of the per-batch install-latency histogram:
#: spans one first-entry latency (~375 ms) up to a full-table download.
INSTALL_MS_EDGES = (1.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1_000.0,
                    5_000.0, 20_000.0, 60_000.0, 180_000.0)
#: Fixed bucket edges of the entries-per-batch histogram.
BATCH_ENTRIES_EDGES = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)


class FibUpdaterConfig(NamedTuple):
    """Timing characteristics of the FIB download path."""

    #: Delay before the first entry of an idle-to-busy batch is written.
    first_entry_latency: float = 0.375
    #: Additional delay for each subsequent entry.
    per_entry_latency: float = 0.000281

    def batch_duration(self, entries: int) -> float:
        """Analytic duration of a batch of ``entries`` writes."""
        if entries <= 0:
            return 0.0
        return self.first_entry_latency + (entries - 1) * self.per_entry_latency


class FibWriteRequest(NamedTuple):
    """One queued FIB operation (``adjacency is None`` means delete)."""

    prefix: IPv4Prefix
    adjacency: Optional[Adjacency]


class FibUpdater:
    """Applies FIB writes serially against a :class:`FlatFib`.

    The updater is deliberately unaware of BGP: the router enqueues write
    requests whenever its Loc-RIB best path changes, and the updater drains
    the queue at hardware speed.
    """

    def __init__(
        self,
        sim: Simulator,
        fib: FlatFib,
        config: Optional[FibUpdaterConfig] = None,
        name: str = "fib",
    ) -> None:
        self._sim = sim
        self._fib = fib
        self.config = config or FibUpdaterConfig()
        self.name = name
        self._first_name = f"{name}:first"
        self._entry_name = f"{name}:entry"
        self._queue: Deque[FibWriteRequest] = deque()
        self._busy = False
        self._pending_event: Optional[Event] = None
        self._listeners: List[Callable[[IPv4Prefix, Optional[Adjacency], float], None]] = []
        self._idle_listeners: List[Callable[[], None]] = []
        self.writes_applied = 0
        self.deletes_applied = 0
        self._telemetry = None
        self._batch_origin = 0.0
        self._batch_entries = 0
        self._batch_first_pending = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Number of writes waiting to be applied."""
        return len(self._queue)

    @property
    def is_busy(self) -> bool:
        """Whether a batch is currently draining."""
        return self._busy

    def on_entry_applied(
        self, callback: Callable[[IPv4Prefix, Optional[Adjacency], float], None]
    ) -> None:
        """Subscribe to per-entry completion events ``(prefix, adjacency, time)``."""
        self._listeners.append(callback)

    def on_idle(self, callback: Callable[[], None]) -> None:
        """Subscribe to queue-drained events."""
        self._idle_listeners.append(callback)

    def attach_telemetry(self, telemetry) -> None:
        """Enable trace/metric emission (batch-granular, never per entry):
        ``fib.batch_start`` on every idle-to-busy transition,
        ``fib.apply_first`` when the batch's first entry lands (the
        *install* stage of the convergence timeline) and
        ``fib.batch_drain`` with the batch's entry count and install
        latency when the queue empties."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def enqueue(self, prefix: IPv4Prefix, adjacency: Optional[Adjacency]) -> None:
        """Queue a write (or a delete when ``adjacency`` is ``None``)."""
        self.enqueue_many((FibWriteRequest(prefix, adjacency),))

    def enqueue_many(self, requests: Sequence[FibWriteRequest]) -> None:
        """Queue a batch of writes preserving order — the one way onto
        the queue (a lone write is a batch of one).

        Timing and trace are identical to enqueueing the requests one at a
        time: an idle updater goes busy on the first of them (its
        ``fib.batch_start`` reports a queue of one, and that entry still
        pays ``first_entry_latency``), the rest land in one ``deque.extend``.
        """
        if requests and not self._busy:
            self._queue.append(requests[0])
            self._start_draining()
            requests = requests[1:]
        self._queue.extend(requests)

    #: Second name of :meth:`enqueue_many`, kept because benchmarks/e2e
    #: pins it as a boundary row (see ROADMAP 1(b)).
    enqueue_batch = enqueue_many

    def flush_immediately(self) -> None:
        """Apply every queued write *now*, bypassing the hardware latency.

        Used only for initial configuration (static routes at boot), never
        during an experiment.
        """
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        while self._queue:
            request = self._queue.popleft()
            self._apply(request)
        self._busy = False
        # Boot-time path: reset the batch tracking silently (no events).
        self._batch_first_pending = False
        self._batch_entries = 0
        self._notify_idle()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_draining(self) -> None:
        """Idle -> busy: the batch's first entry pays ``first_entry_latency``."""
        self._busy = True
        self._pending_event = self._sim.schedule(
            self.config.first_entry_latency, self._apply_next, name=self._first_name
        )
        if self._telemetry is not None:
            self._note_batch_start()

    def _apply_next(self) -> None:
        """Apply queued entries, one per ``per_entry_latency``: in place
        while :meth:`Simulator.advance` allows, else as a scheduled event."""
        queue = self._queue
        while queue:
            self._apply(queue.popleft())
            if not queue:
                break
            delay = self.config.per_entry_latency
            if not self._sim.advance(delay, self._entry_name):
                self._pending_event = self._sim.schedule(
                    delay, self._apply_next, name=self._entry_name
                )
                return
        self._busy = False
        self._pending_event = None
        if self._telemetry is not None:
            self._note_batch_drain()
        self._notify_idle()

    def _apply(self, request: FibWriteRequest) -> None:
        now = self._sim.now
        if request.adjacency is None:
            self._fib.delete(request.prefix)
            self.deletes_applied += 1
        else:
            self._fib.write(request.prefix, request.adjacency, now=now)
            self.writes_applied += 1
        if self._telemetry is not None:
            self._batch_entries += 1
            if self._batch_first_pending:
                self._batch_first_pending = False
                self._telemetry.emit(
                    "fib.apply_first",
                    updater=self.name,
                    wait_ms=round((now - self._batch_origin) * 1e3, 6),
                )
            if request.adjacency is not None:
                # Causal install leg: a write landing while an outage is
                # open is that prefix's restoration instant (no-op and
                # cheap outside an outage — the ledger drops it).
                self._telemetry.restored(request.prefix)
        for callback in list(self._listeners):
            callback(request.prefix, request.adjacency, now)

    def _notify_idle(self) -> None:
        for callback in list(self._idle_listeners):
            callback()

    # ------------------------------------------------------------------
    # Telemetry (batch-granular; call sites guard on ``is not None``)
    # ------------------------------------------------------------------
    def _note_batch_start(self) -> None:
        self._batch_origin = self._sim.now
        self._batch_entries = 0
        self._batch_first_pending = True
        self._telemetry.emit(
            "fib.batch_start", updater=self.name, queue_depth=len(self._queue)
        )

    def _note_batch_drain(self) -> None:
        if not self._batch_first_pending and self._batch_entries == 0:
            return  # spurious wake-up (queue already flushed)
        install_ms = round((self._sim.now - self._batch_origin) * 1e3, 6)
        self._telemetry.histogram("fib.install_ms", INSTALL_MS_EDGES).observe(install_ms)
        self._telemetry.histogram(
            "fib.batch_entries", BATCH_ENTRIES_EDGES
        ).observe(float(self._batch_entries))
        self._telemetry.emit(
            "fib.batch_drain",
            updater=self.name,
            entries=self._batch_entries,
            install_ms=install_ms,
        )
        self._batch_entries = 0
        self._batch_first_pending = False
