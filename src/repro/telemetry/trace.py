"""Structured trace bus keyed on simulated time.

:class:`TraceBus` is the event half of the telemetry layer: components
emit named :class:`TraceEvent` records ("bfd.down", "fib.batch_drain",
"remote.flush") carrying primitive fields.  Events land in an in-memory
ring buffer (bounded, so long campaigns cannot grow without limit) and,
optionally, in a JSONL sink for offline analysis.

Determinism rules (the same contract as the metrics registry):

* the timestamp is whatever the injected ``clock`` returns — in every
  production wiring that is ``lambda: sim.now``, i.e. simulated seconds.
  Wall clock never enters a recorded value.
* the bus is strictly *passive*: emitting an event never schedules
  simulator work, draws randomness, or mutates component state, so a run
  with telemetry enabled executes exactly the same simulation as one
  without.
* field values must be primitives (str/int/float/bool/None); the emitter
  stringifies addresses and names before calling :meth:`TraceBus.emit`.

:class:`Span` measures an interval in sim time: ``telemetry.span("x")``
opens it, ``span.end()`` emits one ``TraceEvent`` whose ``duration`` field
is the elapsed simulated seconds.

The bus knows nothing of failure episodes: stamping events with the open
outage's id is the job of :meth:`Telemetry.emit`, one layer up (below),
which is why spans are opened there and close through it.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, IO, List, NamedTuple, Optional, Sequence

from repro.telemetry.causal import CausalContext
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Events the in-memory ring keeps (the oldest are evicted first); a JSONL
#: sink sees every one.
TRACE_CAPACITY = 4096


class TraceEvent(NamedTuple):
    """One structured trace record at a simulated instant."""

    at: float
    name: str
    fields: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Primitive representation (field keys sorted for stable JSON)."""
        return {
            "at": round(self.at, 9),
            "name": self.name,
            "fields": {key: self.fields[key] for key in sorted(self.fields)},
        }


class Span:
    """An open sim-time interval; :meth:`end` emits its closing event."""

    __slots__ = ("_telemetry", "name", "started_at", "_fields")

    def __init__(
        self, telemetry: "Telemetry", name: str, started_at: float, fields: Dict[str, Any]
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.started_at = started_at
        self._fields = fields

    def end(self, **fields: Any) -> TraceEvent:
        """Close the span: emits ``name`` with a ``duration`` field (sim
        seconds since the span opened) plus the open- and close-time
        fields.  Idempotence is the caller's job — closing twice emits
        twice."""
        merged = dict(self._fields)
        merged.update(fields)
        merged["duration"] = round(self._telemetry.trace.now() - self.started_at, 9)
        return self._telemetry.emit(self.name, **merged)


class TraceBus:
    """Bounded in-memory trace stream with an optional JSONL sink."""

    def __init__(self, clock: Callable[[], float], sink: Optional[IO[str]] = None) -> None:
        self._clock = clock
        self._events: Deque[TraceEvent] = deque(maxlen=TRACE_CAPACITY)
        self._sink = sink
        self.emitted = 0

    def now(self) -> float:
        """The bus clock (sim time in every production wiring)."""
        return self._clock()

    def emit(self, name: str, **fields: Any) -> TraceEvent:
        """Record one event at the current clock reading."""
        event = TraceEvent(at=self._clock(), name=name, fields=fields)
        self._events.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict(), sort_keys=True))
            self._sink.write("\n")
        return event

    def events(self, name: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events (oldest evicted first), optionally filtered."""
        if name is None:
            return list(self._events)
        return [event for event in self._events if event.name == name]

    def __repr__(self) -> str:
        return f"TraceBus({len(self._events)}/{TRACE_CAPACITY} buffered, {self.emitted} emitted)"


class Telemetry:
    """One scenario's observability context (trace bus + metrics)."""

    def __init__(
        self,
        clock: Callable[[], float],
        sink: Optional[IO[str]] = None,
        causal: Optional[CausalContext] = None,
    ) -> None:
        self.trace = TraceBus(clock, sink=sink)
        self.metrics = MetricsRegistry()
        # The episode book is its owner's (the lab hands its own in; a
        # bare context gets a fresh one) and never learns who writes to
        # it: :meth:`emit` stamps the open outage's id into every event
        # and shows the book each event's name, :meth:`restored` notes the
        # per-prefix restorations.
        self.causal = causal if causal is not None else CausalContext()

    def emit(self, name: str, **fields: Any) -> TraceEvent:
        """Emit a trace event (see :meth:`TraceBus.emit`).

        While an outage is open the event is stamped with its root id as
        an ``outage`` field — the passive thread that chains detection,
        engine flush, flow-mod push and FIB install records back to one
        failure injection; purely additive (pre-failure events are
        unchanged, an explicit ``outage`` field wins) — and may be the
        episode's first mark of a convergence stage."""
        outage_id = self.causal.current_id
        if outage_id is not None:
            fields.setdefault("outage", outage_id)
        event = self.trace.emit(name, **fields)
        self.causal.mark_stage(name, event.at)  # a no-op outside an outage
        return event

    def span(self, name: str, **fields: Any) -> Span:
        """Open a sim-time :class:`Span` at the current clock reading; its
        closing event goes through :meth:`emit`, so it is stamped with the
        outage open when it *ends*."""
        return Span(self, name, self.trace.now(), fields)

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create a fixed-edge histogram."""
        return self.metrics.histogram(name, edges)

    def restored(self, subject: Any, kind: str = "prefix") -> None:
        """Record a restored subject into the episode book.

        No-op outside an outage, so the initial table load stays free of
        chains and the per-entry hot path pays one ``is None`` test.
        ``subject`` (a prefix, a VMAC: anything hashable) is kept as it
        is; the book formats it when chains are folded.
        """
        if self.causal.current is None:
            return
        self.causal.note_restored(subject, self.trace.now(), kind=kind)
