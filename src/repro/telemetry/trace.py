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
outage's id is :meth:`repro.telemetry.Telemetry.emit`'s job, one layer up,
which is why spans are opened there and close through it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, IO, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the facade imports us)
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record at a simulated instant."""

    at: float
    name: str
    fields: Dict[str, Any] = field(default_factory=dict)

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

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 4096,
        sink: Optional[IO[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._clock = clock
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
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
        return f"TraceBus({len(self._events)}/{self.capacity} buffered, {self.emitted} emitted)"
