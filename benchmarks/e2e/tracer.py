"""Benchmark-side span tracer: host self time per layer, from outside.

``Tracer.install`` replaces the attributes named in ``boundaries.py`` with
wrappers *on the classes* (never on ``src/``): entering a wrapper from a
different layer opens a span — name, layer, start, end, parent — on an
in-memory stack; a nested call that stays inside the layer crosses no
boundary and only bumps the row's call count.  A span's self time is its
duration minus its children; a ``gc.callbacks`` pause is charged to
``gc.*`` and taken out of the span it interrupted.  Spans are aggregated
per ``layer:row`` as they close (``keep_spans`` additionally retains the
raw list for ``--trace-out``).

Wrappers never touch program state, so the traced rep's deterministic
record must equal the un-traced one; the runner checks that.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import sys
import time
import types
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from boundaries import BOUNDARIES, LAYER_OF_PACKAGE, Boundary
from definitions import LAYERS

HARNESS = sys.intern("harness")
_SIM = sys.intern("sim")
#: Row label of every scheduled event's callback, whichever of
#: ``schedule`` / ``schedule_at`` / ``call_soon`` / ``schedule_batch`` queued it.
_EVENT = "Simulator.schedule->callback"
#: Items pulled per span from a ``gen`` row.
GEN_CHUNK = 512

# Stat slots of one aggregated row.
_CALLS, _SPANS, _SELF, _ITEMS = range(4)
# Slots of the innermost-open-span state.
_LAYER, _CHILD, _ID = range(3)


class BoundaryError(RuntimeError):
    """A row of the boundary table no longer matches ``src/repro``."""


def _call(callback: Callable[[], None]) -> None:
    callback()


class Tracer:
    def __init__(self, started: float, keep_spans: bool = False) -> None:
        self._clock = time.perf_counter
        self._started = started
        #: Layer, accumulated child time and id of the innermost open
        #: span (the root "span" is the worker's own code: the harness).
        self._top: List[Any] = [HARNESS, 0.0, 0]
        self._stats: Dict[Tuple[str, str], List[Any]] = {}
        self._ids = itertools.count(1)
        self.spans: Optional[List[Tuple[int, str, str, float, float, int]]] = (
            [] if keep_spans else None
        )
        self._layer_of_module: Dict[str, Optional[str]] = {}
        self._event_runners: Dict[str, Callable[..., Any]] = {}
        self.tallies: Dict[str, int] = {
            "sim.scheduled": 0,
            "sim.out_of_order": 0,
            "sim.cancelled": 0,
            "bgp.best_changed": 0,
            "router.fib_queue_peak": 0,
            "routes.feed_routes": 0,
        }
        #: Simulator last scheduled on and the latest time queued on it.
        self._latest: List[Any] = [None, 0.0]
        self._gc_started = 0.0
        self.gc_pause_s = 0.0
        self.gc_collections = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, boundaries: Iterable[Boundary] = BOUNDARIES) -> None:
        """Resolve every row, then patch.  Any unresolved row aborts the
        run before a single wrapper is in place."""
        resolved = []
        problems = []
        for row in boundaries:
            try:
                resolved.append((row,) + self._resolve(row))
            except BoundaryError as error:
                problems.append(str(error))
        if problems:
            raise BoundaryError(
                "boundary table does not match src/repro:\n  " + "\n  ".join(problems)
            )
        for row, owner, original in resolved:
            wrapper = self._wrapper_for(row, original)
            wrapper.__wrapped__ = original  # type: ignore[attr-defined]
            if row.cls is None:
                # ``from module import function`` copies are everywhere
                # (package re-exports, testbed imports): rebind them all.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if (name == "repro" or name.startswith("repro.")) and (
                        vars(module).get(row.attribute) is original
                    ):
                        setattr(module, row.attribute, wrapper)
            else:
                setattr(owner, row.attribute, wrapper)
        gc.callbacks.append(self._on_gc)

    @staticmethod
    def _resolve(row: Boundary) -> Tuple[Any, Callable[..., Any]]:
        where = f"{row.module}:{row.label}"
        if row.module.split(".")[1] not in LAYER_OF_PACKAGE:
            raise BoundaryError(f"{where}: package has no layer")
        try:
            owner: Any = importlib.import_module(row.module)
        except ImportError as error:
            raise BoundaryError(f"{where}: {error}") from None
        if row.cls is not None:
            owner = getattr(owner, row.cls, None)
            if not isinstance(owner, type):
                raise BoundaryError(f"{where}: no class {row.cls}")
        original = vars(owner).get(row.attribute)
        if not isinstance(original, types.FunctionType):
            raise BoundaryError(f"{where}: not a plain function defined there")
        if row.kind == "register":
            known = inspect.signature(original).parameters
            for param in row.params:
                if param not in known:
                    raise BoundaryError(f"{where}: no parameter {param!r}")
        elif row.kind in ("schedule", "schedule_batch"):
            wanted = "callback" if row.kind == "schedule" else "items"
            if wanted not in inspect.signature(original).parameters:
                raise BoundaryError(f"{where}: no parameter {wanted!r}")
        elif row.kind not in ("call", "count", "gen"):
            raise BoundaryError(f"{where}: unknown kind {row.kind!r}")
        return owner, original

    def _wrapper_for(self, row: Boundary, original: Callable[..., Any]) -> Callable[..., Any]:
        layer = sys.intern(row.layer)
        if row.kind == "register":
            return self._registration(original, layer, row)
        stat = self._stat(layer, row.label)
        if row.kind == "gen":
            return self._chunked(original, layer, stat)
        after = self._after_hook(row.label)
        if row.kind == "count":
            return self._counted(original, stat, after)
        spanned = self._spanned(original, layer, stat, row.label, after)
        if row.kind == "schedule":
            return self._scheduling(spanned, original)
        if row.kind == "schedule_batch":
            return self._batch_scheduling(spanned)
        return spanned

    def _stat(self, layer: str, label: str) -> List[Any]:
        return self._stats.setdefault((layer, label), [0, 0, 0.0, 0])

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _spanned(
        self,
        fn: Callable[..., Any],
        layer: str,
        stat: List[Any],
        label: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """The span wrapper.  The Python call stack *is* the span stack:
        each open span keeps its parent's layer, child time and id in its
        own locals and restores them on the way out, so a span allocates
        nothing (the traced rep's GC load stays close to the program's)."""
        top = self._top
        clock = self._clock
        spans = self.spans
        ids = self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat[_CALLS] += 1
            parent_layer = top[_LAYER]
            if parent_layer is layer:
                result = fn(*args, **kwargs)
            else:
                parent_child = top[_CHILD]
                parent_id = top[_ID]
                top[_LAYER] = layer
                top[_CHILD] = 0.0
                if spans is not None:
                    top[_ID] = next(ids)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat[_SPANS] += 1
                    stat[_SELF] += elapsed - top[_CHILD]
                    top[_LAYER] = parent_layer
                    top[_CHILD] = parent_child + elapsed
                    if spans is not None:
                        spans.append((top[_ID], label, layer, start, start + elapsed, parent_id))
                    top[_ID] = parent_id
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @staticmethod
    def _counted(
        fn: Callable[..., Any], stat: List[Any], after: Optional[Callable[[tuple, Any], None]]
    ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stat[_CALLS] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _event_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Per-event form of :meth:`wrap_callback`: one ``partial`` over a
        per-layer span wrapper instead of a closure per event (a closure
        is a dozen GC-tracked cells, which at 10^5 queued events visibly
        lengthens the program's own collections)."""
        layer = self._owner_layer(callback)
        if layer is None or layer is _SIM:
            return callback
        runner = self._event_runners.get(layer)
        if runner is None:
            runner = self._spanned(_call, layer, self._stat(layer, _EVENT), _EVENT)
            self._event_runners[layer] = runner
        return functools.partial(runner, callback)

    def _chunked(
        self, fn: Callable[..., Any], layer: str, stat: List[Any]
    ) -> Callable[..., Any]:
        """Iterator-returning row: pull ``GEN_CHUNK`` items per span.  The
        producer runs up to one chunk ahead of its consumer, which is
        invisible for the pure streams in the table (prefix codes, churn
        updates) and for ``iter_withdraw_peer``, whose consumer never
        reads the RIB it drains."""
        tallies = self.tallies
        feeds_routes = layer == "routes"

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = iter(fn(*args, **kwargs))
            pull = self._spanned(
                lambda: list(itertools.islice(inner, GEN_CHUNK)), layer, stat, fn.__name__
            )
            while True:
                chunk = pull()
                if not chunk:
                    return
                stat[_ITEMS] += len(chunk)
                if feeds_routes:
                    tallies["routes.feed_routes"] += len(chunk)
                yield from chunk

        return wrapper

    def _registration(
        self, fn: Callable[..., Any], layer: str, row: Boundary
    ) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            for param in row.params:
                callback = bound.arguments.get(param)
                if callback is not None:
                    bound.arguments[param] = self.wrap_callback(callback, layer, row.label)
            return fn(*bound.args, **bound.kwargs)

        return wrapper

    def wrap_callback(
        self, callback: Callable[..., Any], registering_layer: str, label: str
    ) -> Callable[..., Any]:
        """A registered callback becomes a span of the layer that defined it."""
        layer = self._owner_layer(callback)
        if layer is None or layer is registering_layer:
            return callback
        stat = self._stat(layer, f"{label}->callback")
        return self._spanned(callback, layer, stat, f"{label}->callback")

    def _owner_layer(self, callback: Any) -> Optional[str]:
        module = getattr(callback, "__module__", None)
        if module == "functools" and hasattr(callback, "func"):
            return self._owner_layer(callback.func)
        if module is None:
            return None
        try:
            return self._layer_of_module[module]
        except KeyError:
            parts = module.split(".")
            if parts[0] != "repro":
                layer: Optional[str] = HARNESS
            else:
                layer = LAYER_OF_PACKAGE.get(parts[1]) if len(parts) > 1 else None
            if layer is not None:
                layer = sys.intern(layer)
            self._layer_of_module[module] = layer
            return layer

    def _scheduling(
        self, spanned: Callable[..., Any], original: Callable[..., Any]
    ) -> Callable[..., Any]:
        """``Simulator.schedule`` and friends: the ``sim`` span around the
        queue work, the callback handed on as a span of its owner, and the
        scheduled / out-of-order tallies."""
        index = list(inspect.signature(original).parameters).index("callback")
        wrap = self._event_callback
        note = self._note_scheduled

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if len(args) > index:
                args = args[:index] + (wrap(args[index]),) + args[index + 1:]
            else:
                kwargs["callback"] = wrap(kwargs["callback"])
            event = spanned(*args, **kwargs)
            note(args[0], event.time)
            return event

        return wrapper

    def _batch_scheduling(self, spanned: Callable[..., Any]) -> Callable[..., Any]:
        wrap = self._event_callback
        note = self._note_scheduled

        def wrapper(sim: Any, items: Iterable[Any]) -> Any:
            handles = spanned(
                sim, [(item[0], wrap(item[1])) + tuple(item[2:]) for item in items]
            )
            for event in handles:
                note(sim, event.time)
            return handles

        return wrapper

    def _note_scheduled(self, sim: Any, when: float) -> None:
        """Count the event; it is out of order when it lands before the
        latest time already scheduled on its simulator (the engine's heap
        lane, ROADMAP 3b), read from the handle's public ``time``."""
        tallies = self.tallies
        latest = self._latest
        tallies["sim.scheduled"] += 1
        if latest[0] is not sim:
            latest[0] = sim
            latest[1] = when
        elif when < latest[1]:
            tallies["sim.out_of_order"] += 1
        else:
            latest[1] = when

    # ------------------------------------------------------------------
    # Counts taken at the boundaries
    # ------------------------------------------------------------------
    def _after_hook(self, label: str) -> Optional[Callable[[tuple, Any], None]]:
        tallies = self.tallies
        if label == "BgpSpeaker.process_update":

            def best_changed(_args: tuple, change: Any) -> None:
                if change is not None and change.best_changed:
                    tallies["bgp.best_changed"] += 1

            return best_changed
        if label == "Event.cancel":

            def cancelled(_args: tuple, did_cancel: Any) -> None:
                if did_cancel:
                    tallies["sim.cancelled"] += 1

            return cancelled
        if label.startswith("FibUpdater.enqueue"):

            def queue_peak(args: tuple, _result: Any) -> None:
                depth = args[0].queue_depth
                if depth > tallies["router.fib_queue_peak"]:
                    tallies["router.fib_queue_peak"] = depth

            return queue_peak
        if label == "synthetic_full_table":

            def feed_routes(_args: tuple, feed: Any) -> None:
                tallies["routes.feed_routes"] += len(feed)

            return feed_routes
        return None

    def _on_gc(self, phase: str, _info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = self._clock()
            return
        pause = self._clock() - self._gc_started
        self.gc_pause_s += pause
        self.gc_collections += 1
        self._top[_CHILD] += pause

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """Aggregate as of now (call once, when the rep's record is done)."""
        wall = self._clock() - self._started
        gc.callbacks.remove(self._on_gc)
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (HARNESS,)}
        rows = {}
        for (layer, label), stat in sorted(self._stats.items()):
            layers[layer]["self_s"] += stat[_SELF]
            layers[layer]["calls"] += stat[_SPANS]
            rows[f"{layer}:{label}"] = {
                "calls": stat[_CALLS],
                "spans": stat[_SPANS],
                "self_s": stat[_SELF],
                "items": stat[_ITEMS],
            }
        harness = layers.pop(HARNESS)
        return {
            "layers": layers,
            # Root frame (the worker's own phase code) plus harness-owned
            # callbacks the program called back into.
            "harness_self_s": wall - self._top[_CHILD] + harness["self_s"],
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
            "traced_wall_s": wall,
            "rows": rows,
            "tallies": dict(self.tallies),
        }


def layer_metrics(report: Dict[str, Any], record: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of ``definitions.per_layer_metrics`` except
    ``trace.overhead_frac`` (the runner owns the un-traced median)."""
    layers = report["layers"]
    rows = report["rows"]
    tallies = report["tallies"]

    def calls(*keys: str) -> int:
        return sum(rows[key]["calls"] for key in keys if key in rows)

    def per(layer: str, count: float) -> float:
        return layers[layer]["self_s"] * 1e6 / count if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, float] = {}
    for layer, entry in layers.items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    metrics["gc.pause_s"] = report["gc_pause_s"]
    metrics["gc.collections"] = report["gc_collections"]
    metrics["harness.self_s"] = report["harness_self_s"]

    updates_rx = calls("bgp:BgpSpeaker.process_update")
    rib_changes = calls("core:BgpSpeaker.on_rib_change->callback")
    planner_inputs = calls(
        "supercharge:RemoteGroupPlanner.load_code",
        "supercharge:RemoteGroupPlanner.process_change",
    )
    frames = calls("net:Link.transmit")
    lookups = calls("openflow:FlowTable.lookup")
    feed_routes = tallies["routes.feed_routes"]
    metrics.update(
        {
            "bgp.updates_rx": updates_rx,
            "bgp.updates_tx": calls("bgp:BgpSession.send_update"),
            "bgp.us_per_update": per("bgp", updates_rx),
            "bgp.rib_change_ratio": ratio(tallies["bgp.best_changed"], updates_rx),
            "bgp.rib_loads": calls("bgp:CompactPeerRib.load"),
            "bgp.rib_withdraws": rows.get("bgp:CompactPeerRib.iter_withdraw_peer", {}).get(
                "items", 0
            ),
            "core.rib_changes": rib_changes,
            "core.us_per_change": per("core", rib_changes),
            "core.flow_mods_pushed": record["flow_mods_pushed"] if rib_changes else 0,
            "core.flow_mod_batches": record.get("flow_mod_batches", 0),
            "core.groups": record["group_count"] if rib_changes else 0,
            "core.vnh_allocated": record.get("vnh_occupancy", 0),
            "supercharge.prefixes_loaded": planner_inputs,
            "supercharge.us_per_prefix": per("supercharge", planner_inputs),
            "supercharge.groups": record.get("planner_groups", 0),
            "supercharge.repoints": record.get("remote_repoints", 0),
            "supercharge.fallback_prefixes": record.get("fallback_prefixes", 0),
            "supercharge.flow_mods": record.get("remote_flow_mods", 0),
            "sim.events": record.get("sim_events", 0),
            "sim.us_per_event": per("sim", record.get("sim_events", 0)),
            "sim.scheduled": tallies["sim.scheduled"],
            "sim.cancelled": tallies["sim.cancelled"],
            "sim.out_of_order_frac": ratio(tallies["sim.out_of_order"], tallies["sim.scheduled"]),
            "net.frames": frames,
            "net.us_per_frame": per("net", frames),
            "openflow.lookups": lookups,
            "openflow.flow_mods_applied": record.get("flow_mods_applied", 0),
            "openflow.us_per_lookup": per("openflow", lookups),
            "router.fib_writes": record.get("fib_writes", 0),
            "router.fib_queue_peak": tallies["router.fib_queue_peak"],
            "router.lpm_lookups": calls("router:LpmTable.lookup"),
            "router.us_per_fib_write": per("router", record.get("fib_writes", 0)),
            "routes.feed_routes": feed_routes,
            "routes.us_per_route": per("routes", feed_routes),
            "bfd.packets_rx": calls("bfd:BfdSession.receive"),
            "telemetry.trace_events": record.get("trace_events", 0),
            "traffic.probes": calls("traffic:PathTracer.trace"),
        }
    )
    for stage in ("detect", "decide", "push", "install"):
        metrics[f"sim_ms.{stage}"] = record.get(f"stage_{stage}_ms") or 0.0
    metrics["sim_convergence_ms"] = record["sim_convergence_ms"]
    metrics["flow_mods_pushed"] = record["flow_mods_pushed"]
    return metrics
