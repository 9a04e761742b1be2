"""Causal convergence provenance: outage contexts and per-prefix chains.

The paper's headline number is measured *per prefix* (Figure 5 is a CDF
of individual prefix restoration times), and its convergence pipeline is
the four stages named in :mod:`repro.telemetry.timeline`.  This module is
the one place both are kept, per outage:

* every disruptive failure injection mints an **outage context** — a
  deterministic ``outage-<n>`` root id plus its sim-time open instant —
  through :meth:`CausalContext.open_outage`, the one call that opens a
  failure episode;
* the same book keeps *how* each failure became visible (BFD, BGP or a
  controller push), once per mechanism and peer per episode, and answers
  :meth:`CausalContext.first_detection` / :meth:`~CausalContext.first_push`;
* while an outage is open, the trace bus stamps the ambient id into
  every emitted event (``outage`` field), so detection, engine flush,
  flow-mod push and FIB install records all chain back to the same root;
* the :class:`ConvergenceLedger` folds those chained observations into
  per-prefix (and per-group) restoration latencies: each restored
  subject gets a reconstructible detect → decide → push → install chain
  relative to its outage's open instant, and the set of latencies is the
  paper's restoration CDF.

Determinism contract (DET006 applies to this file): everything here is
*passive bookkeeping*.  Opening an outage, stamping events and recording
restorations never schedule simulator work, never draw randomness and
never touch component state, so the simulation trajectory is identical
with the causal layer on or off.  Ids are minted from a plain counter
(never ``id()`` or wall clock), subjects are stringified where chains
are folded and every export sorts its keys — serial, pooled and rerun
campaigns stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple,
)

from repro.stats import quantile_from_sorted
from repro.telemetry.timeline import STAGES
from repro.telemetry.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

#: Chain subject kinds.
KIND_PREFIX = "prefix"
KIND_GROUP = "group"

#: Detection-path labels of :meth:`CausalContext.record_detection`.
DETECTION_BFD = "bfd"
DETECTION_BGP = "bgp"
DETECTION_CONTROLLER_PUSH = "controller_push"


@dataclass(frozen=True)
class DetectionEvent:
    """One failure-detection observation at the measuring vantage point."""

    at: float
    #: ``"bfd"`` (the failure detector fired), ``"bgp"`` (a withdraw /
    #: re-announcement removed the peer's best path) or
    #: ``"controller_push"`` (the router heard about it from the
    #: supercharged controller).
    path: str
    #: Provider the event points at (None when not attributable, e.g. a
    #: controller push).
    peer_ip: Optional[Any]


def _earliest_genuine(events: Iterable[DetectionEvent]) -> Optional[DetectionEvent]:
    """The winning detection among ``events``: the earliest BFD or BGP one,
    BFD before a same-instant BGP event (a BFD trigger tears the BGP
    session down in the same instant, and the detector is what caused it).
    A controller push is how the router *hears*, not a detection."""
    return min(
        (event for event in events if event.path != DETECTION_CONTROLLER_PUSH),
        key=lambda event: (event.at, event.path != DETECTION_BFD),
        default=None,
    )


class OutageContext:
    """One minted outage: the root of a convergence provenance chain."""

    __slots__ = ("outage_id", "opened_at", "kind", "provider")

    def __init__(
        self,
        outage_id: str,
        opened_at: float,
        kind: Optional[str] = None,
        provider: Optional[int] = None,
    ) -> None:
        self.outage_id = outage_id
        self.opened_at = opened_at
        self.kind = kind
        self.provider = provider

    def to_dict(self) -> Dict[str, Any]:
        """Primitive representation (rounded like every sim export)."""
        return {
            "outage": self.outage_id,
            "opened_at_s": round(self.opened_at, 9),
            "kind": self.kind,
            "provider": self.provider,
        }

    def __repr__(self) -> str:
        return f"OutageContext({self.outage_id} @ {self.opened_at})"


class CausalContext:
    """The one book of failure episodes: outage roots plus detections.

    The scenario lab owns one (``lab.detection``) whether or not telemetry
    is on, and opens an episode with a single :meth:`open_outage` call per
    disruptive injection (from ``ScenarioLab.note_failure``); instrumented
    components and the trace bus only ever *read* :attr:`current_id`.  Ids
    are ``outage-1``, ``outage-2``, … in injection order, so reruns mint
    identical ids.

    Detections are recorded at most once per ``(path, peer)`` *per
    episode*, so the log stays tiny while still capturing the first
    post-failure observation of every mechanism.  Detections recorded
    before the first injection (churn replay displacing a provider's own
    best path) belong to no outage but are kept, and mirrored onto the
    trace bus, like any other.
    """

    def __init__(self) -> None:
        self._outages: List[OutageContext] = []
        self._current: Optional[OutageContext] = None
        #: Every recorded detection, in recording order.
        self.detections: List[DetectionEvent] = []
        # (path, peer) -> this episode's record of it (the dedup set).
        self._episode: Dict[Tuple[str, Any], DetectionEvent] = {}
        self._telemetry: Optional["Telemetry"] = None

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Mirror every recorded detection onto the trace bus as
        ``detection.<path>`` (e.g. ``detection.bfd``) — the *detect* stage
        of the convergence timeline.  :class:`~repro.telemetry.Telemetry`
        attaches itself to the book it is handed."""
        self._telemetry = telemetry

    def open_outage(
        self,
        at: float,
        kind: Optional[str] = None,
        provider: Optional[int] = None,
    ) -> str:
        """Open a failure episode at sim time ``at``: mint its root
        context, make it current, and let every detection mechanism record
        once again."""
        outage = OutageContext(
            f"outage-{len(self._outages) + 1}", at, kind=kind, provider=provider
        )
        self._outages.append(outage)
        self._current = outage
        self._episode = {}
        return outage.outage_id

    # ------------------------------------------------------------------
    # Detections
    # ------------------------------------------------------------------
    def record_detection(self, at: float, path: str, peer_ip: Any = None) -> None:
        """Record a detection observation (deduplicated per episode)."""
        key = (path, peer_ip)
        if key in self._episode:
            return
        event = self._episode[key] = DetectionEvent(at, path, peer_ip)
        self.detections.append(event)
        if self._telemetry is not None:
            self._telemetry.counter(f"detection.{path}").inc()
            self._telemetry.emit(
                f"detection.{path}",
                peer=str(peer_ip) if peer_ip is not None else None,
            )

    def first_detection(
        self, since: float, peer_ip: Any = None
    ) -> Optional[DetectionEvent]:
        """Earliest genuine detection (BFD or BGP) at/after ``since``,
        optionally restricted to ``peer_ip``; BFD wins exact-time ties and
        a controller push never answers."""
        return _earliest_genuine(
            event
            for event in self.detections
            if event.at >= since - 1e-9
            and (peer_ip is None or event.peer_ip is None or event.peer_ip == peer_ip)
        )

    def first_push(self, since: float) -> Optional[DetectionEvent]:
        """Earliest controller push at/after ``since`` (None when the
        scenario has no controller, or nothing was pushed)."""
        for event in self.detections:
            if event.path == DETECTION_CONTROLLER_PUSH and event.at >= since - 1e-9:
                return event
        return None

    def episode_detection_path(self) -> Optional[str]:
        """How the open episode's failure was detected: the path of its
        winning genuine detection so far (None until one is recorded).
        Outages the reachability monitor closes carry this label."""
        winner = _earliest_genuine(self._episode.values())
        return winner.path if winner is not None else None

    # ------------------------------------------------------------------
    # Outage contexts
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[OutageContext]:
        """The open outage context (None before the first injection)."""
        return self._current

    @property
    def current_id(self) -> Optional[str]:
        """The open outage id (None before the first injection)."""
        return self._current.outage_id if self._current is not None else None

    def outages(self) -> List[OutageContext]:
        """Every minted context, in injection order."""
        return list(self._outages)

    def get(self, outage_id: str) -> Optional[OutageContext]:
        """The context minted as ``outage_id``, if any."""
        for outage in self._outages:
            if outage.outage_id == outage_id:
                return outage
        return None

    def __len__(self) -> int:
        return len(self._outages)

    def __repr__(self) -> str:
        return f"CausalContext({len(self._outages)} outages, current={self.current_id})"


class ConvergenceLedger:
    """Folds chained trace observations into per-subject restoration chains.

    Two inputs feed the ledger while an outage is open:

    * :meth:`recorder` returns a trace-bus listener that records the
      first instant each convergence stage (detect/decide/push/install)
      was observed *per outage*, using the lab's mode-specific event →
      stage mapping;
    * :meth:`note_restored` records the first instant a subject (a FIB
      prefix or a backup-group VMAC) had its new forwarding state
      applied.

    Outputs are per-subject chains (:meth:`chains`), sorted restoration
    latencies (:meth:`restoration_latencies_ms` — the Figure 5 CDF
    sample vector) and compact per-outage summaries
    (:meth:`outage_summaries` — the campaign record's ``outage_chains``
    field).  Everything before the first injection is ignored: the
    initial table load is not a restoration.
    """

    def __init__(self, causal: CausalContext) -> None:
        self._causal = causal
        # outage_id -> stage -> first sim instant
        self._stages: Dict[str, Dict[str, float]] = {}
        # outage_id -> (kind, subject) -> first restore instant; the
        # subject is the prefix / VMAC itself, formatted only by chains()
        self._restores: Dict[str, Dict[Tuple[str, Hashable], float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def recorder(
        self, stage_by_event: Mapping[str, str]
    ) -> Callable[[TraceEvent], None]:
        """A trace-bus ``on_emit`` listener marking per-outage stages.

        ``stage_by_event`` maps trace event names to stage names; events
        not in the mapping are ignored and the first mark of a stage
        within an outage wins."""
        unknown = sorted(set(stage_by_event.values()) - set(STAGES))
        if unknown:
            raise ValueError(f"unknown stages {unknown}; expected one of {STAGES}")

        def record(event: TraceEvent) -> None:
            current = self._causal.current_id
            if current is None:
                return
            stage = stage_by_event.get(event.name)
            if stage is None:
                return
            marks = self._stages.setdefault(current, {})
            if stage not in marks:
                marks[stage] = event.at

        return record

    def note_restored(self, subject: Hashable, at: float, kind: str = KIND_PREFIX) -> None:
        """Record that ``subject`` had its new state applied at ``at``.

        Ignored when no outage is open (initial load, steady state);
        first observation per (outage, kind, subject) wins, so repoint +
        regroup double-writes still count one chain.
        """
        current = self._causal.current_id
        if current is None:
            return
        restores = self._restores.setdefault(current, {})
        key = (kind, subject)
        if key not in restores:
            restores[key] = at

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def chains(
        self,
        outage_id: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Per-subject restoration chains, sorted by (outage, kind, subject).

        Each chain carries the outage root, the subject, its restoration
        latency and the outage's first-observed stage offsets — a full
        detect → decide → push → install reconstruction in milliseconds
        from the failure instant.
        """
        result: List[Dict[str, Any]] = []
        for outage in self._causal.outages():
            if outage_id is not None and outage.outage_id != outage_id:
                continue
            restores = self._restores.get(outage.outage_id, {})
            stage_offsets = self.stage_offsets_ms(outage)
            by_string = sorted(
                (chain_kind, str(subject), restored_at)
                for (chain_kind, subject), restored_at in restores.items()
            )
            for chain_kind, subject, restored_at in by_string:
                if kind is not None and chain_kind != kind:
                    continue
                chain: Dict[str, Any] = {
                    "outage": outage.outage_id,
                    "kind": chain_kind,
                    "subject": subject,
                    "restore_ms": round((restored_at - outage.opened_at) * 1e3, 6),
                }
                for stage in STAGES:
                    chain[f"{stage}_ms"] = stage_offsets[stage]
                result.append(chain)
        return result

    def restoration_latencies_ms(
        self,
        outage_id: Optional[str] = None,
        kind: str = KIND_PREFIX,
    ) -> List[float]:
        """Sorted restoration latencies (ms) — the CDF sample vector."""
        latencies: List[float] = []
        for outage in self._causal.outages():
            if outage_id is not None and outage.outage_id != outage_id:
                continue
            restores = self._restores.get(outage.outage_id, {})
            for (chain_kind, _subject), restored_at in restores.items():
                if chain_kind != kind:
                    continue
                latencies.append(
                    round((restored_at - outage.opened_at) * 1e3, 6)
                )
        latencies.sort()
        return latencies

    def restoration_cdf(
        self,
        outage_id: Optional[str] = None,
        kind: str = KIND_PREFIX,
    ) -> List[List[float]]:
        """The empirical CDF as ``[latency_ms, cumulative_fraction]`` pairs."""
        latencies = self.restoration_latencies_ms(outage_id, kind=kind)
        total = len(latencies)
        return [
            [latency, round((index + 1) / total, 6)]
            for index, latency in enumerate(latencies)
        ]

    def restoration_deciles_ms(
        self,
        outage_id: Optional[str] = None,
        kind: str = KIND_PREFIX,
    ) -> List[float]:
        """Eleven CDF deciles (p0, p10, …, p100) of the restoration
        latencies — the compact representation campaign records carry as
        ``restoration_cdf_ms``.  Empty when nothing was restored."""
        latencies = self.restoration_latencies_ms(outage_id, kind=kind)
        if not latencies:
            return []
        return [
            round(quantile_from_sorted(latencies, decile / 10), 6)
            for decile in range(11)
        ]

    def outage_summaries(self) -> List[Dict[str, Any]]:
        """One compact provenance summary per outage, in injection order."""
        summaries: List[Dict[str, Any]] = []
        for outage in self._causal.outages():
            restores = self._restores.get(outage.outage_id, {})
            prefix_count = sum(1 for chain_kind, _ in restores if chain_kind == KIND_PREFIX)
            group_count = sum(1 for chain_kind, _ in restores if chain_kind == KIND_GROUP)
            summary = outage.to_dict()
            summary["chains"] = len(restores)
            summary["prefixes_restored"] = prefix_count
            summary["groups_restored"] = group_count
            stage_offsets = self.stage_offsets_ms(outage)
            for stage in STAGES:
                summary[f"{stage}_ms"] = stage_offsets[stage]
            if restores:
                instants = sorted(restores.values())
                summary["first_restore_ms"] = round(
                    (instants[0] - outage.opened_at) * 1e3, 6
                )
                summary["last_restore_ms"] = round(
                    (instants[-1] - outage.opened_at) * 1e3, 6
                )
            else:
                summary["first_restore_ms"] = None
                summary["last_restore_ms"] = None
            summaries.append(summary)
        return summaries

    def stage_offsets_ms(self, outage: OutageContext) -> Dict[str, Optional[float]]:
        """Milliseconds from ``outage``'s open instant to each stage's
        first observation within it (``None`` for stages never observed),
        rounded like every other exported sim quantity."""
        marks = self._stages.get(outage.outage_id, {})
        return {
            stage: (
                round((marks[stage] - outage.opened_at) * 1e3, 6)
                if stage in marks
                else None
            )
            for stage in STAGES
        }

    def __repr__(self) -> str:
        total = sum(len(restores) for restores in self._restores.values())
        return f"ConvergenceLedger({len(self._causal)} outages, {total} chains)"
