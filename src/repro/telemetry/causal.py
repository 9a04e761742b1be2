"""The episode book: outage roots, detections, stage marks, restorations.

The paper times one failure with one clock and decomposes it into four
stages —

    detect  → the failure detector (BFD) or BGP propagation notices
    decide  → the controller (or the router's own decision process)
              selects the new forwarding state
    push    → the flow-mod / route update reaches the forwarding element
    install → the forwarding element has applied the new state

— and its headline number is measured *per prefix* (Figure 5 is a CDF of
individual prefix restoration times).  :class:`CausalContext` is the one
place all of it is kept, per outage:

* every disruptive failure injection mints an **outage context** — a
  deterministic ``outage-<n>`` root id plus its sim-time open instant —
  through :meth:`CausalContext.open_outage`, the one call that opens a
  failure episode;
* *how* each failure became visible (BFD, BGP or a controller push) is
  recorded once per mechanism and peer per episode, and answered by
  :meth:`~CausalContext.first_detection` / :meth:`~CausalContext.first_push`;
* the first instant each stage was observed during an episode is marked
  from the trace events of :data:`STAGE_OF_EVENT`
  (:meth:`~CausalContext.mark_stage`), and the first instant each
  subject (a FIB prefix, a backup-group VMAC) had its new forwarding
  state applied is noted (:meth:`~CausalContext.note_restored`);
* folded together, each restored subject gets a reconstructible detect →
  decide → push → install chain relative to its outage's open instant,
  and the set of latencies is the paper's restoration CDF.

References run one way: the lab owns the book, :class:`~repro.telemetry.
Telemetry` is handed it (stamping the open outage's id into every event
it emits and passing each event's name to :meth:`mark_stage`), and the
book knows neither.

Determinism contract: everything here is *passive bookkeeping*.
Opening an outage, marking stages and recording restorations never
schedule simulator work, never draw randomness and never touch component
state (``tests/test_telemetry.py`` runs a lab with its telemetry wired
and unwired and compares the two simulations).  Ids are minted from a
plain counter (never ``id()`` or wall clock), subjects are stringified
where chains are folded and every export sorts its keys — serial, pooled
and rerun campaigns stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.stats import quantile_from_sorted

#: Canonical stage names, in pipeline order.
STAGE_DETECT = "detect"
STAGE_DECIDE = "decide"
STAGE_PUSH = "push"
STAGE_INSTALL = "install"
STAGES = (STAGE_DETECT, STAGE_DECIDE, STAGE_PUSH, STAGE_INSTALL)

#: Chain subject kinds.
KIND_PREFIX = "prefix"
KIND_GROUP = "group"

#: Detection-path labels of :meth:`CausalContext.record_detection`.
DETECTION_BFD = "bfd"
DETECTION_BGP = "bgp"
DETECTION_CONTROLLER_PUSH = "controller_push"

#: The one mode-dependent entry of :data:`STAGE_OF_EVENT`
#: (see :attr:`CausalContext.router_decides`).
SESSION_DOWN_EVENT = "bgp.session_down"

#: Trace event name → the stage its first occurrence in an episode marks.
#: With a controller plane the paper's data-plane pipeline applies: its
#: BFD detects, Listing 2 (or a remote flush) decides, the flow-mod
#: crossing the OpenFlow channel is the push and the switch applying it
#: the install.  Without one the router's own pipeline does: the session
#: flush (which triggers the Loc-RIB recomputation) decides, the RIB→FIB
#: download starting is the push and the first hardware entry landing the
#: install.  First mark wins, which is what lets both sets share a table:
#: a remote withdrawal that needs no group churn is *decided* by the
#: controller relaying rewritten routes and converges through the
#: measured router's FIB download, while a local failover finishes on the
#: switch milliseconds before the router moves and keeps its
#: channel/switch attribution.
STAGE_OF_EVENT = {
    f"detection.{DETECTION_BFD}": STAGE_DETECT,
    f"detection.{DETECTION_BGP}": STAGE_DETECT,
    "ctrl.failover": STAGE_DECIDE,
    "remote.flush": STAGE_DECIDE,
    f"detection.{DETECTION_CONTROLLER_PUSH}": STAGE_DECIDE,
    SESSION_DOWN_EVENT: STAGE_DECIDE,
    "channel.delivered": STAGE_PUSH,
    "fib.batch_start": STAGE_PUSH,
    "switch.flow_mod_applied": STAGE_INSTALL,
    "fib.apply_first": STAGE_INSTALL,
}


class DetectionEvent(NamedTuple):
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
    """One minted outage: the root of a convergence provenance chain,
    with the stage marks and restorations observed while it was open."""

    __slots__ = ("outage_id", "opened_at", "kind", "provider", "stages", "restores")

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
        #: stage -> first sim instant it was observed.
        self.stages: Dict[str, float] = {}
        #: (kind, subject) -> first restore instant; the subject is the
        #: prefix / VMAC itself, formatted only by ``chains()``.
        self.restores: Dict[Tuple[str, Hashable], float] = {}

    def offset_ms(self, at: float) -> float:
        """Milliseconds from the open instant to ``at``, rounded like
        every other exported sim quantity."""
        return round((at - self.opened_at) * 1e3, 6)

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
    """The one book of failure episodes.

    The scenario lab owns one (``lab.detection``) and opens an episode
    with a single :meth:`open_outage` call per disruptive injection (from
    ``ScenarioLab.note_failure``); the lab's detection hooks, the
    telemetry facade and the measured FIB updater write into the open
    episode, and every read-out of a failure — campaign record, ``cli
    report``, the monitor's labels — comes out of it.  Ids are
    ``outage-1``, ``outage-2``, … in injection order, so reruns mint
    identical ids.

    Detections are recorded at most once per ``(path, peer)`` *per
    episode*, so the log stays tiny while still capturing the first
    post-failure observation of every mechanism.  Detections recorded
    before the first injection (churn replay displacing a provider's own
    best path) belong to no outage but are kept like any other; stage
    marks and restorations before it are ignored — the initial table load
    is not a restoration.
    """

    def __init__(self) -> None:
        self._outages: List[OutageContext] = []
        self._current: Optional[OutageContext] = None
        #: Every recorded detection, in recording order.
        self.detections: List[DetectionEvent] = []
        # (path, peer) -> this episode's record of it (the dedup set).
        self._episode: Dict[Tuple[str, Any], DetectionEvent] = {}
        #: Whether :data:`SESSION_DOWN_EVENT` marks *decide*: only where
        #: no controller plane decides before the router's own session
        #: flush does (the lab clears it when it has controllers).
        self.router_decides = True

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
    # Recording
    # ------------------------------------------------------------------
    def record_detection(self, at: float, path: str, peer_ip: Any = None) -> bool:
        """Record a detection observation; false when this episode already
        holds one for ``(path, peer_ip)`` and nothing was added."""
        key = (path, peer_ip)
        if key in self._episode:
            return False
        event = self._episode[key] = DetectionEvent(at, path, peer_ip)
        self.detections.append(event)
        return True

    def mark_stage(self, event_name: str, at: float) -> None:
        """Note that trace event ``event_name`` was emitted at ``at``: the
        first event of a stage (:data:`STAGE_OF_EVENT`) within the open
        episode is that stage's mark."""
        stage = STAGE_OF_EVENT.get(event_name)
        if stage is None or self._current is None:
            return
        if event_name == SESSION_DOWN_EVENT and not self.router_decides:
            return
        self._current.stages.setdefault(stage, at)

    def note_restored(self, subject: Hashable, at: float, kind: str = KIND_PREFIX) -> None:
        """Record that ``subject`` had its new state applied at ``at``.

        Ignored when no outage is open (initial load, steady state);
        first observation per (outage, kind, subject) wins, so repoint +
        regroup double-writes still count one chain.
        """
        if self._current is not None:
            self._current.restores.setdefault((kind, subject), at)

    # ------------------------------------------------------------------
    # Detections
    # ------------------------------------------------------------------
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

    def outages(self, outage_id: Optional[str] = None) -> List[OutageContext]:
        """Every minted context in injection order, or just ``outage_id``'s."""
        return [
            outage
            for outage in self._outages
            if outage_id is None or outage.outage_id == outage_id
        ]

    def __repr__(self) -> str:
        return f"CausalContext({len(self._outages)} outages, current={self.current_id})"

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def stage_offsets_ms(
        self, outage: Optional[OutageContext] = None
    ) -> Dict[str, Optional[float]]:
        """Milliseconds from ``outage``'s open instant — by default the
        first outage's, the episode a campaign record reports — to each
        stage's first observation within it (``None`` for stages never
        observed, all of them when nothing failed)."""
        if outage is None and self._outages:
            outage = self._outages[0]
        marks = outage.stages if outage is not None else {}
        return {
            stage: outage.offset_ms(marks[stage]) if stage in marks else None
            for stage in STAGES
        }

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
        for outage in self.outages(outage_id):
            stage_offsets = self.stage_offsets_ms(outage)
            by_string = sorted(
                (chain_kind, str(subject), restored_at)
                for (chain_kind, subject), restored_at in outage.restores.items()
                if kind is None or chain_kind == kind
            )
            for chain_kind, subject, restored_at in by_string:
                chain: Dict[str, Any] = {
                    "outage": outage.outage_id,
                    "kind": chain_kind,
                    "subject": subject,
                    "restore_ms": outage.offset_ms(restored_at),
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
        return sorted(
            outage.offset_ms(restored_at)
            for outage in self.outages(outage_id)
            for (chain_kind, _subject), restored_at in outage.restores.items()
            if chain_kind == kind
        )

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
        """One compact provenance summary per outage, in injection order
        (the campaign record's ``outage_chains`` field)."""
        summaries: List[Dict[str, Any]] = []
        for outage in self._outages:
            restores = outage.restores
            summary = outage.to_dict()
            summary["chains"] = len(restores)
            summary["prefixes_restored"] = sum(
                1 for chain_kind, _ in restores if chain_kind == KIND_PREFIX
            )
            summary["groups_restored"] = sum(
                1 for chain_kind, _ in restores if chain_kind == KIND_GROUP
            )
            stage_offsets = self.stage_offsets_ms(outage)
            for stage in STAGES:
                summary[f"{stage}_ms"] = stage_offsets[stage]
            instants = restores.values()
            summary["first_restore_ms"] = (
                outage.offset_ms(min(instants)) if restores else None
            )
            summary["last_restore_ms"] = (
                outage.offset_ms(max(instants)) if restores else None
            )
            summaries.append(summary)
        return summaries
