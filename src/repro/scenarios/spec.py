"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of one complete
testbed plus the failure campaign to run against it: how many provider
routers fan out of the switch, how many routers are under test, whether
the supercharged controller (or a redundant pair) is present, the
prefix-table size, BFD/REST/switch timing, and a list of
:class:`FailureSpec` events to inject once the testbed has converged.

Specs are deliberately built from primitives only (ints, floats, strings,
booleans) so they

* round-trip losslessly through ``to_dict``/``from_dict`` and JSON,
* pickle cheaply across the campaign runner's worker processes, and
* hash/compare structurally for grid deduplication.

Compilation into a wired simulation happens in
:mod:`repro.scenarios.testbed`; named shortcuts live in
:mod:`repro.scenarios.presets`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

#: Failure kinds understood by :class:`repro.scenarios.failures.FailureInjector`.
FAILURE_KINDS = (
    "link_down",
    "link_up",
    "link_flap",
    "bfd_loss",
    "session_reset",
    "controller_crash",
    "remote_withdraw",
    "remote_nexthop_shift",
)

#: Kinds that model a *remote* fault: the provider's BGP feed changes while
#: the local link stays up, so BFD never fires and detection falls back to
#: BGP propagation (the paper's §5 extension).
REMOTE_FAILURE_KINDS = ("remote_withdraw", "remote_nexthop_shift")

#: Addressing-plan ceilings (see repro.scenarios.testbed.AddressPlan).
MAX_PROVIDERS = 30
MAX_EDGE_ROUTERS = 8


class ScenarioSpecError(ValueError):
    """Raised when a scenario specification is internally inconsistent."""


class FailureSpec(NamedTuple):
    """One scheduled fault event.

    ``at`` is relative to the instant the failure campaign is armed (i.e.
    after the testbed converged), in simulated seconds.

    Field semantics per kind:

    * ``link_down`` — fail the target link; ``duration > 0`` restores it
      (and restarts torn BGP sessions) after that long.
    * ``link_up`` — restore the target link and restart its sessions.
    * ``link_flap`` — ``count`` down/up cycles of ``period`` seconds each;
      sessions are restarted after the final restore.
    * ``bfd_loss`` — silently drop BFD control packets on the target link
      for ``duration`` seconds (false-positive detection storm).
    * ``session_reset`` — administratively bounce every BGP session of the
      target provider; both ends restart after ``duration`` (default 1 s).
    * ``controller_crash`` — crash the target controller replica.
    * ``remote_withdraw`` — the target provider withdraws a
      ``prefix_fraction`` slice of its table (an upstream link died beyond
      it) and blackholes the affected traffic; ``duration > 0``
      re-announces the slice after that long.
    * ``remote_nexthop_shift`` — the target provider re-announces a
      ``prefix_fraction`` slice with a longer AS path and worse MED (its
      upstream next hop moved); traffic keeps flowing, only the control
      plane churns.  ``duration > 0`` restores the original attributes.
    """

    kind: str
    at: float
    #: Provider name ("R2", "P3"…), link name ("p1-sw") or controller name
    #: ("ctrl1"); empty string targets the primary provider / first
    #: controller.
    target: str = ""
    duration: float = 0.0
    count: int = 1
    period: float = 0.2
    #: Remote kinds: share of the provider's table affected (blast radius).
    prefix_fraction: float = 1.0
    #: Remote kinds: decorrelates the affected-prefix sample between events
    #: (the scenario seed is mixed in as well).
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ScenarioSpecError` on an invalid event."""
        if self.kind not in FAILURE_KINDS:
            raise ScenarioSpecError(
                f"unknown failure kind {self.kind!r}; expected one of {FAILURE_KINDS}"
            )
        if self.at < 0:
            raise ScenarioSpecError(f"failure time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ScenarioSpecError(f"duration must be >= 0, got {self.duration}")
        if self.count < 1:
            raise ScenarioSpecError(f"count must be >= 1, got {self.count}")
        if self.period <= 0:
            raise ScenarioSpecError(f"period must be > 0, got {self.period}")
        if self.kind == "bfd_loss" and self.duration <= 0:
            raise ScenarioSpecError("bfd_loss requires a positive duration")
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ScenarioSpecError(
                f"prefix_fraction must be in (0, 1], got {self.prefix_fraction}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-only dict representation."""
        return self._asdict()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        extra = set(data) - set(cls._fields)
        if extra:
            raise ScenarioSpecError(f"unknown FailureSpec fields: {sorted(extra)}")
        return cls(**data)

    @property
    def end_time(self) -> float:
        """Upper bound on when this event's effects stop being scheduled."""
        horizon = self.at + self.duration
        if self.kind == "link_flap":
            horizon = max(horizon, self.at + self.count * self.period)
        if self.kind == "session_reset":
            horizon = max(horizon, self.at + (self.duration or 1.0))
        return horizon


class _ScenarioFields(NamedTuple):
    """The fields of :class:`ScenarioSpec` (whose ``__new__`` normalises them)."""

    name: str = "scenario"
    #: Synthetic full-table size advertised by every provider.
    num_prefixes: int = 1000
    supercharged: bool = True
    #: Upstream providers fanning out of the switch (the paper uses 2).
    num_providers: int = 2
    #: Routers under test sharing the switch and controller plane.
    num_edge_routers: int = 1
    redundant_controllers: bool = False
    hierarchical_fib: bool = False
    monitored_flows: int = 100
    seed: int = 1
    #: Provider display names; default ``P1``…``PN``.
    provider_names: Optional[List[str]] = None
    #: LOCAL_PREF per provider (higher wins); default ``200, 100, 99, …``.
    provider_local_prefs: Optional[List[int]] = None
    bfd_interval: float = 0.03
    bfd_multiplier: int = 3
    rest_latency: float = 2e-3
    flow_mod_latency: float = 5e-3
    link_latency: float = 10e-6
    #: Edge-router FIB download timing; ``None`` keeps the Nexus-7k defaults.
    fib_first_entry_latency: Optional[float] = None
    fib_per_entry_latency: Optional[float] = None
    packet_traffic: bool = False
    packet_rate_pps: float = 200.0
    #: RIS-style churn replay (0 = off): the primary provider replays a
    #: recorded-feed update stream (see ``routes/ris_feed.churn_stream``)
    #: at this many updates per simulated second, alongside the campaign.
    churn_rate_ups: float = 0.0
    #: Share of replayed prefixes that are withdrawn mid-stream.
    churn_withdraw_fraction: float = 0.0
    #: Remote supercharge (supercharged mode only): controllers plan
    #: shared-fate remote groups and absorb remote withdraws / next-hop
    #: shifts with O(#groups) flow-mods instead of per-prefix
    #: re-announcements.  Off by default so A/B campaigns can sweep it.
    remote_groups: bool = False
    #: Holddown (seconds) the remote repoint engine lets a churn burst
    #: accumulate before flushing.
    remote_holddown: float = 0.001
    #: The failure campaign, armed once the testbed has converged.
    failures: Sequence[FailureSpec] = ()


class ScenarioSpec(_ScenarioFields):
    """Declarative description of one experiment scenario.

    ``failures`` is always a list: one given as any other sequence, or
    left out, becomes a fresh list, so equal campaigns make equal specs.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ScenarioSpec":
        spec = super().__new__(cls, *args, **kwargs)
        if type(spec.failures) is list:
            return spec
        return spec._replace(failures=list(spec.failures))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def provider_name(self, index: int) -> str:
        """Display name of provider ``index`` (0-based)."""
        if self.provider_names is not None:
            return self.provider_names[index]
        return f"P{index + 1}"

    def provider_local_pref(self, index: int) -> int:
        """LOCAL_PREF of provider ``index`` (0-based; strictly decreasing
        defaults keep the failover order deterministic)."""
        if self.provider_local_prefs is not None:
            return self.provider_local_prefs[index]
        return 200 if index == 0 else 100 - (index - 1)

    @property
    def failure_horizon(self) -> float:
        """Simulated seconds after arming by which every event has fired."""
        return max((f.end_time for f in self.failures), default=0.0)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; returns ``self`` for chaining."""
        if not self.name:
            raise ScenarioSpecError("scenario name must be non-empty")
        if self.num_prefixes < 1:
            raise ScenarioSpecError(f"num_prefixes must be >= 1, got {self.num_prefixes}")
        if not 1 <= self.num_providers <= MAX_PROVIDERS:
            raise ScenarioSpecError(
                f"num_providers must be in [1, {MAX_PROVIDERS}], got {self.num_providers}"
            )
        if not 1 <= self.num_edge_routers <= MAX_EDGE_ROUTERS:
            raise ScenarioSpecError(
                f"num_edge_routers must be in [1, {MAX_EDGE_ROUTERS}],"
                f" got {self.num_edge_routers}"
            )
        if self.redundant_controllers and not self.supercharged:
            raise ScenarioSpecError("redundant_controllers requires supercharged mode")
        if self.redundant_controllers and self.num_edge_routers != 1:
            raise ScenarioSpecError(
                "redundant_controllers is only supported with a single edge router"
            )
        if self.monitored_flows < 1:
            raise ScenarioSpecError(
                f"monitored_flows must be >= 1, got {self.monitored_flows}"
            )
        if self.bfd_interval <= 0:
            raise ScenarioSpecError(f"bfd_interval must be > 0, got {self.bfd_interval}")
        if self.bfd_multiplier < 1:
            raise ScenarioSpecError(
                f"bfd_multiplier must be >= 1, got {self.bfd_multiplier}"
            )
        if self.link_latency < 0:
            raise ScenarioSpecError(f"link_latency must be >= 0, got {self.link_latency}")
        for label, value in (
            ("provider_names", self.provider_names),
            ("provider_local_prefs", self.provider_local_prefs),
        ):
            if value is not None and len(value) != self.num_providers:
                raise ScenarioSpecError(
                    f"{label} must list exactly {self.num_providers} entries,"
                    f" got {len(value)}"
                )
        if self.provider_names is not None:
            lowered = [name.lower() for name in self.provider_names]
            if len(set(lowered)) != len(lowered):
                raise ScenarioSpecError("provider_names must be unique")
            # Provider names share a namespace with the other devices (link
            # keys, port registry); a collision would silently shadow the
            # edge/controller entries.
            reserved = {"r1", "sw1", "sink", "source"}
            reserved.update(f"e{j + 1}" for j in range(1, self.num_edge_routers))
            reserved.update(f"source{j + 1}" for j in range(1, self.num_edge_routers))
            reserved.update(f"ctrl{k + 1}" for k in range(2 * self.num_edge_routers))
            clashes = sorted(set(lowered) & reserved)
            if clashes:
                raise ScenarioSpecError(
                    f"provider_names {clashes} collide with reserved device names"
                )
        if self.churn_rate_ups < 0:
            raise ScenarioSpecError(
                f"churn_rate_ups must be >= 0, got {self.churn_rate_ups}"
            )
        if not 0.0 <= self.churn_withdraw_fraction <= 1.0:
            raise ScenarioSpecError(
                f"churn_withdraw_fraction must be in [0, 1],"
                f" got {self.churn_withdraw_fraction}"
            )
        if self.remote_groups and not self.supercharged:
            raise ScenarioSpecError("remote_groups requires supercharged mode")
        if self.remote_holddown <= 0:
            raise ScenarioSpecError(
                f"remote_holddown must be > 0, got {self.remote_holddown}"
            )
        prefs = [self.provider_local_pref(i) for i in range(self.num_providers)]
        if len(set(prefs)) != len(prefs):
            raise ScenarioSpecError(
                "provider_local_prefs must be unique (ties make failover order"
                " depend on BGP tie-breaking)"
            )
        for failure in self.failures:
            failure.validate()
            if failure.kind == "controller_crash" and not self.supercharged:
                raise ScenarioSpecError("controller_crash requires supercharged mode")
        return self

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Primitive-only dict representation (JSON- and pickle-safe)."""
        data = self._asdict()
        data["failures"] = [f.to_dict() for f in self.failures]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        extra = set(data) - set(cls._fields)
        if extra:
            raise ScenarioSpecError(f"unknown ScenarioSpec fields: {sorted(extra)}")
        payload = dict(data)
        failures = payload.pop("failures", [])
        spec_failures = [
            f if isinstance(f, FailureSpec) else FailureSpec.from_dict(f)
            for f in failures
        ]
        return cls(failures=spec_failures, **payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to JSON (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        """Parse a spec previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (validation deferred)."""
        return type(self)(**{**self._asdict(), **overrides})


def failure_campaign(kind: str, at: float = 1.0, **params: Any) -> List[FailureSpec]:
    """A canned single-event campaign for the given failure ``kind``.

    ``"none"`` returns an empty campaign (converge-only scenario).
    """
    if kind == "none":
        return []
    defaults: Dict[str, Dict[str, Any]] = {
        "link_down": {},
        "link_up": {},
        "link_flap": {"count": 3, "period": 0.2},
        "bfd_loss": {"duration": 0.5},
        "session_reset": {"duration": 1.0},
        "controller_crash": {},
        "remote_withdraw": {},
        "remote_nexthop_shift": {},
    }
    if kind not in defaults:
        raise ScenarioSpecError(
            f"unknown failure campaign {kind!r}; expected 'none' or one of {FAILURE_KINDS}"
        )
    merged = {**defaults[kind], **params}
    return [FailureSpec(kind=kind, at=at, **merged)]
