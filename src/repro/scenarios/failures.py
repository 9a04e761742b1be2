"""Composable failure injection for scenario labs.

The Figure-4 lab hard-coded a single fault — disconnect the primary
provider.  :class:`FailureInjector` generalises that into a catalog of
schedulable events (see :data:`repro.scenarios.spec.FAILURE_KINDS`):

* ``link_down`` / ``link_up`` — carrier loss and recovery;
* ``link_flap`` — a storm of down/up cycles;
* ``bfd_loss`` — silently drop BFD control packets on a link, forcing the
  failure detector into a false positive while traffic keeps flowing;
* ``session_reset`` — administratively bounce a provider's BGP sessions;
* ``controller_crash`` — kill a supercharged-controller replica;
* ``remote_withdraw`` / ``remote_nexthop_shift`` — *remote* faults (the
  paper's §5 extension): the provider's BGP feed changes — a slice of its
  table is withdrawn (and blackholed) or re-announced over a longer
  upstream path — while every local link stays up, so BFD never fires and
  detection falls back to BGP propagation.

Events are armed against the simulator relative to a start instant, so a
whole campaign is declared up front and replayed deterministically.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.bgp.attributes import AsPath
from repro.net.links import Link, LinkState
from repro.net.packets import EtherType, EthernetFrame, IpProtocol
from repro.routes.ris_feed import FeedRoute
from repro.scenarios.spec import FailureSpec, ScenarioSpecError
from repro.scenarios.testbed import ScenarioLab
from repro.sim.engine import Event
from repro.sim.random import SeededRandom

#: Detour ASN spliced into shifted AS paths (below every device ASN the
#: testbeds reserve — 64512 controller, 65000+ routers — and above the
#: 1000–64000 range synthetic feeds draw from, so it can never collide
#: with loop prevention on any device).
SHIFT_DETOUR_ASN = 64999


#: Failure kinds whose target is a link (or the provider it leads to) /
#: a provider; ``controller_crash`` targets a controller replica.
_LINK_KINDS = ("link_down", "link_up", "link_flap", "bfd_loss")
_PROVIDER_KINDS = ("session_reset", "remote_withdraw", "remote_nexthop_shift")


def _is_bfd_frame(frame: EthernetFrame) -> bool:
    return (
        frame.ethertype is EtherType.IPV4
        and getattr(frame.payload, "protocol", None) is IpProtocol.BFD
    )


class InjectionRecord(NamedTuple):
    """One fired (or scheduled) fault, for post-run inspection."""

    kind: str
    target: str
    at: float
    description: str = ""


class FailureInjector:
    """Schedules a list of :class:`FailureSpec` events on a built lab."""

    __slots__ = ("lab", "log", "first_failure_time", "first_failed_provider")

    def __init__(self, lab: ScenarioLab) -> None:
        self.lab = lab
        #: Chronological log of every sub-event actually fired.
        self.log: List[InjectionRecord] = []
        #: Simulated time of the first disruptive event (measurement
        #: anchor) and the provider it hit (None when not attributable).
        self.first_failure_time: Optional[float] = None
        self.first_failed_provider: Optional[int] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(
        self, failures: Optional[Sequence[FailureSpec]] = None, start: Optional[float] = None
    ) -> List[Event]:
        """Schedule every event ``start + failure.at`` seconds into the sim.

        ``failures`` defaults to the lab spec's campaign; ``start`` defaults
        to the current simulation time.  Returns the scheduled handles.
        """
        events = list(failures) if failures is not None else list(self.lab.spec.failures)
        t0 = self.lab.sim.now if start is None else start
        items = []
        for failure in events:
            self._resolve_target(failure)
            delay = t0 + failure.at - self.lab.sim.now
            if delay < 0:
                raise ScenarioSpecError(
                    f"failure at {t0 + failure.at} is already in the past"
                )
            items.append(
                (
                    delay,
                    lambda f=failure: self.fire(f),
                    f"failure:{failure.kind}:{failure.target or 'primary'}",
                )
            )
        # One schedule_batch call arms the whole campaign (and nothing is
        # armed at all if any spec in the list is invalid or names a target
        # the lab does not have).
        return self.lab.sim.schedule_batch(items)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def fire(self, failure: FailureSpec) -> None:
        """Apply ``failure`` at the current instant (its ``at`` is ignored)."""
        target = self._resolve_target(failure)
        getattr(self, f"_apply_{failure.kind}")(failure, target)

    def _record(
        self,
        failure: FailureSpec,
        description: str,
        disruptive: bool,
        provider_index: Optional[int] = None,
    ) -> None:
        now = self.lab.sim.now
        self.log.append(
            InjectionRecord(
                kind=failure.kind, target=failure.target, at=now, description=description
            )
        )
        if disruptive:
            if self.first_failure_time is None:
                self.first_failure_time = now
                self.first_failed_provider = provider_index
            self.lab.note_failure(
                now, provider_index=provider_index, kind=failure.kind
            )

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _resolve_target(self, failure: FailureSpec):
        """What ``failure.target`` names in this lab — a :class:`Link`, a
        provider index or a replica name, by kind.  The one check behind
        :meth:`fire` and :meth:`arm`: an invalid spec or an unknown target
        raises :class:`ScenarioSpecError` before anything is logged, failed
        or scheduled."""
        failure.validate()
        if failure.kind in _LINK_KINDS:
            return self._resolve_link(failure.target)
        if failure.kind in _PROVIDER_KINDS:
            return self._resolve_provider(failure.target)
        return self._resolve_replica(failure.target)

    def _resolve_link(self, target: str) -> Link:
        """A link name, a provider name, or "" (the primary provider)."""
        lab = self.lab
        if not target:
            return lab.provider_link(0)
        if target in lab.links:
            return lab.links[target]
        try:
            return lab.provider_link(lab.provider_index(target))
        except KeyError:
            raise ScenarioSpecError(
                f"failure target {target!r} matches no link or provider"
            ) from None

    def _provider_index_of_link(self, link: Link) -> Optional[int]:
        for index in range(self.lab.spec.num_providers):
            if self.lab.provider_link(index) is link:
                return index
        return None

    def _resolve_provider(self, target: str) -> int:
        """A provider name, or "" (the primary provider)."""
        name = target or self.lab.spec.provider_name(0)
        try:
            return self.lab.provider_index(name)
        except KeyError:
            raise ScenarioSpecError(
                f"failure target {target!r} matches no provider"
            ) from None

    def _resolve_replica(self, target: str) -> Optional[str]:
        """A controller replica name, or "" (the first healthy replica;
        ``None`` when none is left)."""
        cluster = self.lab.cluster
        if cluster is None:
            raise ScenarioSpecError("controller_crash requires a supercharged scenario")
        if not target:
            healthy = cluster.healthy_replicas()
            return healthy[0].name if healthy else None
        if all(replica.name != target for replica in cluster.replicas()):
            raise ScenarioSpecError(f"failure target {target!r} matches no controller")
        return target

    def _select_remote_routes(
        self, index: int, failure: FailureSpec
    ) -> List[FeedRoute]:
        """The seeded ``prefix_fraction`` slice of provider ``index``'s feed
        affected by a remote event (stable in feed order)."""
        feeds = self.lab.provider_feeds
        if index >= len(feeds) or not feeds[index].routes:
            raise ScenarioSpecError(
                "remote failures require load_feeds() to have run"
            )
        routes = feeds[index].routes
        if failure.prefix_fraction >= 1.0:
            return list(routes)
        count = max(1, int(round(failure.prefix_fraction * len(routes))))
        # Drawn from a private stream (scenario seed x event seed), never
        # from sim.random: the affected slice must not depend on how much
        # randomness the simulation consumed before the event fired.
        rng = SeededRandom(self.lab.spec.seed * 1_000_003 + failure.seed)
        chosen = sorted(rng.sample(range(len(routes)), count))
        return [routes[i] for i in chosen]

    def _notify_monitor(self) -> None:
        if self.lab.monitor is not None:
            self.lab.monitor.notify_forwarding_change()

    # ------------------------------------------------------------------
    # Event implementations
    # ------------------------------------------------------------------
    def _apply_link_down(self, failure: FailureSpec, link: Link) -> None:
        self._record(
            failure,
            f"link {link.name} down",
            disruptive=True,
            provider_index=self._provider_index_of_link(link),
        )
        link.fail()
        self._notify_monitor()
        if failure.duration > 0:
            self.lab.sim.schedule(
                failure.duration,
                lambda: self._auto_restore(failure, link),
                name=f"failure:{failure.kind}:auto-restore",
            )

    def _auto_restore(self, failure: FailureSpec, link: Link) -> None:
        # An explicit link_up (or a racing flap cycle) may have restored the
        # link already; re-running the restore would bounce the freshly
        # re-established BGP sessions and double-log the recovery.
        if link.state is LinkState.UP:
            return
        self._restore_link(failure, link, restart_sessions=True)

    def _apply_link_up(self, failure: FailureSpec, link: Link) -> None:
        self._restore_link(failure, link, restart_sessions=True)

    def _restore_link(
        self, failure: FailureSpec, link: Link, restart_sessions: bool
    ) -> None:
        self.log.append(
            InjectionRecord(
                kind=failure.kind,
                target=failure.target,
                at=self.lab.sim.now,
                description=f"link {link.name} up",
            )
        )
        link.restore()
        self._notify_monitor()
        if restart_sessions:
            index = self._provider_index_of_link(link)
            if index is not None:
                self.lab.restart_provider_sessions(index)

    def _apply_link_flap(self, failure: FailureSpec, link: Link) -> None:
        self._record(
            failure,
            f"flap storm on {link.name} ({failure.count}x{failure.period:.3f}s)",
            disruptive=True,
            provider_index=self._provider_index_of_link(link),
        )
        half = failure.period / 2.0
        for cycle in range(failure.count):
            offset = cycle * failure.period
            last = cycle == failure.count - 1
            self.lab.sim.schedule(
                offset,
                lambda l=link: (l.fail(), self._notify_monitor()),
                name="failure:link_flap:down",
            )
            self.lab.sim.schedule(
                offset + half,
                lambda l=link, final=last: self._restore_link(
                    failure, l, restart_sessions=final
                ),
                name="failure:link_flap:up",
            )

    def _apply_bfd_loss(self, failure: FailureSpec, link: Link) -> None:
        self._record(
            failure,
            f"dropping BFD on {link.name} for {failure.duration:.3f}s",
            disruptive=True,
            provider_index=self._provider_index_of_link(link),
        )
        # A per-event predicate object, so clearing removes only *this*
        # storm's filter: an overlapping later storm must not be truncated
        # by the earlier storm's scheduled clear.
        predicate = lambda frame: _is_bfd_frame(frame)  # noqa: E731
        link.set_drop_filter(predicate)
        self.lab.sim.schedule(
            failure.duration,
            lambda l=link, p=predicate: l.clear_drop_filter(p),
            name="failure:bfd_loss:clear",
        )

    def _apply_session_reset(self, failure: FailureSpec, index: int) -> None:
        lab = self.lab
        target = failure.target or lab.spec.provider_name(index)
        provider = lab.providers[index]
        provider_ip = lab.plan.provider_core_ip(index)
        peers = list(provider.bgp.established_peers())
        self._record(
            failure,
            f"resetting {len(peers)} BGP session(s) of {target}",
            disruptive=True,
            provider_index=index,
        )
        for peer_ip in peers:
            provider.bgp.peer_connection_lost(peer_ip, "administrative reset")
            remote = lab.speaker_by_ip(peer_ip)
            if remote is not None and provider_ip in remote.peers():
                remote.peer_connection_lost(provider_ip, "administrative reset")
        restart_after = failure.duration if failure.duration > 0 else 1.0

        def restart() -> None:
            for peer_ip in peers:
                provider.bgp.start_peer(peer_ip)
                remote = lab.speaker_by_ip(peer_ip)
                if remote is not None and provider_ip in remote.peers():
                    remote.start_peer(provider_ip)

        lab.sim.schedule(restart_after, restart, name="failure:session_reset:restart")

    def _apply_remote_withdraw(self, failure: FailureSpec, index: int) -> None:
        """An upstream link died beyond the provider: it withdraws the
        affected slice of its table and blackholes matching traffic, while
        its local link (and BFD) stay up."""
        lab = self.lab
        provider = lab.providers[index]
        routes = self._select_remote_routes(index, failure)
        self._record(
            failure,
            f"{lab.spec.provider_name(index)} remotely withdraws"
            f" {len(routes)}/{len(lab.provider_feeds[index])} prefixes",
            disruptive=True,
            provider_index=index,
        )
        for route in routes:
            provider.add_blackhole(route.prefix)
            provider.bgp.withdraw_origin(route.prefix)
        self._notify_monitor()
        if failure.duration > 0:
            lab.sim.schedule(
                failure.duration,
                lambda: self._remote_restore(failure, index, routes),
                name="failure:remote_withdraw:restore",
            )

    def _apply_remote_nexthop_shift(self, failure: FailureSpec, index: int) -> None:
        """The provider's upstream next hop moved: it re-announces the
        affected slice with a longer AS path and worse MED.  Traffic keeps
        flowing — only the control plane sees the event."""
        lab = self.lab
        provider = lab.providers[index]
        routes = self._select_remote_routes(index, failure)
        next_hop = lab.plan.provider_core_ip(index)
        self._record(
            failure,
            f"{lab.spec.provider_name(index)} shifts {len(routes)} prefixes"
            f" onto a longer upstream path",
            disruptive=True,
            provider_index=index,
        )
        for route in routes:
            asns = route.as_path.asns
            shifted = AsPath(asns[:1] + (SHIFT_DETOUR_ASN, SHIFT_DETOUR_ASN) + asns[1:])
            provider.bgp.originate(
                route.prefix,
                route.attributes(next_hop)._replace(as_path=shifted, med=route.med + 50),
            )
        if failure.duration > 0:
            lab.sim.schedule(
                failure.duration,
                lambda: self._remote_restore(failure, index, routes),
                name="failure:remote_nexthop_shift:restore",
            )

    def _remote_restore(
        self, failure: FailureSpec, index: int, routes: List[FeedRoute]
    ) -> None:
        """Undo a remote event: clear the blackholes and re-announce the
        original feed attributes."""
        lab = self.lab
        provider = lab.providers[index]
        next_hop = lab.plan.provider_core_ip(index)
        for route in routes:
            provider.clear_blackhole(route.prefix)
            provider.bgp.originate(route.prefix, route.attributes(next_hop))
        self.log.append(
            InjectionRecord(
                kind=failure.kind,
                target=failure.target,
                at=lab.sim.now,
                description=(
                    f"{lab.spec.provider_name(index)} re-announces"
                    f" {len(routes)} prefixes"
                ),
            )
        )
        self._notify_monitor()

    def _apply_controller_crash(self, failure: FailureSpec, name: Optional[str]) -> None:
        if name is None:
            return
        # Crashing a replica does not disturb the data plane while another
        # one survives, so it is not a measurement anchor.  The last one's
        # crash does — its Cease takes the router's routes with it — and
        # ``wait_recovered`` then reports the lab as not recovered.
        self._record(failure, f"controller {name} crashed", disruptive=False)
        self.lab.cluster.fail_replica(name)
