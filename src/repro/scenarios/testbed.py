"""The testbed: a :class:`~repro.scenarios.spec.ScenarioSpec` compiled
into a wired simulation.

:class:`ScenarioLab` is the only lab in the code base.  The paper's
Figure-4 testbed is the ``figure4`` preset (one router under test, two
providers, ``supercharged`` on or off); every other scenario widens the
same wiring:

* ``num_edge_routers`` routers under test (each with its own traffic
  source; the first one is the measured router),
* ``num_providers`` upstream provider routers, each advertising the same
  synthetic full table and forwarding received traffic to the shared sink,
* one OpenFlow switch interconnecting everything, and
* in supercharged mode, one controller per edge router (plus a redundant
  replica when requested) attached to the switch.

Everything that varies between runs is a spec field (table size, BFD,
REST, switch and FIB-download timing, ...); :class:`AddressPlan` derives
every address, MAC and switch port from the fan sizes.  The workflow is
``build_scenario → bring_up``, then
:func:`repro.scenarios.campaign.run_failover` injects the failure, waits
for recovery and reads the outcome out; ``bring_up`` is ``start →
load_feeds → wait_converged → setup_monitoring``, which stay public for
callers that time them apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, IO, List, Optional

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.rib import RibChange
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.links import Link, Port
from repro.openflow.flow_table import Actions, FlowEntry, FlowMatch
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.switch import OpenFlowSwitch
from repro.router.fib_updater import FibUpdaterConfig
from repro.router.router import Router, RouterConfig, StaticRoute
from repro.routes.prefix_gen import PrefixGenerator
from repro.routes.ris_feed import RouteFeed, churn_stream, synthetic_full_table
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import Simulator, collector_paused
from repro.telemetry import CausalContext, SimProfiler, Telemetry
from repro.telemetry.causal import (
    DETECTION_BFD,
    DETECTION_BGP,
    DETECTION_CONTROLLER_PUSH,
)
from repro.traffic.flows import FlowSpec
from repro.traffic.generator import TrafficSource, TrafficSourceConfig
from repro.traffic.monitor import TrafficSink
from repro.traffic.reachability import PathTracer, ReachabilityMonitor

if TYPE_CHECKING:
    from repro.core.controller import SuperchargedController
    from repro.core.reliability import ControllerCluster

#: ASN shared by every controller replica (private-use, as in the paper).
CONTROLLER_ASN = 64512
#: FIB download timing of the provider routers (fast line cards).
PROVIDER_FIB_UPDATER = FibUpdaterConfig(first_entry_latency=0.05, per_entry_latency=1e-5)
#: OpenFlow channel latency between switch and controller.
CONTROLLER_CHANNEL_LATENCY = 1e-3


class AddressPlan:
    """Deterministic addressing for an arbitrary-size scenario.

    With one edge router and two providers it produces exactly the
    paper's Figure-4 addresses, MACs and switch ports (R1=.1/port 1,
    R2=.2/port 2, R3=.3/port 3, controllers .100/.101 on ports 4/5).
    """

    CORE_SUBNET = IPv4Prefix("10.0.0.0/24")
    VNH_POOL = IPv4Prefix("10.0.0.128/25")

    def __init__(self, num_providers: int, num_edge_routers: int, num_controllers: int) -> None:
        self.num_providers = num_providers
        self.num_edge_routers = num_edge_routers
        self.num_controllers = num_controllers

    # Edge routers ------------------------------------------------------
    def edge_name(self, j: int) -> str:
        return "R1" if j == 0 else f"E{j + 1}"

    def edge_asn(self, j: int) -> int:
        return 65000 if j == 0 else 65100 + j

    def edge_core_ip(self, j: int) -> IPv4Address:
        return IPv4Address(f"10.0.0.{1 if j == 0 else 40 + j}")

    def edge_core_mac(self, j: int) -> MacAddress:
        return MacAddress(f"00:00:00:00:00:{(0x01 if j == 0 else 0x28 + j):02x}")

    def source_subnet(self, j: int) -> IPv4Prefix:
        return IPv4Prefix("192.168.1.0/24" if j == 0 else f"172.16.{j}.0/24")

    def edge_source_ip(self, j: int) -> IPv4Address:
        return IPv4Address(self.source_subnet(j).network + 1)

    def source_ip(self, j: int) -> IPv4Address:
        return IPv4Address(self.source_subnet(j).network + 2)

    def edge_source_mac(self, j: int) -> MacAddress:
        return (
            MacAddress("00:00:00:00:01:01")
            if j == 0
            else MacAddress(f"00:00:00:01:{j:02x}:01")
        )

    def source_mac(self, j: int) -> MacAddress:
        return (
            MacAddress("00:00:00:00:01:02")
            if j == 0
            else MacAddress(f"00:00:00:01:{j:02x}:02")
        )

    def edge_switch_port(self, j: int) -> int:
        if j == 0:
            return 1
        return 1 + self.num_providers + self.num_controllers + 1 + (j - 1)

    # Providers ---------------------------------------------------------
    def provider_asn(self, i: int) -> int:
        return 65001 + i

    def provider_core_ip(self, i: int) -> IPv4Address:
        return IPv4Address(f"10.0.0.{2 + i}")

    def provider_core_mac(self, i: int) -> MacAddress:
        return MacAddress(f"00:00:00:00:00:{2 + i:02x}")

    def sink_subnet(self, i: int) -> IPv4Prefix:
        return IPv4Prefix(f"192.168.{2 + i}.0/30")

    def provider_sink_ip(self, i: int) -> IPv4Address:
        return IPv4Address(self.sink_subnet(i).network + 1)

    def sink_ip(self, i: int) -> IPv4Address:
        return IPv4Address(self.sink_subnet(i).network + 2)

    def provider_sink_mac(self, i: int) -> MacAddress:
        return MacAddress(f"00:00:00:00:{2 + i:02x}:01")

    def sink_mac(self, i: int) -> MacAddress:
        return MacAddress(f"00:00:00:00:{2 + i:02x}:02")

    def provider_switch_port(self, i: int) -> int:
        return 2 + i

    # Controllers -------------------------------------------------------
    def controller_name(self, k: int) -> str:
        return f"ctrl{k + 1}"

    def controller_ip(self, k: int) -> IPv4Address:
        return IPv4Address(f"10.0.0.{100 + k}")

    def controller_mac(self, k: int) -> MacAddress:
        return MacAddress(f"00:00:00:00:00:{0x64 + k:02x}")

    def controller_switch_port(self, k: int) -> int:
        return 2 + self.num_providers + k


class ScenarioLab:
    """A scenario spec compiled into a complete evaluation environment."""

    def __init__(
        self,
        sim: Simulator,
        spec: ScenarioSpec,
        *,
        trace_sink: Optional[IO[str]] = None,
    ) -> None:
        spec.validate()
        self.sim = sim
        self.spec = spec
        controllers_needed = 0
        if spec.supercharged:
            controllers_needed = spec.num_edge_routers * (
                2 if spec.redundant_controllers else 1
            )
        self.plan = AddressPlan(
            spec.num_providers, spec.num_edge_routers, controllers_needed
        )
        self.switch: Optional[OpenFlowSwitch] = None
        self.edge_routers: List[Router] = []
        self.providers: List[Router] = []
        self.controllers: List[SuperchargedController] = []
        self.cluster: Optional[ControllerCluster] = None
        self.sources: List[TrafficSource] = []
        self.sink: Optional[TrafficSink] = None
        self.monitor: Optional[ReachabilityMonitor] = None
        self.tracer: Optional[PathTracer] = None
        self.provider_feeds: List[RouteFeed] = []
        self.primary_link: Optional[Link] = None
        self.links: Dict[str, Link] = {}
        self.monitored_destinations: List[IPv4Address] = []
        self._destination_prefix: Dict[IPv4Address, IPv4Prefix] = {}
        #: The one book of failure episodes: :meth:`note_failure` opens an
        #: outage in it, the detection hooks record into it (BFD vs BGP vs
        #: controller push), telemetry marks the convergence stages and the
        #: per-prefix restorations in it, and the monitor's labels and every
        #: failure read-out come out of it.
        self.detection = CausalContext()
        #: Updates scheduled by :meth:`start_churn` (0 = churn disabled).
        self.churn_updates_scheduled = 0
        #: Sim-time observability context.  ``trace_sink`` (``cli trace
        #: --out``) streams every emitted event to a JSONL file, so big
        #: campaigns stop losing early events to ring eviction.
        self.telemetry = Telemetry(
            clock=lambda: sim.now, sink=trace_sink, causal=self.detection
        )
        self.profiler = SimProfiler()
        self._built = False

    def _edge_fib_updater(self) -> FibUpdaterConfig:
        """The routers-under-test FIB download timing: the spec's, with
        the Nexus-7k defaults for whatever it leaves unset."""
        overrides = {
            "first_entry_latency": self.spec.fib_first_entry_latency,
            "per_entry_latency": self.spec.fib_per_entry_latency,
        }
        return FibUpdaterConfig(
            **{name: value for name, value in overrides.items() if value is not None}
        )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def source(self) -> Optional[TrafficSource]:
        """The measured edge router's traffic source board."""
        return self.sources[0] if self.sources else None

    def provider_index(self, name: str) -> int:
        """Index of the provider called ``name`` (case-insensitive)."""
        lowered = name.lower()
        for index in range(self.spec.num_providers):
            if self.spec.provider_name(index).lower() == lowered:
                return index
        raise KeyError(f"no provider named {name!r}")

    def provider_link(self, index: int) -> Link:
        """The switch-side link of provider ``index``."""
        return self.links[f"{self.spec.provider_name(index).lower()}-sw"]

    def remote_engines(self) -> List:
        """The remote repoint engines of every controller (empty when the
        scenario runs with ``remote_groups`` off or standalone)."""
        return [
            controller.remote_engine
            for controller in self.controllers
            if controller.remote_engine is not None
        ]

    def speaker_by_ip(self, ip: IPv4Address) -> Optional[BgpSpeaker]:
        """The BGP speaker configured with ``ip``, wherever it lives."""
        for host in (*self.edge_routers, *self.providers, *self.controllers):
            if host.has_address(ip):
                return host.bgp
        return None

    def provider_facing(self) -> List[Host]:
        """The hosts holding the BGP and BFD sessions towards the
        providers — the one place that knows who talks to them: the healthy
        controller replicas when there is a cluster, the edge routers
        themselves otherwise."""
        if self.cluster is not None:
            return self.cluster.healthy_replicas()
        return list(self.edge_routers)

    def _core_ip(self, host: Host) -> IPv4Address:
        """The address ``host`` has on the switch's subnet."""
        return host.interface_for(self.plan.CORE_SUBNET.network).ip

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self) -> "ScenarioLab":
        """Instantiate and wire every device; idempotent."""
        if self._built:
            return self
        self._built = True
        self.switch = OpenFlowSwitch(self.sim, "sw1", self.spec.flow_mod_latency)
        self._build_routers()
        self._build_traffic_boards()
        self._wire_links()
        # Static routes can only resolve once the sink links exist.
        for i, provider in enumerate(self.providers):
            provider.add_static_route(
                StaticRoute(IPv4Prefix("0.0.0.0/0"), self.plan.sink_ip(i))
            )
        self._install_static_switch_rules()
        if self.spec.supercharged:
            self._build_controllers()
        self._configure_control_plane()
        self._wire_detection()
        self._wire_telemetry()
        return self

    def _build_routers(self) -> None:
        spec = self.spec
        plan = self.plan
        edge_bfd = None if spec.supercharged else spec.bfd_interval
        edge_fib_updater = self._edge_fib_updater()
        for j in range(spec.num_edge_routers):
            edge = Router(
                self.sim,
                plan.edge_name(j),
                RouterConfig(
                    asn=plan.edge_asn(j),
                    router_id=plan.edge_core_ip(j),
                    fib_updater=edge_fib_updater,
                    hierarchical_fib=spec.hierarchical_fib,
                    bfd_interval=edge_bfd,
                    bfd_multiplier=spec.bfd_multiplier,
                ),
            )
            edge.add_interface(
                "core", plan.edge_core_mac(j), plan.edge_core_ip(j), plan.CORE_SUBNET
            )
            edge.add_interface(
                "to-source",
                plan.edge_source_mac(j),
                plan.edge_source_ip(j),
                plan.source_subnet(j),
            )
            self.edge_routers.append(edge)
        for i in range(spec.num_providers):
            provider = Router(
                self.sim,
                spec.provider_name(i),
                RouterConfig(
                    asn=plan.provider_asn(i),
                    router_id=plan.provider_core_ip(i),
                    fib_updater=PROVIDER_FIB_UPDATER,
                    bfd_interval=spec.bfd_interval,
                    bfd_multiplier=spec.bfd_multiplier,
                ),
            )
            provider.add_interface(
                "core",
                plan.provider_core_mac(i),
                plan.provider_core_ip(i),
                plan.CORE_SUBNET,
            )
            provider.add_interface(
                "to-sink",
                plan.provider_sink_mac(i),
                plan.provider_sink_ip(i),
                plan.sink_subnet(i),
            )
            self.providers.append(provider)

    def _build_traffic_boards(self) -> None:
        plan = self.plan
        self.sink = TrafficSink(self.sim, "sink")
        for i in range(self.spec.num_providers):
            self.sink.add_interface(
                f"from-{self.spec.provider_name(i).lower()}",
                plan.sink_mac(i),
                plan.sink_ip(i),
                plan.sink_subnet(i),
            )
        for j in range(self.spec.num_edge_routers):
            source = TrafficSource(
                self.sim,
                "source" if j == 0 else f"source{j + 1}",
                TrafficSourceConfig(
                    ip=plan.source_ip(j),
                    mac=plan.source_mac(j),
                    subnet=plan.source_subnet(j),
                    gateway_ip=plan.edge_source_ip(j),
                ),
            )
            source.add_static_neighbor(plan.edge_source_ip(j), plan.edge_source_mac(j))
            self.sources.append(source)

    def _link(self, name: str, port_a: Port, port_b: Port) -> None:
        self.links[name] = Link(
            self.sim, port_a, port_b, latency=self.spec.link_latency, name=name
        )

    def _link_to_switch(self, name: str, port: Port, number: int) -> None:
        """Wire ``port`` to a new switch port, which learns its owner the
        way a host's own ports do (the path tracer asks for it)."""
        switch_port = self.switch.add_port(number)
        switch_port.owner = self.switch
        self._link(name, port, switch_port)

    def _wire_links(self) -> None:
        plan = self.plan
        for j, edge in enumerate(self.edge_routers):
            stem = plan.edge_name(j).lower()
            self._link_to_switch(
                f"{stem}-sw", edge.interfaces["core"].port, plan.edge_switch_port(j)
            )
            self._link(
                f"src-{stem}", self.sources[j].port, edge.interfaces["to-source"].port
            )
        for i, provider in enumerate(self.providers):
            stem = self.spec.provider_name(i).lower()
            self._link_to_switch(
                f"{stem}-sw", provider.interfaces["core"].port, plan.provider_switch_port(i)
            )
            self._link(
                f"{stem}-sink",
                provider.interfaces["to-sink"].port,
                self.sink.interfaces[f"from-{stem}"].port,
            )
        self.primary_link = self.provider_link(0)

    def _install_static_switch_rules(self) -> None:
        """Plain L2 forwarding for the physical MACs (priority below the
        controller's VMAC rules)."""
        plan = self.plan
        rules = [
            (plan.edge_core_mac(j), plan.edge_switch_port(j))
            for j in range(self.spec.num_edge_routers)
        ]
        rules.extend(
            (plan.provider_core_mac(i), plan.provider_switch_port(i))
            for i in range(self.spec.num_providers)
        )
        rules.extend(  # no controllers in the plan when standalone
            (plan.controller_mac(k), plan.controller_switch_port(k))
            for k in range(plan.num_controllers)
        )
        for mac, port in rules:
            self.switch.flow_table.install(
                FlowEntry(
                    match=FlowMatch(eth_dst=mac),
                    actions=Actions(output_port=port),
                    priority=50,
                )
            )

    def _attach_controller(self, k: int, edge_index: int) -> SuperchargedController:
        from repro.core.controller import ControllerConfig, PeerSpec, SuperchargedController
        from repro.openflow.controller_channel import ControllerChannel

        spec = self.spec
        plan = self.plan
        config = ControllerConfig(
            ip=plan.controller_ip(k),
            mac=plan.controller_mac(k),
            subnet=plan.CORE_SUBNET,
            asn=CONTROLLER_ASN,
            router_id=plan.controller_ip(k),
            router_ip=plan.edge_core_ip(edge_index),
            router_asn=plan.edge_asn(edge_index),
            vnh_pool=plan.VNH_POOL,
            peers=[
                PeerSpec(
                    ip=plan.provider_core_ip(i),
                    asn=plan.provider_asn(i),
                    switch_port=plan.provider_switch_port(i),
                    mac=plan.provider_core_mac(i),
                    local_pref=spec.provider_local_pref(i),
                )
                for i in range(spec.num_providers)
            ],
            bfd_interval=spec.bfd_interval,
            bfd_multiplier=spec.bfd_multiplier,
            rest_latency=spec.rest_latency,
            remote_groups=spec.remote_groups,
            remote_holddown=spec.remote_holddown,
        )
        controller = SuperchargedController(self.sim, plan.controller_name(k), config)
        self._link_to_switch(
            f"{plan.controller_name(k)}-sw", controller.port, plan.controller_switch_port(k)
        )
        channel = ControllerChannel(
            self.sim,
            latency=CONTROLLER_CHANNEL_LATENCY,
            name=f"of:{plan.controller_name(k)}",
        )
        self.switch.attach_controller(channel)
        controller.attach_switch(channel)
        self.controllers.append(controller)
        # Edge routers are stub edges: they never re-export provider routes
        # (the standard customer export policy), so their sessions are
        # receive-only.
        self.edge_routers[edge_index].add_bgp_peer(
            PeerConfig(peer_ip=controller.config.ip, peer_asn=CONTROLLER_ASN, advertise=False)
        )
        return controller

    def _build_controllers(self) -> None:
        # Only a supercharged spec imports the controller stack.
        from repro.core.reliability import ControllerCluster

        self.cluster = ControllerCluster(self.sim)
        replicas = 2 if self.spec.redundant_controllers else 1
        k = 0
        for edge_index in range(self.spec.num_edge_routers):
            for _ in range(replicas):
                self.cluster.add_replica(self._attach_controller(k, edge_index))
                k += 1

    def _configure_control_plane(self) -> None:
        """Open the sessions between the providers and whoever faces them
        (an edge router's own are receive-only, like its controller one)."""
        spec = self.spec
        plan = self.plan
        facing = self.provider_facing()
        for i, provider in enumerate(self.providers):
            provider_ip = plan.provider_core_ip(i)
            for host in facing:
                if not spec.supercharged:
                    # A controller opens these itself, from its
                    # ``ControllerConfig.peers``, when it starts.
                    host.add_bgp_peer(
                        PeerConfig(
                            peer_ip=provider_ip,
                            peer_asn=plan.provider_asn(i),
                            local_pref=spec.provider_local_pref(i),
                            advertise=False,
                        )
                    )
                    host.add_bfd_peer(provider_ip)
                host_ip = self._core_ip(host)
                provider.add_bgp_peer(PeerConfig(peer_ip=host_ip, peer_asn=host.bgp.asn))
                provider.add_bfd_peer(host_ip)

    # ------------------------------------------------------------------
    # Detection-path attribution
    # ------------------------------------------------------------------
    def _wire_detection(self) -> None:
        """Register the hooks feeding :attr:`detection`.

        The vantage point is whatever detects failures for the measured
        router: the controller plane in supercharged mode, the first edge
        router itself otherwise.  ``"bfd"`` events come from the BFD
        manager, ``"bgp"`` events from Loc-RIB changes that displace a
        provider's own best path (withdraws, session flushes, or worse
        re-announcements), ``"controller_push"`` from routes the router
        receives from a controller.  Each new record is mirrored onto the
        trace bus as ``detection.<path>`` (e.g. ``detection.bfd``) — the
        *detect* stage of the convergence timeline."""
        provider_ips = set(self._provider_ips())
        # With a controller plane, that is what decides: the measured
        # router's session flush is then a consequence, not the decision.
        self.detection.router_decides = not self.controllers

        def detected(path: str, peer_ip: Optional[IPv4Address] = None) -> None:
            if self.detection.record_detection(self.sim.now, path, peer_ip):
                self.telemetry.counter(f"detection.{path}").inc()
                self.telemetry.emit(
                    f"detection.{path}",
                    peer=str(peer_ip) if peer_ip is not None else None,
                )

        def bgp_hook(changes: List[RibChange], from_peer: IPv4Address) -> None:
            if from_peer not in provider_ips:
                return
            for change in changes:
                old = change.old_best
                if old is not None and old.source.peer_ip == from_peer and change.best_changed:
                    # Once per episode: the rest of the list cannot add to it.
                    detected(DETECTION_BGP, from_peer)
                    return

        def bfd_hook(peer_ip: IPv4Address, reason: str) -> None:
            if peer_ip in provider_ips:
                detected(DETECTION_BFD, peer_ip)

        # Every replica of a controller plane programs the one shared
        # switch, so each one's view counts; routers are on their own.
        facing = self.provider_facing()
        for host in facing if self.cluster is not None else facing[:1]:
            if host.bfd is not None:
                host.bfd.on_peer_down(bfd_hook)
            host.bgp.on_rib_change(bgp_hook)
        if self.controllers:
            controller_ips = {c.config.ip for c in self.controllers}

            def push_hook(changes: List[RibChange], from_peer: IPv4Address) -> None:
                if from_peer in controller_ips:
                    detected(DETECTION_CONTROLLER_PUSH)

            self.edge_routers[0].bgp.on_rib_change(push_hook)

    # ------------------------------------------------------------------
    # Telemetry wiring
    # ------------------------------------------------------------------
    def _wire_telemetry(self) -> None:
        """Attach the scenario's telemetry context to every instrumented
        component at the measured vantage (the first edge router and the
        controller plane).  Purely observational: no events, randomness or
        state changes enter the simulation, so the trajectory is identical
        with this wiring or without it."""
        telemetry = self.telemetry
        measured = self.edge_routers[0]
        measured.fib_updater.attach_telemetry(telemetry)
        measured.bgp.attach_telemetry(telemetry)
        if measured.bfd is not None:
            measured.bfd.attach_telemetry(telemetry)
        for controller in self.controllers:
            controller.attach_telemetry(telemetry)

        def flow_mod_applied(flow_mod: FlowMod) -> None:
            telemetry.emit("switch.flow_mod_applied")
            # A non-delete mod re-pointing a backup-group VMAC is that
            # group's restoration instant (the book ignores it outside an
            # outage, so provisioning writes mint no chains).
            if (
                flow_mod.command is not FlowModCommand.DELETE
                and flow_mod.match.eth_dst is not None
            ):
                telemetry.restored(flow_mod.match.eth_dst, kind="group")

        self.switch.on_flow_mod_applied(flow_mod_applied)
        # Deterministic event-loop profiler: passive per-handler counts and
        # sim-time attribution (the observer never schedules or mutates).
        self.sim.set_observer(self.profiler.observe)

    def stage_offsets(self) -> Dict[str, Optional[float]]:
        """Milliseconds from the *first* noted failure to each convergence
        stage's first observation during that episode; later episodes (flap
        cycles, repeated injections) are ``detection.outage_summaries()``."""
        return self.detection.stage_offsets_ms()

    # ------------------------------------------------------------------
    # Workflow
    # ------------------------------------------------------------------
    def bring_up(self, timeout: float = 3600.0) -> bool:
        """Everything between a built lab and one ready to fail: sessions
        up, full tables loaded and downloaded, monitoring attached.
        Returns whether the testbed converged within ``timeout``."""
        self.start()
        self.load_feeds()
        converged = self.wait_converged(timeout=timeout)
        self.setup_monitoring()
        return converged

    def start(self) -> None:
        """Bring the control plane up (BGP + BFD sessions)."""
        for edge in self.edge_routers:
            edge.start()
        for provider in self.providers:
            provider.start()
        if self.cluster is not None:
            self.cluster.start_all()
        # Let the sessions establish before feeding routes.
        self.run_until(self._sessions_established, timeout=30.0)

    @collector_paused()
    def load_feeds(self) -> None:
        """Generate the synthetic full tables and originate them at every
        provider (provider ``i`` uses seed ``spec.seed + i`` over the same
        prefix set, mirroring slightly divergent real-world feeds)."""
        spec = self.spec
        count = spec.num_prefixes
        prefixes = PrefixGenerator(seed=spec.seed).generate(count)
        self.provider_feeds = []
        for i, provider in enumerate(self.providers):
            feed = synthetic_full_table(
                count,
                seed=spec.seed + i,
                provider_asn=self.plan.provider_asn(i),
                prefixes=prefixes,
            )
            self.provider_feeds.append(feed)
            next_hop = self.plan.provider_core_ip(i)
            provider.bgp.originate_many(
                [
                    (prefix, PathAttributes(next_hop, as_path, origin, med=med))
                    for prefix, as_path, origin, med in feed.routes
                ]
            )

    def wait_converged(self, timeout: float = 3600.0) -> bool:
        """Run until every edge router's control plane and FIB are loaded."""
        return self.run_until(self._initially_converged, timeout=timeout)

    def start_churn(self) -> int:
        """Arm the spec's RIS-style churn replay (no-op when disabled).

        The primary provider replays a *drifted* copy of its feed — same
        prefixes, fresh AS paths and MEDs, ``churn_withdraw_fraction`` of
        them withdrawn mid-stream (see
        :func:`repro.routes.ris_feed.churn_stream`) — at
        ``churn_rate_ups`` updates per simulated second.  Replaying the
        original feed verbatim would be suppressed by the Adj-RIB-Out's
        duplicate detection, so the drift is what makes the replay a real
        update workload.  Returns the number of updates scheduled;
        everything is derived from the spec, so replays are deterministic.
        """
        spec = self.spec
        if spec.churn_rate_ups <= 0:
            return 0
        if not self.provider_feeds:
            raise RuntimeError("load_feeds() must run before start_churn()")
        with collector_paused():
            base_feed = self.provider_feeds[0]
            drifted = synthetic_full_table(
                len(base_feed),
                seed=spec.seed + 7919,
                provider_asn=self.plan.provider_asn(0),
                prefixes=base_feed.prefixes(),
            )
            updates = list(
                churn_stream(
                    drifted,
                    self.plan.provider_core_ip(0),
                    withdraw_fraction=spec.churn_withdraw_fraction,
                    seed=spec.seed + 104729,
                )
            )
            self.sim.schedule_series(
                1.0 / spec.churn_rate_ups, updates, self._replay_churn_update, "churn:replay"
            )
        self.churn_updates_scheduled = len(updates)
        return len(updates)

    @property
    def churn_horizon(self) -> float:
        """Simulated seconds after :meth:`start_churn` by which the whole
        replay has been delivered (0 when churn is disabled)."""
        if self.churn_updates_scheduled == 0 or self.spec.churn_rate_ups <= 0:
            return 0.0
        return self.churn_updates_scheduled / self.spec.churn_rate_ups

    def _replay_churn_update(self, update: UpdateMessage) -> None:
        provider = self.providers[0]
        if update.is_withdraw:
            provider.bgp.withdraw_origin(update.prefix)
        elif not provider.blackholes_prefix(update.prefix):
            # A remote_withdraw lost the upstream path for this prefix:
            # re-originating it would attract traffic the provider drops.
            provider.bgp.originate(update.prefix, update.attributes)

    def setup_monitoring(self, num_flows: Optional[int] = None) -> None:
        """Select monitored destinations and attach the measurement hooks
        (the measured path starts at the first edge router's source)."""
        count = num_flows if num_flows is not None else self.spec.monitored_flows
        self._select_destinations(count)
        gateway_mac = self.plan.edge_source_mac(0)
        self.tracer = PathTracer(
            start_port=self.source.port,
            first_hop_mac=lambda: gateway_mac,
        )
        self.monitor = ReachabilityMonitor(self.sim, self.tracer)
        # Closing outages carry the open episode's winning detection (BFD
        # beats a same-instant BGP session flush), read when they close.
        self.monitor.detection_label = self.detection.episode_detection_path
        for destination in self.monitored_destinations:
            self.monitor.watch(destination, self._destination_prefix[destination])
        measured = self.edge_routers[0]
        measured.fib_updater.on_entry_applied(
            lambda prefix, adjacency, when: self.monitor.notify_prefix_change(prefix)
        )
        measured.on_fib_changed(
            lambda prefix: self.monitor.notify_prefix_change(prefix)
            if prefix is not None
            else self.monitor.notify_forwarding_change()
        )
        self.switch.on_flow_mod_applied(
            lambda flow_mod: self.monitor.notify_forwarding_change()
        )
        self.monitor.evaluate_all()
        if self.spec.packet_traffic:
            for destination in self.monitored_destinations:
                self.sink.monitor(destination)
                self.source.add_flow(
                    FlowSpec(destination=destination, rate_pps=self.spec.packet_rate_pps)
                )

    def note_failure(
        self,
        when: Optional[float] = None,
        provider_index: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> float:
        """Open a failure episode at ``when`` (now by default): one
        ``outage-<n>`` root in :attr:`detection` carrying the provider and
        failure kind exactly as given — the anchor detection labelling and
        the restoration chains work from, stamped into every trace event
        until the next injection."""
        at = self.sim.now if when is None else when
        self.detection.open_outage(at, kind=kind, provider=provider_index)
        self.telemetry.counter("lab.episodes").inc()
        self.telemetry.emit(
            "lab.episode",
            kind=kind,
            provider=provider_index if provider_index is not None else -1,
        )
        return at

    def restart_provider_sessions(self, index: int) -> None:
        """Administratively re-open every BGP session of provider ``index``
        (both ends of each torn session must be restarted)."""
        provider = self.providers[index]
        provider_ip = self.plan.provider_core_ip(index)
        for host in self.provider_facing():
            host.bgp.start_peer(provider_ip)
            provider.bgp.start_peer(self._core_ip(host))

    def restore_provider(self, index: int = 0, timeout: float = 3600.0) -> bool:
        """Reconnect provider ``index``, restart its BGP sessions and wait
        for steady state."""
        self.provider_link(index).restore()
        if self.monitor is not None:
            self.monitor.notify_forwarding_change()
        self.restart_provider_sessions(index)
        recovered = self.run_until(self._initially_converged, timeout=timeout)
        if self.monitor is not None:
            self.monitor.reset()
        return recovered

    def wait_recovered(self, timeout: float = 3600.0, settle: float = 0.5) -> bool:
        """Run until every monitored destination is reachable again, and
        still is once things have settled: a failure that has not reached
        the data plane yet (a lone controller's crash empties the router's
        FIB one download later) reads as reachable on the first sample."""
        recovered = self.run_until(self._all_reachable, timeout=timeout)
        self.sim.run_for(settle)
        return recovered and self._all_reachable()

    # ------------------------------------------------------------------
    # Simulation helpers
    # ------------------------------------------------------------------
    def run_until(
        self, condition: Callable[[], bool], timeout: float, step: float = 0.25
    ) -> bool:
        """Advance simulated time in ``step`` increments until ``condition``."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if condition():
                return True
            self.sim.run_for(min(step, deadline - self.sim.now))
        return condition()

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def _provider_ips(self) -> List[IPv4Address]:
        return [self.plan.provider_core_ip(i) for i in range(self.spec.num_providers)]

    def _sessions_established(self) -> bool:
        """Whether every session of every provider-facing host is up at
        both ends, and every edge router hears from someone."""
        for host in self.provider_facing():
            if set(host.bgp.established_peers()) != set(host.bgp.peers()):
                return False
            host_ip = self._core_ip(host)
            for provider in self.providers:
                if host_ip not in provider.bgp.established_peers():
                    return False
        return all(edge.bgp.established_peers() for edge in self.edge_routers)

    def _bfd_ready(self) -> bool:
        """Whether the failure detectors protecting the experiment are Up."""
        for host in self.provider_facing():
            for peer_ip in self._provider_ips():
                session = host.bfd.session(peer_ip) if host.bfd else None
                if session is None or not session.is_up:
                    return False
        return True

    def _initially_converged(self) -> bool:
        expected = self.spec.num_prefixes
        if not self._bfd_ready():
            return False
        for edge in self.edge_routers:
            if len(edge.bgp.loc_rib) < expected:
                return False
            if edge.fib_updater.is_busy or edge.fib_updater.queue_depth:
                return False
            if len(edge.fib) < expected:
                return False
        if self.spec.supercharged:
            for controller in self.cluster.healthy_replicas():
                if len(controller.bgp.loc_rib) < expected:
                    return False
        else:
            # Steady state means traffic is routed via the preferred provider.
            sample = (
                self.provider_feeds[0].routes[0].prefix if self.provider_feeds else None
            )
            if sample is not None:
                primary_ip = self.plan.provider_core_ip(0)
                for edge in self.edge_routers:
                    entry = edge.fib.entry(sample)
                    if entry is None or entry.adjacency.next_hop_ip != primary_ip:
                        return False
        return True

    def _all_reachable(self) -> bool:
        if self.monitor is None:
            return True
        return all(
            self.monitor.is_reachable(destination)
            for destination in self.monitored_destinations
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _select_destinations(self, count: int) -> None:
        """Pick ``count`` destinations among the advertised prefixes,
        always including the first and last prefix (as the paper does)."""
        if not self.provider_feeds:
            raise RuntimeError("load_feeds() must run before setup_monitoring()")
        prefixes = self.provider_feeds[0].prefixes()
        chosen: List[IPv4Prefix] = []
        if prefixes:
            chosen.append(prefixes[0])
        if len(prefixes) > 1:
            chosen.append(prefixes[-1])
        remaining = max(count - len(chosen), 0)
        middle = prefixes[1:-1] if len(prefixes) > 2 else []
        if middle and remaining:
            picked = self.sim.random.sample(middle, min(remaining, len(middle)))
            chosen.extend(picked)
        self.monitored_destinations = []
        self._destination_prefix = {}
        for prefix in chosen:
            destination = IPv4Address(prefix.network + 1)
            self.monitored_destinations.append(destination)
            self._destination_prefix[destination] = prefix

    def __repr__(self) -> str:
        return (
            f"ScenarioLab({self.spec.name!r}, providers={self.spec.num_providers},"
            f" edges={self.spec.num_edge_routers},"
            f" supercharged={self.spec.supercharged})"
        )


def build_scenario(
    sim: Simulator,
    spec: ScenarioSpec,
    trace_sink: Optional[IO[str]] = None,
) -> ScenarioLab:
    """Validate ``spec``, compile it and wire every device."""
    return ScenarioLab(sim, spec, trace_sink=trace_sink).build()
