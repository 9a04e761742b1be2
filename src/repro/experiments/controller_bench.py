"""Controller update-processing micro-benchmark (§4, last paragraph).

The paper feeds its Python BGP controller 2 × 500 k updates from two
different peers and reports the per-update processing time (worst case
0.8 s, 99th percentile 125 ms on their hardware).  This harness measures
the same quantity on our implementation, on the live path: every UPDATE is
handed — as a train of one, so a sample is one UPDATE like the paper's — to
the :meth:`~repro.bgp.speaker.BgpSpeaker.process_update` of a real
:class:`~repro.core.controller.SuperchargedController`, whose own Loc-RIB
listener runs Listing 1 and relays the rewritten route to the router.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple

from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage
from repro.core.controller import ControllerConfig, PeerSpec, SuperchargedController
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Link, Port
from repro.openflow.controller_channel import ControllerChannel
from repro.routes.prefix_gen import PrefixGenerator
from repro.routes.ris_feed import synthetic_full_table
from repro.sim.engine import Simulator
from repro.stats import BoxStats, percentile

#: Paper-reported processing-time figures (seconds) for comparison.
PAPER_P99_S = 0.125
PAPER_WORST_S = 0.8

_CONTROLLER_IP = IPv4Address("10.0.0.100")
_ROUTER_IP = IPv4Address("10.0.0.1")
_ROUTER_ASN = 65000
#: Latency of the stub link the relayed routes leave on; the clock
#: advances two of them per sample, so every UPDATE leaves on its own.
_WIRE_LATENCY = 1e-6
#: The two peers feeding the controller (the paper's 2 x 500k updates).
_PEER_IPS = (IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3"))


class MicrobenchResult(NamedTuple):
    """Per-update processing-time distribution."""

    updates_processed: int
    stats: BoxStats
    announcements_to_router: int
    groups_created: int
    #: Every per-update processing time, in seconds.
    samples: List[float]

    @property
    def p99(self) -> float:
        """99th percentile processing time in seconds."""
        return self.samples_percentile(0.99)

    def samples_percentile(self, fraction: float) -> float:
        """Percentile over the recorded samples."""
        return percentile(self.samples, fraction) if self.samples else 0.0


class ControllerMicrobench:
    """Feeds N updates per peer through the controller processing pipeline."""

    def __init__(self, updates_per_peer: int = 10_000, seed: int = 1) -> None:
        self.updates_per_peer = updates_per_peer
        self.seed = seed

    def build_workload(self) -> List[List[UpdateMessage]]:
        """One UPDATE stream per peer, same prefixes, peer-specific paths."""
        prefixes = PrefixGenerator(seed=self.seed).generate(self.updates_per_peer)
        streams = []
        for index, peer_ip in enumerate(_PEER_IPS):
            feed = synthetic_full_table(
                self.updates_per_peer,
                seed=self.seed + index,
                provider_asn=65001 + index,
                prefixes=prefixes,
            )
            streams.append(feed.updates(peer_ip))
        return streams

    def build_controller(self, sim: Simulator) -> SuperchargedController:
        """A started controller with every session established: the peers
        (the first preferred) and the router it relays to, behind a stub
        link that swallows what it sends."""
        peers = [
            PeerSpec(ip=ip, asn=65001 + index, switch_port=2 + index,
                     mac=MacAddress(2 + index), local_pref=200 if index == 0 else 100)
            for index, ip in enumerate(_PEER_IPS)
        ]
        controller = SuperchargedController(sim, "microbench", ControllerConfig(
            ip=_CONTROLLER_IP, mac=MacAddress(0x64), subnet=IPv4Prefix("10.0.0.0/24"),
            asn=64512, router_id=_CONTROLLER_IP, router_ip=_ROUTER_IP,
            router_asn=_ROUTER_ASN, peers=peers,
        ))
        controller.add_static_neighbor(_ROUTER_IP, MacAddress(1))
        Link(sim, Port("stub", 0), controller.port, latency=_WIRE_LATENCY)
        controller.attach_switch(ControllerChannel(sim))
        controller.start()
        sim.run_for(0.02)  # the connect delay: the controller's OPENs are out
        for ip, asn in [(peer.ip, peer.asn) for peer in peers] + [(_ROUTER_IP, _ROUTER_ASN)]:
            controller.bgp.deliver(ip, OpenMessage(asn=asn, router_id=ip))
            controller.bgp.deliver(ip, KeepaliveMessage())
        return controller

    def run(self) -> MicrobenchResult:
        """Process every update and record its wall-clock processing time."""
        sim = Simulator(seed=self.seed)
        controller = self.build_controller(sim)
        process_update = controller.bgp.process_update
        samples: List[float] = []
        for peer_ip, stream in zip(_PEER_IPS, self.build_workload()):
            for update in stream:
                # This experiment *is* a wall-clock microbench (paper §4:
                # per-update controller processing time); its output is a
                # printed report, never a byte-stable campaign export.
                started = time.perf_counter()
                process_update(peer_ip, update)
                samples.append(time.perf_counter() - started)
                sim.run_for(2 * _WIRE_LATENCY)
        return MicrobenchResult(
            updates_processed=len(samples),
            stats=BoxStats.from_samples(samples),
            announcements_to_router=controller.updates_relayed,
            groups_created=controller.group_count(),
            samples=samples,
        )

    def report(self, result: MicrobenchResult) -> str:
        """Short text report including the paper's reference numbers."""
        lines = [
            f"updates processed          : {result.updates_processed}",
            f"groups created             : {result.groups_created}",
            f"announcements to router    : {result.announcements_to_router}",
            f"median processing time     : {result.stats.median * 1e6:.1f} us",
            f"p99 processing time        : {result.p99 * 1e6:.1f} us"
            f"  (paper: {PAPER_P99_S * 1e3:.0f} ms)",
            f"worst-case processing time : {result.stats.maximum * 1e3:.3f} ms"
            f"  (paper: {PAPER_WORST_S * 1e3:.0f} ms)",
        ]
        return "\n".join(lines)
