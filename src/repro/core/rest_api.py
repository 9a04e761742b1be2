"""Floodlight-style static flow pusher facade.

The paper's ExaBGP extension pushes rewrite rules through Floodlight's
REST API.  :class:`FloodlightRestApi` reproduces that interface shape — a
dictionary-based static flow pusher — on top of the simulated controller
channel, including a configurable per-call latency standing in for the
HTTP round trip.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.net.addresses import MacAddress
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import Actions, FlowMatch
from repro.openflow.messages import FlowMod, FlowModBatch, FlowModCommand
from repro.sim.engine import Simulator


class StaticFlowEntry(NamedTuple):
    """A named static flow, mirroring Floodlight's staticflowpusher JSON."""

    name: str
    eth_dst: MacAddress
    set_eth_dst: Optional[MacAddress]
    output_port: int
    priority: int = 100

    def to_flow_mod(self, command: FlowModCommand) -> FlowMod:
        """Convert to the wire-level flow-mod."""
        return FlowMod(
            command=command,
            match=FlowMatch(eth_dst=self.eth_dst),
            actions=Actions(set_eth_dst=self.set_eth_dst, output_port=self.output_port),
            priority=self.priority,
        )


class FloodlightRestApi:
    """Static flow pusher: named entries pushed/updated over REST."""

    def __init__(
        self, sim: Simulator, channel: ControllerChannel, call_latency: float = 2e-3
    ) -> None:
        if call_latency < 0:
            raise ValueError(f"call_latency must be non-negative, got {call_latency}")
        self._sim = sim
        self._channel = channel
        self.call_latency = call_latency
        self._entries: Dict[str, StaticFlowEntry] = {}
        self.calls = 0

    # ------------------------------------------------------------------
    # REST-ish operations
    # ------------------------------------------------------------------
    def push(self, entry: StaticFlowEntry) -> None:
        """POST a static flow: adds the rule, or modifies it if the name exists."""
        self.push_batch([entry])

    def push_batch(self, entries: Sequence[StaticFlowEntry]) -> None:
        """POST many static flows in one REST round trip.

        Mirrors Floodlight's ``/json/store`` batch endpoint: one HTTP call
        (one ``call_latency``), one flow-mod bundle on the OpenFlow
        channel, one table transaction on the switch.  A lone entry
        travels as a bare flow-mod (``rest:flow-push``), not as a bundle
        of one.
        """
        if not entries:
            return
        self.calls += 1
        mods = []
        for entry in entries:
            command = (
                FlowModCommand.MODIFY if entry.name in self._entries else FlowModCommand.ADD
            )
            self._entries[entry.name] = entry
            mods.append(entry.to_flow_mod(command))
        if len(mods) == 1:
            self._dispatch(mods[0])
            return
        batch = FlowModBatch(mods=tuple(mods))
        self._sim.schedule(
            self.call_latency,
            lambda: self._channel.send_flow_mod_batch(batch),
            name="rest:flow-push-batch",
        )

    def list(self) -> List[StaticFlowEntry]:
        """GET all static flows known to the pusher."""
        return list(self._entries.values())

    def get(self, name: str) -> Optional[StaticFlowEntry]:
        """GET one static flow by name."""
        return self._entries.get(name)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(self, flow_mod: FlowMod) -> None:
        self._sim.schedule(
            self.call_latency,
            lambda: self._channel.send_flow_mod(flow_mod),
            name="rest:flow-push",
        )
