"""The SDN switch data plane.

The switch owns a set of ports wired to :class:`repro.net.links.Link`
objects, a :class:`~repro.openflow.flow_table.FlowTable`, and one or more
controller channels.  Incoming frames are matched against the table;
``output`` actions forward (after the pipeline/processing latency), and a
frame no entry matches is flooded (ARP and BGP between hosts on the
switch ride on that).

Rule installation latency — the time between a flow-mod arriving on the
channel and the entry being active in hardware — is modelled explicitly
because it is part of the supercharged convergence budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.net.links import LinkState, Port
from repro.net.packets import EthernetFrame
from repro.openflow.flow_table import FLOOD_PORT, FlowTable
from repro.openflow.messages import (
    FlowMod,
    FlowModBatch,
    PacketOut,
    PortStatus,
    PortStatusReason,
)
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # a standalone lab's switch has no controller
    from repro.openflow.controller_channel import ControllerChannel

#: Per-frame forwarding pipeline latency in seconds.
FORWARDING_LATENCY = 5e-6


class OpenFlowSwitch:
    """An OpenFlow-style switch with numbered ports.

    ``flow_mod_latency`` is the time to program one flow entry (or one
    bundle) into the hardware table.
    """

    def __init__(self, sim: Simulator, name: str, flow_mod_latency: float = 2e-3) -> None:
        self._sim = sim
        self.name = name
        self._fwd_name = f"{name}:fwd"
        self.flow_mod_latency = flow_mod_latency
        self.flow_table = FlowTable()
        self._ports: Dict[int, Port] = {}
        self._channels: List[ControllerChannel] = []
        self._flow_mod_listeners: List = []
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.flow_mods_applied = 0

    def on_flow_mod_applied(self, callback) -> None:
        """Register a callback fired after a flow-mod is programmed in hardware.

        Used by the measurement instruments to re-evaluate reachability the
        instant the switch's forwarding behaviour changes.
        """
        self._flow_mod_listeners.append(callback)

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def add_port(self, number: int) -> Port:
        """Create port ``number`` and return it for wiring to a link."""
        if number in self._ports:
            raise ValueError(f"port {number} already exists on {self.name}")
        port = Port(self.name, number)
        port.set_frame_handler(self._handle_frame)
        port.set_state_handler(self._handle_link_state)
        self._ports[number] = port
        return port

    def ports(self) -> Dict[int, Port]:
        """All ports by number."""
        return dict(self._ports)

    # ------------------------------------------------------------------
    # Controller channels
    # ------------------------------------------------------------------
    def attach_controller(self, channel: ControllerChannel) -> None:
        """Connect a controller channel; flow-mods and packet-outs from it
        are applied, port-status events are sent to it."""
        channel.connect_switch(self._handle_controller_message)
        self._channels.append(channel)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: EthernetFrame, port: Port) -> None:
        entry = self.flow_table.lookup(frame, port.number)
        if entry is None:
            self._forward(frame, FLOOD_PORT, in_port=port.number)
            return
        actions = entry.actions
        if actions.is_drop:
            self.frames_dropped += 1
            return
        self._forward(actions.apply(frame), actions.output_port, in_port=port.number)

    def _forward(self, frame: EthernetFrame, out_port: int, in_port: int) -> None:
        def transmit() -> None:
            if out_port == FLOOD_PORT:
                for number, port in self._ports.items():
                    if number != in_port and port.is_up:
                        port.send(frame)
                self.frames_forwarded += 1
                return
            port = self._ports.get(out_port)
            if port is None or not port.is_up:
                self.frames_dropped += 1
                return
            port.send(frame)
            self.frames_forwarded += 1

        self._sim.schedule(FORWARDING_LATENCY, transmit, name=self._fwd_name)

    # ------------------------------------------------------------------
    # Controller plane
    # ------------------------------------------------------------------
    def _handle_controller_message(self, message: object) -> None:
        if isinstance(message, FlowMod):
            self._program((message,), f"{self.name}:flow-mod")
        elif isinstance(message, FlowModBatch):
            self._program(message.mods, f"{self.name}:flow-mod-batch")
        elif isinstance(message, PacketOut):
            self._forward(message.frame, message.out_port, in_port=-1)

    def _program(self, mods: Tuple[FlowMod, ...], name: str) -> None:
        """Program a lone flow-mod or a whole bundle after one flow-mod latency.

        The mods go through :meth:`FlowTable.apply_batch` in order, in one
        table transaction, then the flow-mod listeners fire once per mod
        (in bundle order).  ``flow_mods_applied`` counts what the table
        accepted: a TCAM overflow raises out of the event before the
        counter moves or a listener hears of the rejected mod (mods of the
        same bundle applied before it stay applied).
        """

        def program() -> None:
            self.flow_mods_applied += self.flow_table.apply_batch(mods, now=self._sim.now)
            listeners = list(self._flow_mod_listeners)
            for flow_mod in mods:
                for callback in listeners:
                    callback(flow_mod)

        self._sim.schedule(self.flow_mod_latency, program, name=name)

    # ------------------------------------------------------------------
    # Port status
    # ------------------------------------------------------------------
    def _handle_link_state(self, state: LinkState, port: Port) -> None:
        reason = (
            PortStatusReason.LINK_DOWN if state is LinkState.DOWN else PortStatusReason.LINK_UP
        )
        status = PortStatus(port=port.number, reason=reason)
        for channel in self._channels:
            channel.send_port_status(status)

    def __repr__(self) -> str:
        return f"OpenFlowSwitch({self.name}, ports={len(self._ports)}, flows={len(self.flow_table)})"
