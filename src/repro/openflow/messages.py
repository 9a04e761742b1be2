"""Controller ↔ switch protocol messages (OpenFlow subset)."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple

from repro.net.packets import EthernetFrame
from repro.openflow.flow_table import Actions, FlowMatch


class FlowModCommand(enum.Enum):
    """Flow-mod commands (OFPFC_*)."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


class FlowMod(NamedTuple):
    """Install, modify or delete a flow entry."""

    command: FlowModCommand
    match: FlowMatch
    actions: Optional[Actions] = None
    priority: int = 100


class FlowModBatch(NamedTuple):
    """A bundle of flow-mods committed as one unit (OpenFlow bundles).

    The switch programs the whole bundle after a single flow-mod latency
    and applies it through
    :meth:`~repro.openflow.flow_table.FlowTable.apply_batch`, so repointing
    N backup-group rules costs one table transaction instead of N.
    """

    mods: Tuple[FlowMod, ...]

    def __len__(self) -> int:
        return len(self.mods)


class PacketIn(NamedTuple):
    """Frame punted from the switch to the controller."""

    frame: EthernetFrame
    in_port: int
    reason: str = "action"


class PacketOut(NamedTuple):
    """Frame injected by the controller into the switch data plane."""

    frame: EthernetFrame
    out_port: int


class PortStatusReason(enum.Enum):
    """Why a port-status notification was generated."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"


class PortStatus(NamedTuple):
    """Asynchronous notification of a port state change."""

    port: int
    reason: PortStatusReason
