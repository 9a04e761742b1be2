"""Switch-side provisioning of backup-group rules.

For every backup group the provisioner maintains one rule on the SDN
switch:

    match(eth_dst = group VMAC) →
        set_field(eth_dst = <active next hop's real MAC>), output(<port>)

By default the active next hop is the group's primary; the data-plane
convergence procedure (Listing 2) flips it to the backup.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.backup_groups import BackupGroup
from repro.core.rest_api import FloodlightRestApi, StaticFlowEntry
from repro.net.addresses import IPv4Address, MacAddress

#: Priority of every group rule: above the testbed's static per-MAC rules.
GROUP_RULE_PRIORITY = 200
#: Fixed bucket edges of the flow-mods-per-batch histogram.
BATCH_SIZE_EDGES = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0, 1_000.0)


class NextHopLocation(NamedTuple):
    """Where a (real) next hop lives: its MAC and the switch port behind it."""

    mac: MacAddress
    switch_port: int


class FlowProvisioner:
    """Keeps the switch's VMAC rewrite rules in sync with the backup groups."""

    def __init__(
        self,
        rest_api: FloodlightRestApi,
        locate: Callable[[IPv4Address], Optional[NextHopLocation]],
    ) -> None:
        """``locate`` resolves a peer IP to its :class:`NextHopLocation`."""
        self._rest = rest_api
        self._locate = locate
        #: Group VMAC -> next hop currently programmed for that group.
        self._active_next_hop: Dict[MacAddress, IPv4Address] = {}
        self.rules_pushed = 0
        #: REST round trips issued (each carries >= 1 flow-mod).
        self.batches_pushed = 0
        #: Flow-mods that travelled inside those round trips.  Every push
        #: is a batch, so this equals ``rules_pushed``; campaign records
        #: export both.
        self.rules_pushed_batched = 0
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Enable provisioning telemetry: REST round-trip counters and a
        flow-mods-per-batch histogram."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def provision_group(self, group: BackupGroup) -> bool:
        """Install (or refresh) the rule for ``group`` pointing at its primary."""
        return self.redirect_groups([(group, group.primary)])[0]

    def redirect_group(self, group: BackupGroup, next_hop: IPv4Address) -> bool:
        """Point ``group`` at an arbitrary next hop (Listing 2 uses the backup)."""
        return self.redirect_groups([(group, next_hop)])[0]

    def provision_groups(self, groups: Sequence[BackupGroup]) -> List[bool]:
        """Install the rules of many groups through one batched REST call."""
        return self.redirect_groups([(group, group.primary) for group in groups])

    def redirect_groups(
        self, redirections: Sequence[Tuple[BackupGroup, IPv4Address]]
    ) -> List[bool]:
        """Point each group at the given next hop: the one provisioning path.

        All rules that actually need rewriting go to the switch in one
        :meth:`FloodlightRestApi.push_batch` call (a bundle, or a bare
        flow-mod when there is exactly one), so a backup-group failover
        costs one REST round trip no matter how many groups the failed
        peer was primary for.  Returns one success flag per ``(group,
        next_hop)`` pair: an unknown next hop fails, an already-programmed
        one is a no-op success.
        """
        results: List[bool] = []
        entries: List[StaticFlowEntry] = []
        for group, next_hop in redirections:
            location = self._locate(next_hop)
            if location is None:
                results.append(False)
                continue
            if self._active_next_hop.get(group.vmac) == next_hop:
                results.append(True)  # already programmed; no rule needed
                continue
            entries.append(
                StaticFlowEntry(
                    name=self._rule_name(group),
                    eth_dst=group.vmac,
                    set_eth_dst=location.mac,
                    output_port=location.switch_port,
                    priority=GROUP_RULE_PRIORITY,
                )
            )
            # Record intent immediately so a later pair for the same group
            # in this batch dedups correctly.
            self._active_next_hop[group.vmac] = next_hop
            results.append(True)
        if entries:
            self._rest.push_batch(entries)
            self.rules_pushed += len(entries)
            self.rules_pushed_batched += len(entries)
            self.batches_pushed += 1
            if self._telemetry is not None:
                self._telemetry.counter("provisioner.rest_calls").inc()
                self._telemetry.counter("provisioner.batches").inc()
                self._telemetry.counter("provisioner.rules").inc(len(entries))
                self._telemetry.histogram(
                    "provisioner.flow_mods_per_batch", BATCH_SIZE_EDGES
                ).observe(float(len(entries)))
                # Push-leg provenance: the flow-mod bundle leaving for the
                # switch (the ambient outage id is stamped by the bus).
                self._telemetry.emit(
                    "provisioner.push", rules=len(entries), batched=True
                )
        return results

    #: The name the remote-repoint engine calls (benchmarks/e2e hands it a
    #: stand-in provisioner with only this method; see ROADMAP 1(b)).
    point_groups = redirect_groups

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_next_hop(self, group: BackupGroup) -> Optional[IPv4Address]:
        """The next hop the switch currently rewrites this group's VMAC to."""
        return self._active_next_hop.get(group.vmac)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _rule_name(group: BackupGroup) -> str:
        return f"backup-group-{group.vmac}"
