"""The supercharged controller — the paper's primary contribution.

The controller interposes between a legacy router and its BGP peers and
builds a hierarchical forwarding table *across* the router and an SDN
switch:

1. :mod:`repro.core.backup_groups` computes, for every prefix, the
   (primary next hop, backup next hop) **backup group** using the online
   algorithm of the paper's Listing 1.
2. :mod:`repro.core.vnh_allocator` assigns each backup group a virtual
   next hop (VNH) and virtual MAC (VMAC); announcements relayed to the
   router carry the VNH as their BGP next hop.
3. the controller registers each VNH → VMAC binding in its host ARP
   responder (:class:`repro.arp.protocol.ArpHandler`), so the router's
   ARP queries for VNHs are answered with the group's VMAC, completing
   the router-side provisioning.
4. :mod:`repro.core.flow_provisioner` installs the switch rules that
   rewrite each VMAC to the primary next hop's real MAC and port.
5. :mod:`repro.core.convergence` implements Listing 2: upon a peer
   failure (detected by BFD), only the per-group switch rules are
   rewritten to the backup next hop — prefix-independent convergence.
6. :mod:`repro.core.controller` ties everything together into a network
   node, and :mod:`repro.core.reliability` runs redundant controller
   replicas without state synchronisation.
"""
