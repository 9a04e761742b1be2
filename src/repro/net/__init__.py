"""Network substrate: addresses, frames, ports, links and interfaces.

This package models just enough of Ethernet/IPv4 to reproduce the paper's
data plane: Ethernet frames carrying ARP, IPv4/UDP test traffic, BFD
control packets and (abstracted) BGP transport messages, plus point-to-point
links with configurable propagation latency, and the endpoint built from
them, :class:`repro.net.host.Host`.  Like every substrate package this one
re-exports nothing: import a name from the module that defines it.
"""
