"""OpenFlow-style SDN switch substrate.

Models the HP E3800 used in the paper: a hardware flow table matched on
L2 fields (destination MAC, in-port, EtherType), set-field / output
actions, and a controller channel carrying flow-mods, packet-ins,
packet-outs and port-status notifications.  Rule installation has a
configurable latency — the switch-side component of the supercharged
convergence time.
"""
