"""Legacy IP router substrate.

Models the Cisco Nexus 7k of the paper's testbed at the level of detail
that matters for convergence behaviour:

* a longest-prefix-match FIB — **flat** by default (each prefix carries its
  own L2 adjacency) or **hierarchical** (PIC-style shared pointers) for the
  ablation baseline;
* a serial FIB update engine with a configurable first-entry latency and
  per-entry latency, reproducing the linear-in-prefixes convergence of the
  paper's Figure 5;
* a router node — a :class:`~repro.net.host.Host`, whose ARP client
  resolves next hops (including the controller's virtual next hops) to
  MAC addresses — tying a BGP speaker, optional BFD, the FIB and the data
  plane together.
"""
