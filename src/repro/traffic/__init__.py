"""Traffic generation and convergence measurement.

The paper measures convergence with a pair of FPGA boards: a *source*
streaming 64-byte UDP packets towards 100 destination IPs through the
router under test, and a *sink* recording the maximum inter-packet delay
seen by each flow (precision ~70 µs).  This package provides two
equivalent instruments:

* :class:`~repro.traffic.generator.TrafficSource` /
  :class:`~repro.traffic.monitor.TrafficSink` — an actual packet-level
  reproduction of the FPGA methodology, usable at small scale and in the
  examples/tests;
* :class:`~repro.traffic.reachability.ReachabilityMonitor` +
  :class:`~repro.traffic.reachability.PathTracer` — an event-driven
  instrument that computes the exact outage interval of every monitored
  destination by re-evaluating the forwarding path whenever a relevant
  piece of forwarding state changes.  In simulation this is *more* precise
  than the FPGA (exact timestamps instead of 70 µs granularity) and scales
  to full-table experiments where per-packet simulation is impractical.

Both instruments report the same metric — per-destination data-plane
outage after a failure — and the test suite checks they agree on small
scenarios.
"""
