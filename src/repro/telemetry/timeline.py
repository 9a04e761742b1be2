"""The paper's convergence decomposition: the four stage names.

The paper decomposes convergence into four stages —

    detect  → the failure detector (BFD) or BGP propagation notices
    decide  → the controller (or the router's own decision process)
              selects the new forwarding state
    push    → the flow-mod / route update reaches the forwarding element
    install → the forwarding element has applied the new state

The scenario lab maps trace-bus event names onto these stages (a
mode-specific ``event name → stage`` mapping) and the causal ledger
(:class:`repro.telemetry.causal.ConvergenceLedger`) keeps the *first*
instant each stage was observed per outage; the campaign record exports
one millisecond offset per stage.
"""

from __future__ import annotations

#: Canonical stage names, in pipeline order.
STAGE_DETECT = "detect"
STAGE_DECIDE = "decide"
STAGE_PUSH = "push"
STAGE_INSTALL = "install"
STAGES = (STAGE_DETECT, STAGE_DECIDE, STAGE_PUSH, STAGE_INSTALL)
