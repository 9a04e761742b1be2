"""Discrete-event simulation engine used by every substrate.

The engine is deliberately small: a priority queue of timestamped events,
a simulated clock, cancellable timers and a couple of convenience helpers
(periodic processes, deterministic randomness).  All other packages —
routers, switches, BGP sessions, BFD, traffic generators — are written
against :class:`~repro.sim.engine.Simulator` so that an entire "hardware lab" can be run in
a single Python process with microsecond-exact timestamps.
"""
