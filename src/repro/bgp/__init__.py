"""BGP substrate.

A from-scratch implementation of the parts of BGP-4 the supercharged
controller relies on: message types, path attributes, the Loc-RIB (the
one store of learned routes) and per-peer Adj-RIB-Out, the full best-path
decision process, a session finite-state machine and a speaker that ties
everything together; per-peer policy is two fields of ``PeerConfig``
(``local_pref``, ``advertise``).  The controller of :mod:`repro.core` embeds a
speaker exactly like ExaBGP was embedded in the paper's prototype.
"""
