"""BFD substrate (RFC 5880 asynchronous mode, simulated).

The paper uses FreeBFD to detect peer failure quickly; detection latency
(transmit interval × detect multiplier) is the first component of the
supercharged router's ~150 ms convergence budget, so the session state
machine and its timing are reproduced faithfully.
"""
