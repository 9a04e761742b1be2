"""Sanctioned host-environment configuration access.

A scenario's behaviour must be a function of its spec and seed alone —
that is the determinism contract the linter's DET005 rule enforces by
banning ``os.environ`` reads everywhere else in ``src/repro``.  The
legitimate environment knobs (the ``REPRO_FULL_SCALE`` opt-in) are read
*here*, at experiment-setup time, and surfaced to callers as
explicit values; nothing in a running simulation may consult them.

Keeping every read in one module makes the environment surface
greppable and reviewable: a new knob is a new accessor call here, not a
stray ``os.environ.get`` somewhere in a sim path.
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "pool_start_method"]

#: Spellings accepted as "on" (case-insensitive).
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean opt-in knob: ``1``/``true``/``yes``/``on`` enable it."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


def pool_start_method() -> str:
    """Worker-pool start method for this host: prefer fork (inherits
    sys.path; cheap), fall back to spawn."""
    # Imported here: only a pooled run needs it, and every rep of every
    # campaign imports this module.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"
