#!/usr/bin/env python3
"""Telemetry-cost worker (fresh-subprocess, JSON-in/JSON-out).

Measures the two instrumented hot paths — the serial FIB updater drain
loop and the OpenFlow channel delivery path — in three modes, interleaved,
inside one interpreter with gc disabled in the timed sections:

* ``detached`` — telemetry never attached (the default: every instrument
  site is one attribute load + ``is not None``);
* ``attached`` — a full :class:`Telemetry` context attached (trace ring
  buffer + metrics registry);
* ``causal``   — like ``attached`` but with an outage context open, so the
  ambient outage stamping and the episode book's per-prefix restorations
  are both on the hot path.

The report carries the min-of-repeats cost per mode in absolute units
(us per FIB entry, us per channel batch) — reported, never asserted; that
the detached path runs no telemetry code at all is an exact test
(tests/test_telemetry.py, docs/observability.md).  Determinism
cross-checks (writes applied, messages delivered, final sim time) ride
along so a timing run doubles as a correctness check.

Usage: ``bench_telemetry_worker.py '<json config>'`` — see
benchmarks/test_bench_telemetry.py for the config keys.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from repro.net.addresses import IPv4Prefix, MacAddress
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import Actions, FlowMatch
from repro.openflow.messages import FlowMod, FlowModBatch, FlowModCommand
from repro.router.fib import Adjacency, FlatFib
from repro.router.fib_updater import FibUpdater, FibUpdaterConfig, FibWriteRequest
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry

#: Fast hardware so the drain loop, not the latency model, dominates.
FAST_FIB = dict(first_entry_latency=1e-6, per_entry_latency=1e-7)


def _requests(entries: int):
    adjacency = Adjacency(mac=MacAddress("00:00:00:00:00:01"), interface="eth0")
    return [
        FibWriteRequest(
            prefix=IPv4Prefix(f"10.{(i >> 8) & 255}.{i & 255}.0/24"), adjacency=adjacency
        )
        for i in range(entries)
    ]


def _run_fib(entries: int, telemetry=None):
    sim = Simulator(seed=1)
    fib = FlatFib()
    updater = FibUpdater(sim, fib, config=FibUpdaterConfig(**FAST_FIB))
    if telemetry is not None:
        updater.attach_telemetry(telemetry)
    requests = _requests(entries)
    gc.disable()
    started = time.perf_counter()
    updater.enqueue_many(requests)
    sim.run()
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed, {"writes": updater.writes_applied, "sim_now": round(sim.now, 9)}


def _run_channel(batches: int, mods_per_batch: int, telemetry=None):
    sim = Simulator(seed=1)
    channel = ControllerChannel(sim, latency=1e-6)
    if telemetry is not None:
        channel.attach_telemetry(telemetry)
    delivered = [0]

    def on_message(message) -> None:
        delivered[0] += len(message)

    channel.connect_switch(on_message)
    batch = FlowModBatch(
        mods=tuple(
            FlowMod(
                command=FlowModCommand.ADD,
                match=FlowMatch(eth_dst=MacAddress(i + 1)),
                actions=Actions(output_port=1),
            )
            for i in range(mods_per_batch)
        )
    )
    gc.disable()
    started = time.perf_counter()
    for _ in range(batches):
        channel.send_flow_mod_batch(batch)
    sim.run()
    elapsed = time.perf_counter() - started
    gc.enable()
    return elapsed, {"delivered": delivered[0], "sim_now": round(sim.now, 9)}


MODES = ("detached", "attached", "causal")


def _telemetry(mode: str):
    if mode == "detached":
        return None
    # A throwaway clock is fine: the bench never reads recorded values,
    # it only pays their recording cost.
    telemetry = Telemetry(clock=lambda: 0.0)
    if mode == "causal":
        telemetry.causal.open_outage(0.0, kind="bench")
    return telemetry


def _measure(run, repeats: int, operations: int):
    """Min-of-``repeats`` us per operation for the three modes, interleaved
    so thermal / scheduler drift hits every mode equally."""
    times = {mode: [] for mode in MODES}
    checks = {}
    for _ in range(repeats):
        for mode in MODES:
            elapsed, checks[mode] = run(telemetry=_telemetry(mode))
            times[mode].append(elapsed)
    best = {mode: round(min(values) / operations * 1e6, 4) for mode, values in times.items()}
    return best, checks


def main() -> None:
    config = json.loads(sys.argv[1]) if len(sys.argv) > 1 else {}
    entries = int(config.get("fib_entries", 20000))
    batches = int(config.get("channel_batches", 5000))
    mods_per_batch = int(config.get("mods_per_batch", 8))
    repeats = int(config.get("repeats", 3))

    fib_us, fib_checks = _measure(
        lambda telemetry: _run_fib(entries, telemetry), repeats, entries
    )
    channel_us, channel_checks = _measure(
        lambda telemetry: _run_channel(batches, mods_per_batch, telemetry), repeats, batches
    )
    report = {
        "config": {
            "fib_entries": entries,
            "channel_batches": batches,
            "mods_per_batch": mods_per_batch,
            "repeats": repeats,
        },
        "fib": {"us_per_entry": fib_us, "checks": fib_checks},
        "channel": {"us_per_batch": channel_us, "checks": channel_checks},
    }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
