#!/usr/bin/env python3
"""Fresh-subprocess worker for the dataplane benchmark.

Runs every measurement inside this single, freshly started interpreter
with gc disabled around the timed sections, then prints one JSON document
to stdout, all of it in absolute units of the live classes: the event
engine in events/s, the LPM table in ops/s and traced bytes per prefix,
the flow table in us/op at the rule counts the system can reach.  See
docs/performance.md for why measurements are done this way (heap-state
sensitivity, GC pauses) and for what the numbers are compared against
(the committed ``BENCH_dataplane.json`` of the parent, never code kept
slow on purpose).

Invoked by benchmarks/test_bench_dataplane.py and
``benchmarks/bench_trajectory.py --write-baseline`` as::

    python benchmarks/bench_dataplane_worker.py '{"events": 200000, ...}'
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
import tracemalloc

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.packets import EtherType, EthernetFrame
from repro.openflow.flow_table import Actions, FlowMatch, FlowTable
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.router.fib import LpmTable
from repro.sim.engine import Simulator

DEFAULTS = {
    #: Events in the engine schedule+dispatch measurements.
    "events": 200000,
    #: Prefixes in the LPM table measurements.
    "prefixes": 50000,
    #: Best-of repeats of every timed section.
    "repeats": 3,
    #: Flow-table operations timed per section (spread over whole-table
    #: rounds, so every size is timed over about as many operations).
    "flow_table_ops": 20000,
}

#: Rule counts the switch can hold: the campaign workloads peak at 7, a
#: 30-provider ``fan`` at 34, and the address plan tops out at 30 * 29
#: backup groups + 32 static rules.
FLOW_TABLE_SIZES = (7, 34, 902)


def best_of(repeats, fn):
    """Best-of-N CPU time of ``fn`` with gc disabled during the timing.

    CPU time (``time.process_time``) rather than wall time: these are
    single-threaded compute loops, and on shared machines wall clocks
    charge scheduler preemptions to whichever side happened to be running.
    """
    best = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        started = time.process_time()
        fn()
        elapsed = time.process_time() - started
        gc.enable()
        if best is None or elapsed < best:
            best = elapsed
    return best


def _vmac(i):
    return MacAddress(0x020000000000 + i)


def _flow_mods(count, command, port):
    return [
        FlowMod(command, FlowMatch(eth_dst=_vmac(i)), Actions(output_port=port), priority=200)
        for i in range(count)
    ]


def bench_flowmods(config):
    """Flow table install / modify / lookup cost, in us per operation.

    One exact-``eth_dst`` rule per group at one priority (the controller's
    rule shape), every rule installed, modified and hit equally often, so
    a figure is the table-wide average at that occupancy.
    """
    repeats = config["repeats"]
    results = {}
    for size in FLOW_TABLE_SIZES:
        rounds = max(1, config["flow_table_ops"] // size)
        add_mods = _flow_mods(size, FlowModCommand.ADD, port=1)
        mod_mods = _flow_mods(size, FlowModCommand.MODIFY, port=7)
        frames = [
            EthernetFrame(_vmac(size), _vmac(i), EtherType.IPV4, None) for i in range(size)
        ]
        table = FlowTable(capacity=size)

        def install():
            for _ in range(rounds):
                table.clear()
                table.apply_batch(add_mods)

        def modify():
            for _ in range(rounds):
                table.apply_batch(mod_mods)

        def lookup():
            for _ in range(rounds):
                for frame in frames:
                    table.lookup(frame, 1)

        ops = rounds * size
        results[str(size)] = {
            "rules": size,
            "ops": ops,
            "install_us_per_op": round(best_of(repeats, install) / ops * 1e6, 3),
            "modify_us_per_op": round(best_of(repeats, modify) / ops * 1e6, 3),
            "lookup_us_per_op": round(best_of(repeats, lookup) / ops * 1e6, 3),
        }
    return results


def bench_events(config):
    """Raw engine schedule+dispatch throughput, FIFO and random horizons."""
    count = config["events"]
    repeats = config["repeats"]

    def noop():
        pass

    # FIFO pattern: every event lands after the latest one queued.  Real
    # campaigns almost never do this (a hold timer parked tens of seconds
    # ahead makes every sub-second event "early"), so both patterns are
    # reported, not gated.
    fifo_delays = [i * 1e-6 for i in range(count)]
    rng = random.Random(42)
    random_delays = [rng.random() * 10.0 for _ in range(count)]
    results = {}
    for label, delays in (("fifo", fifo_delays), ("random", random_delays)):

        def singles():
            sim = Simulator()
            for delay in delays:
                sim.schedule(delay, noop)
            sim.run()

        def batch():
            sim = Simulator()
            sim.schedule_batch([(delay, noop) for delay in delays])
            sim.run()

        results[label] = {
            "events": count,
            "singles_events_per_s": round(count / best_of(repeats, singles)),
            "batch_events_per_s": round(count / best_of(repeats, batch)),
        }
    return results


def _prefix_set(count):
    """Scattered mixed-length prefixes (a RIS-like table shape)."""
    rng = random.Random(7)
    prefixes = []
    seen = set()
    while len(prefixes) < count:
        length = rng.choice((12, 14, 16, 18, 20, 22, 24, 24, 24))
        net = rng.getrandbits(32) & IPv4Prefix.mask_for(length)
        if (net, length) in seen:
            continue
        seen.add((net, length))
        prefixes.append(IPv4Prefix(IPv4Address(net), length))
    return prefixes


def _traced_bytes_per_prefix(prefixes, churn):
    """Traced heap bytes per stored prefix, freshly built and after churn.

    The stored values are the (pre-existing) prefix objects, so only the
    table's own structure is counted.  The churn replay leaves as many
    prefixes stored as it found, so the two figures are comparable.
    """
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    table = LpmTable()
    for prefix in prefixes:
        table.insert(prefix, prefix)
    built = tracemalloc.get_traced_memory()[0] - base
    churn(table)
    gc.collect()
    churned = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return round(built / len(prefixes), 1), round(churned / len(table), 1)


def bench_lpm(config):
    """LPM table insert/lookup/delete-churn throughput plus memory."""
    count = config["prefixes"]
    repeats = config["repeats"]
    prefixes = _prefix_set(count)
    rng = random.Random(11)
    addresses = [
        IPv4Address(p.network.value | rng.getrandbits(32 - p.length))
        for p in prefixes
    ]
    state = {}

    def insert():
        table = LpmTable()
        for prefix in prefixes:
            table.insert(prefix, prefix)
        state["table"] = table

    def lookup():
        table = state["table"]
        for address in addresses:
            table.lookup(address)

    insert_s = best_of(repeats, insert)
    lookup_s = best_of(repeats, lookup)

    # Rolling churn (RIS-replay shape): every round withdraws one window of
    # prefixes and announces a fresh, disjoint window.  The table stores
    # nothing but live prefixes, so its memory stays bounded.
    rounds = 4
    window = count // 4
    extra = _prefix_set(count + rounds * window)[count:]
    windows = [prefixes[: window]] + [
        extra[r * window : (r + 1) * window] for r in range(rounds)
    ]

    def churn(table):
        for r in range(rounds):
            for prefix in windows[r]:
                table.remove(prefix)
            for prefix in windows[r + 1]:
                table.insert(prefix, prefix)

    churn_ops = 2 * rounds * window
    churn_s = best_of(1, lambda: churn(state["table"]))
    state.clear()

    fresh_bytes, churned_bytes = _traced_bytes_per_prefix(prefixes, churn)

    return {
        "prefixes": count,
        "insert_ops_per_s": round(count / insert_s),
        "lookup_ops_per_s": round(count / lookup_s),
        "churn_ops": churn_ops,
        "churn_ops_per_s": round(churn_ops / churn_s),
        "bytes_per_prefix": fresh_bytes,
        "bytes_per_prefix_after_churn": churned_bytes,
        "memory_growth": round(churned_bytes / fresh_bytes, 2),
    }


def main() -> int:
    config = dict(DEFAULTS)
    if len(sys.argv) > 1:
        config.update(json.loads(sys.argv[1]))
    # Section order matters: the engine measurement runs first, on a clean
    # interpreter heap — Python timing numbers sag measurably when a large
    # workload (the 100k-prefix tables) has churned the heap in the same
    # process (see docs/performance.md).
    report = {
        "config": config,
        "python": sys.version.split()[0],
        "events": bench_events(config),
        "flowmods": bench_flowmods(config),
        "lpm": bench_lpm(config),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
