#!/usr/bin/env python3
"""Fresh-subprocess worker: full-DFZ-scale remote failover, int-coded path.

The existing ``bench_remote_worker.py`` proves the O(#groups) claim on
*simulated* clocks with full scenario labs — honest, but bounded to a few
thousand prefixes because every route is an object.  This worker measures
the **int-coded scale pipeline** (``CompactPeerRib`` + ``load_code`` /
``defer_code`` + the real ``RemoteRepointEngine``) at 10k/100k prefixes
(1M when the test passes ``one_million``), reporting **CPU seconds and
peak RSS**, and compares against the per-prefix object path
(``LocRib.withdraw`` + ``BackupGroupManager.process_change``) — the exact
code a non-supercharged controller runs per withdrawn prefix.

Methodology matches ``bench_dataplane_worker.py``: fresh interpreter (the
test spawns us), GC disabled around measured regions, ``process_time``
clocks, and the object baseline is size-capped (``perprefix_cap``) then
extrapolated linearly — conservative, because the object path's real cost
curve bends *upwards* with heap pressure, so reported speedups are lower
bounds.

Usage::

    python benchmarks/bench_scale_worker.py '{"sizes": [10000], "backups": 8}'
"""

from __future__ import annotations

import gc
import json
import sys
import time

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.rib import CompactPeerRib, LocRib, Route, RouteSource
from repro.core.backup_groups import BackupGroupManager
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes.prefix_gen import PrefixGenerator
from repro.sim.engine import Simulator
from repro.supercharge.engine import RemoteRepointEngine
from repro.supercharge.planner import RemoteGroupPlanner
from repro.supercharge.sharding import (
    peak_rss_mb,
    run_sharded_build,
    shard_vnh_pool,
)

DEFAULTS = {
    "sizes": [10_000, 100_000],
    "backups": 8,
    "seed": 7,
    # Object-path cap: beyond this the baseline is extrapolated linearly
    # (a conservative lower bound on the true cost).
    "perprefix_cap": 20_000,
    # Sharded-build demonstration at the largest size (0 disables).
    "shards": 4,
    "shard_workers": 2,
}

PRIMARY = "9.0.0.1"


def _peer_ips(backups: int):
    return (PRIMARY,) + tuple(f"9.0.1.{i}" for i in range(1, backups + 1))


def bench_grouped(size: int, backups: int, seed: int) -> dict:
    """Build the int-coded table, then absorb a primary-peer loss through
    the real repoint engine; returns CPU splits and failover counters."""
    peers = [IPv4Address(ip) for ip in _peer_ips(backups)]
    rib = CompactPeerRib()
    for peer in peers:
        rib.add_peer(peer)
    planner = RemoteGroupPlanner(VnhAllocator(shard_vnh_pool("10.200.0.0/16", 0, 1)))

    gc.disable()
    try:
        started = time.process_time()
        for index, code in enumerate(PrefixGenerator(seed).stream_codes(size)):
            backup = 1 + index % backups
            rib.load(code, 0)
            rib.load(code, backup)
            planner.load_code(code, (peers[0], peers[backup]))
        build_cpu = time.process_time() - started

        sim = Simulator(seed=seed)
        outcomes = []

        class _Provisioner:
            rules_pushed = 0

            def point_groups(self, repoints):
                _Provisioner.rules_pushed += len(repoints)
                return [True] * len(repoints)

        dead = peers[0]
        engine = RemoteRepointEngine(
            sim,
            planner,
            _Provisioner(),
            peer_alive=lambda hop: hop != dead,
            apply_actions=outcomes.extend,
        )
        started = time.process_time()
        for code, new_ranking in rib.iter_withdraw_peer(0):
            planner.defer_code(code, new_ranking)
        engine.absorb_deferred()
        sim.run_for(engine.holddown * 2)
        absorb_cpu = time.process_time() - started
    finally:
        gc.enable()

    return {
        "num_prefixes": size,
        "build_cpu_s": round(build_cpu, 4),
        "absorb_cpu_s": round(absorb_cpu, 4),
        "groups": len(planner.groups()),
        "flow_mods": engine.flow_mods,
        "prefixes_covered": engine.prefixes_covered,
        "fallback_prefixes": engine.fallback_prefixes,
        "rib_routes": rib.route_count,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def bench_perprefix(size: int, cap: int, backups: int, seed: int) -> dict:
    """The object path a plain controller runs for the same failover:
    per-prefix ``LocRib.withdraw`` + ``process_change``, then the
    controller's ``_provision`` consumption of each action
    (best path of the change, NEXT_HOP rewrite, one ``UpdateMessage`` per
    prefix towards the router) — per-prefix router messages being
    precisely the cost the paper's grouped failover avoids.  Measured on
    ``min(size, cap)`` prefixes and extrapolated linearly."""
    measured = min(size, cap)
    peers = [IPv4Address(ip) for ip in _peer_ips(backups)]
    loc_rib = LocRib()
    manager = BackupGroupManager(VnhAllocator(IPv4Prefix("10.201.0.0/24")))

    def _route(prefix, peer, local_pref):
        return Route(
            prefix=prefix,
            attributes=PathAttributes(
                next_hop=peer, as_path=AsPath((65001,)), local_pref=local_pref
            ),
            source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
        )

    prefixes = PrefixGenerator(seed).generate(measured)
    for index, prefix in enumerate(prefixes):
        backup = peers[1 + index % backups]
        manager.process_change(loc_rib.update(_route(prefix, peers[0], 200)))
        manager.process_change(loc_rib.update(_route(prefix, backup, 100)))

    gc.disable()
    try:
        started = time.process_time()
        actions = 0
        router_messages = 0
        for prefix in prefixes:
            change = loc_rib.withdraw(prefix, peers[0])
            for action in manager.process_change(change):
                actions += 1
                if action.next_hop is None:
                    continue
                # SuperchargedController._provision: the per-prefix path
                # ends in one UPDATE per prefix.
                best = change.new_best
                if best is None:
                    continue
                attributes = best.attributes.with_next_hop(action.next_hop)
                UpdateMessage.announce(action.prefix, attributes)
                router_messages += 1
        cpu = time.process_time() - started
    finally:
        gc.enable()

    return {
        "num_prefixes": size,
        "measured_prefixes": measured,
        "extrapolated": measured < size,
        "withdraw_cpu_s": round(cpu, 4),
        "withdraw_cpu_s_at_size": round(cpu * (size / measured), 4),
        "actions": actions,
        "router_messages": router_messages,
    }


def run(config: dict) -> dict:
    merged = dict(DEFAULTS)
    merged.update(config)
    sizes = sorted(merged["sizes"])
    if merged.get("one_million"):
        sizes.append(1_000_000)
    backups = merged["backups"]
    seed = merged["seed"]

    rows = []
    for size in sizes:
        grouped = bench_grouped(size, backups, seed)
        baseline = bench_perprefix(size, merged["perprefix_cap"], backups, seed)
        speedup = (
            baseline["withdraw_cpu_s_at_size"] / grouped["absorb_cpu_s"]
            if grouped["absorb_cpu_s"] > 0
            else float("inf")
        )
        rows.append(
            {
                "grouped": grouped,
                "perprefix": baseline,
                "absorb_speedup": round(speedup, 2),
            }
        )

    sharded = None
    if merged["shards"] > 1:
        largest = sizes[-1]
        report = run_sharded_build(
            peers=_peer_ips(backups),
            prefix_count=largest,
            seed=seed,
            num_shards=merged["shards"],
            workers=merged["shard_workers"],
        )
        sharded = {
            "num_prefixes": largest,
            "num_shards": report["num_shards"],
            "totals": report["totals"],
            "shard_rss_mb": report["shard_rss_mb"],
            "parent_rss_mb": report["peak_rss_mb"],
        }

    largest_row = rows[-1]
    return {
        "sizes": sizes,
        "rows": rows,
        "largest": {
            "num_prefixes": largest_row["grouped"]["num_prefixes"],
            "speedup": largest_row["absorb_speedup"],
            "groups": largest_row["grouped"]["groups"],
            "flow_mods": largest_row["grouped"]["flow_mods"],
            "rss_mb": largest_row["grouped"]["peak_rss_mb"],
        },
        "sharded": sharded,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }


def main() -> int:
    config = json.loads(sys.argv[1]) if len(sys.argv) > 1 else {}
    json.dump(run(config), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
