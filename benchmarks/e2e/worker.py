#!/usr/bin/env python3
"""Fresh-subprocess worker: one rep of one end-to-end workload.

Like the ``bench_*_worker.py`` files next door, the spec arrives as one
JSON argv and the report leaves as JSON on stdout.  One rep is a closed
loop of phases in a single thread — each starts when the previous one
returns — and GC is left exactly as a campaign user runs it:

``setup``     import ``repro``, build and start the lab, load the feeds
              (dfz-build: import + per-shard RIB/allocator/planner);
``converge``  ``lab.wait_converged()`` (dfz-build: the table load loop);
``failover``  ``FailureInjector.arm()`` + ``start_churn()`` through
              ``wait_recovered()`` (dfz-build: withdraw primary + absorb).

The record holds the host timings plus every deterministic result the
runner compares across reps.  With ``"traced": true`` the boundary
wrappers are installed before anything of ``repro`` is built and the
per-layer report rides along under ``"trace"``.

Usage::

    python benchmarks/e2e/worker.py '{"workload": "fig4-sc", "seed": 1, "num_prefixes": 200}'
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()
_STARTED_WALL = time.time()

import heapq  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import zlib  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from definitions import DFZ_BACKUPS, DFZ_SHARDS, PROBE_STEPS  # noqa: E402

#: Simulated-seconds budget of each wait (``run_scenario``'s default).
SIM_TIMEOUT_S = 600.0
DFZ_PRIMARY = "9.0.0.1"
DFZ_VNH_POOL = "10.200.0.0/16"

Marks = Dict[str, float]


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
def scenario_spec(workload: str, num_prefixes: int, seed: int):
    from repro.scenarios.presets import get_preset
    from repro.scenarios.spec import failure_campaign

    if workload == "fig4-sc":
        return get_preset("figure4", num_prefixes=num_prefixes, seed=seed)
    if workload == "fig4-standalone":
        return get_preset("figure4-standalone", num_prefixes=num_prefixes, seed=seed)
    if workload == "churn-failover":
        churn_rate = 1000.0
        return get_preset(
            "ris-churn",
            num_prefixes=num_prefixes,
            seed=seed,
            num_providers=3,
            remote_groups=True,
            churn_rate_ups=churn_rate,
            churn_withdraw_fraction=0.3,
            # The link dies once one table's worth of updates has been
            # replayed (10.5 s at the issue's 10k), with the withdraw
            # tail of the stream still in flight.  The stock preset's
            # remote_withdraw never recovers at >= 1k prefixes (README).
            failures=failure_campaign("link_down", at=num_prefixes / churn_rate + 0.5),
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_sim(spec: Dict[str, Any], marks: Marks) -> Dict[str, Any]:
    from repro.scenarios.failures import FailureInjector
    from repro.scenarios.testbed import build_scenario
    from repro.sim.engine import Simulator

    scenario = scenario_spec(spec["workload"], spec["num_prefixes"], spec["seed"])
    sim = Simulator(seed=scenario.seed)
    lab = build_scenario(sim, scenario)
    lab.start()
    lab.load_feeds()
    marks["ready"] = time.perf_counter()

    converged = lab.wait_converged(timeout=SIM_TIMEOUT_S)
    marks["converged"] = time.perf_counter()

    lab.setup_monitoring()
    marks["armed"] = time.perf_counter()
    injector = FailureInjector(lab)
    injector.arm()
    churn_updates = lab.start_churn()
    horizon = max(scenario.failure_horizon, lab.churn_horizon)
    if horizon > 0:
        sim.run_for(horizon + 0.05)
    recovered = lab.wait_recovered(timeout=SIM_TIMEOUT_S)
    marks["recovered"] = time.perf_counter()

    failure_time = injector.first_failure_time
    details = lab.monitor.convergence_details(failure_time)
    detection = lab.detection.first_detection(failure_time, lab.plan.provider_core_ip(0))
    stages = lab.stage_offsets()
    engines = lab.remote_engines()
    provisioners = [c.provisioner for c in lab.controllers if c.provisioner is not None]
    measured = lab.edge_routers[0].fib_updater
    group_count = sum(c.group_count() for c in lab.controllers)
    return {
        "supercharged": scenario.supercharged,
        "num_providers": scenario.num_providers,
        "routes": scenario.num_prefixes * scenario.num_providers,
        "converged": bool(converged),
        "recovered": bool(recovered),
        "sim_convergence_ms": round(max(d for d, _ in details.values()) * 1e3, 6),
        "detection_path": detection.path if detection is not None else None,
        "flow_mods_pushed": sum(p.rules_pushed for p in provisioners),
        "flow_mod_batches": sum(p.batches_pushed for p in provisioners),
        "group_count": group_count,
        "vnh_occupancy": sum(c.allocator.allocated_count for c in lab.controllers),
        "planner_groups": group_count if engines else 0,
        "remote_repoints": sum(e.groups_repointed for e in engines),
        "remote_flow_mods": sum(e.flow_mods for e in engines),
        "fallback_prefixes": sum(e.fallback_prefixes for e in engines),
        "churn_updates": churn_updates,
        "sim_events": sim.events_executed,
        "sim_time_s": round(sim.now, 6),
        "stage_detect_ms": stages["detect"],
        "stage_decide_ms": stages["decide"],
        "stage_push_ms": stages["push"],
        "stage_install_ms": stages["install"],
        "trace_events": lab.telemetry.trace.emitted,
        "flow_mods_applied": lab.switch.flow_mods_applied,
        "fib_writes": measured.writes_applied + measured.deletes_applied,
        "probes": lab.monitor.evaluations,
    }


# ----------------------------------------------------------------------
# dfz-build: the public calls ``build_shard`` makes, phase by phase
# ----------------------------------------------------------------------
class CountingProvisioner:
    """What a shard has instead of a switch: every repoint succeeds and
    costs one counted flow-mod (the duck type the engine needs)."""

    def __init__(self) -> None:
        self.rules_pushed = 0

    def point_groups(self, repoints) -> List[bool]:
        self.rules_pushed += len(repoints)
        return [True] * len(repoints)


def dfz_peers() -> Tuple[str, ...]:
    return (DFZ_PRIMARY,) + tuple(f"9.0.1.{i}" for i in range(1, DFZ_BACKUPS + 1))


def run_dfz(spec: Dict[str, Any], marks: Marks) -> Dict[str, Any]:
    from repro.bgp.rib import CompactPeerRib
    from repro.core.vnh_allocator import DEFAULT_VMAC_BASE, VnhAllocator
    from repro.net.addresses import IPv4Address
    from repro.routes.prefix_gen import PrefixGenerator
    from repro.sim.engine import Simulator
    from repro.supercharge.engine import RemoteRepointEngine
    from repro.supercharge.planner import RemoteGroupPlanner
    from repro.supercharge.sharding import shard_of_key, shard_vnh_pool

    size, seed = spec["num_prefixes"], spec["seed"]
    peers = [IPv4Address(ip) for ip in dfz_peers()]
    primary = peers[0]
    # A prefix's group key is (primary, its backup): eight keys, so the
    # shard of each is looked up once instead of hashed per prefix.
    hops_of = {b: (primary, peers[b]) for b in range(1, DFZ_BACKUPS + 1)}
    shard_of = {b: shard_of_key(hops, DFZ_SHARDS) for b, hops in hops_of.items()}
    domains = []
    for shard in range(DFZ_SHARDS):
        rib = CompactPeerRib()
        for peer in peers:
            rib.add_peer(peer)
        allocator = VnhAllocator(
            shard_vnh_pool(DFZ_VNH_POOL, shard, DFZ_SHARDS),
            vmac_base=DEFAULT_VMAC_BASE + (shard << 24),
        )
        planner = RemoteGroupPlanner(allocator, group_size=2, int_keys=True)
        domains.append((rib, planner, allocator))
    marks["ready"] = time.perf_counter()

    loaded = [0] * DFZ_SHARDS
    grouped = [0] * DFZ_SHARDS
    for shard, (rib, planner, _allocator) in enumerate(domains):
        for index, code in enumerate(PrefixGenerator(seed).stream_codes(size)):
            backup = 1 + index % DFZ_BACKUPS
            if shard_of[backup] != shard:
                continue
            rib.load(code, 0)
            rib.load(code, backup)
            loaded[shard] += 1
            if planner.load_code(code, hops_of[backup]):
                grouped[shard] += 1
    marks["converged"] = marks["armed"] = time.perf_counter()

    engines = []
    last_repoint_s = 0.0
    for shard, (rib, planner, _allocator) in enumerate(domains):
        if not loaded[shard]:
            engines.append(None)
            continue
        sim = Simulator(seed=seed)
        fallback_actions: List[Any] = []
        engine = RemoteRepointEngine(
            sim,
            planner,
            CountingProvisioner(),
            peer_alive=lambda hop: hop != primary,
            apply_actions=fallback_actions.extend,
        )
        for code, new_ranking in rib.iter_withdraw_peer(0):
            if not planner.defer_code(code, new_ranking) and new_ranking:
                planner.reassign(code, new_ranking)
        engine.absorb_deferred()
        sim.run_for(engine.holddown * 2)
        engines.append(engine)
        if engine.events:
            last_repoint_s = max(last_repoint_s, engine.events[-1].at)
    marks["recovered"] = time.perf_counter()

    # The same digest ``build_shard`` returns, merged as
    # ``run_sharded_build`` merges it.
    shard_crcs = []
    group_total = 0
    for _rib, planner, _allocator in domains:
        groups = sorted(planner.groups(), key=lambda g: g.vmac.value)
        group_total += len(groups)
        crc = 0
        for group in groups:
            crc = zlib.crc32(b"".join(h.value.to_bytes(4, "big") for h in group.key), crc)
            for code in sorted(group.members):
                crc = zlib.crc32(code.to_bytes(5, "big"), crc)
        shard_crcs.append(crc)
    live = [e for e in engines if e is not None]
    totals = {
        "prefixes_loaded": sum(loaded),
        "grouped": sum(grouped),
        "ungrouped": sum(loaded) - sum(grouped),
        "groups": group_total,
        "flow_mods": sum(e.flow_mods for e in live),
        "groups_repointed": sum(e.groups_repointed for e in live),
        "prefixes_covered": sum(e.prefixes_covered for e in live),
        "fallback_prefixes": sum(e.fallback_prefixes for e in live),
        "membership_crc": zlib.crc32(b"".join(c.to_bytes(4, "big") for c in shard_crcs)),
    }
    record = {
        "supercharged": True,
        "num_providers": len(peers),
        "routes": size,
        "converged": totals["prefixes_loaded"] == size,
        "recovered": totals["groups_repointed"] == group_total,
        "sim_convergence_ms": round(last_repoint_s * 1e3, 6),
        "flow_mods_pushed": totals["flow_mods"],
        "group_count": group_total,
        "vnh_occupancy": sum(a.allocated_count for _r, _p, a in domains),
        "planner_groups": group_total,
        "remote_repoints": totals["groups_repointed"],
        "remote_flow_mods": totals["flow_mods"],
        "prefixes_covered": totals["prefixes_covered"],
        "fallback_prefixes": totals["fallback_prefixes"],
        "totals": totals,
    }
    return record


def dfz_reference(spec: Dict[str, Any]) -> Dict[str, int]:
    """``run_sharded_build``'s totals for the same arguments."""
    from repro.supercharge.sharding import run_sharded_build

    return run_sharded_build(
        peers=dfz_peers(),
        prefix_count=spec["num_prefixes"],
        seed=spec["seed"],
        num_shards=DFZ_SHARDS,
        workers=1,
    )["totals"]


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------
def speed_probe(steps: int) -> float:
    """Seconds this box needs *now* for a fixed piece of interpreter work
    (a small dict and a small heap, a few tens of KB: no footprint in the
    rep's peak RSS).  The sandbox flips between speed states up to 1.6x
    apart that outlast a run (README "Host-speed drift"); one probe before
    the rep's phases and one after them tell the runner which state the
    rep ran in.  Probes sit outside every reported time.  A smoke rep
    takes fewer ``steps``; the result is always per ``PROBE_STEPS``."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    for i in range(steps):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return (time.perf_counter() - started) * PROBE_STEPS / steps


# ----------------------------------------------------------------------
def main() -> int:
    spec = json.loads(sys.argv[1])
    probe_steps = spec.get("probe_steps", PROBE_STEPS)
    cpu_before = time.process_time()
    probe_started = time.perf_counter()
    probe_s = speed_probe(probe_steps)
    started = _STARTED + time.perf_counter() - probe_started  # origin past the probe
    probe_cpu_s = time.process_time() - cpu_before
    # Interpreter start-up is part of what every run pays: the runner
    # stamps the spawn instant and the first line of this file closes it.
    startup_s = max(_STARTED_WALL - spec["spawned_at"], 0.0) if "spawned_at" in spec else 0.0
    tracer = None
    if spec.get("traced"):
        from tracer import Tracer

        tracer = Tracer(started=started, keep_spans=bool(spec.get("trace_out")))
        tracer.install()

    from repro.telemetry.process import peak_rss_mb

    marks: Marks = {}
    run = run_dfz if spec["workload"] == "dfz-build" else run_sim
    record = run(spec, marks)
    done = time.perf_counter()
    trace = tracer.report() if tracer is not None else None
    converge_s = marks["converged"] - marks["ready"]
    record.update(
        {
            "workload": spec["workload"],
            "seed": spec["seed"],
            "num_prefixes": spec["num_prefixes"],
            "startup_s": startup_s,
            "setup_s": startup_s + marks["ready"] - started,
            "converge_s": converge_s,
            "failover_s": marks["recovered"] - marks["armed"],
            "total_s": startup_s + done - started,
            "cpu_s": time.process_time() - probe_cpu_s,
            "routes_per_s": record["routes"] / converge_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    record["probe_s"] = (probe_s + speed_probe(probe_steps)) / 2
    if spec.get("verify") and spec["workload"] == "dfz-build":
        # After every host figure is taken: the reference build would
        # otherwise sit in this rep's time, CPU and peak RSS.
        record["reference"] = dfz_reference(spec)
    report: Dict[str, Any] = {"record": record, "trace": None}
    if trace is not None:
        from tracer import layer_metrics

        trace["metrics"] = layer_metrics(trace, record)
        if spec.get("trace_out"):
            with open(spec["trace_out"], "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": spec["workload"],
                        "columns": ["id", "name", "layer", "start", "end", "parent"],
                        "spans": tracer.spans,
                    },
                    handle,
                )
        report["trace"] = trace
    json.dump(report, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
