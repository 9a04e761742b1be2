#!/usr/bin/env python3
"""Fresh-subprocess worker: grouped vs per-prefix full-table remote withdraw.

Runs the :mod:`repro.experiments.remote_supercharge` curve in an isolated
interpreter (same methodology as ``bench_dataplane_worker.py``: no heap
history from the host process) and prints one JSON report to stdout.

Unlike the data-plane micro-benchmarks, the headline numbers here are
*simulated* quantities — restoration milliseconds, flow-mod counts, router
messages — which are deterministic from the seed, so the assertions in
``test_bench_remote.py`` hold even on noisy shared CI runners.  CPU time
is reported for information only.

Usage::

    python benchmarks/bench_remote_worker.py '{"sizes": [200, 600]}'
"""

from __future__ import annotations

import json
import sys
import time

from repro.experiments.remote_supercharge import RemoteSuperchargeExperiment


def run(config: dict) -> dict:
    sizes = config.get("sizes", [200, 600])
    experiment = RemoteSuperchargeExperiment(
        prefix_counts=sizes,
        monitored_flows=config.get("flows", 8),
        num_providers=config.get("providers", 2),
        seed=config.get("seed", 1),
    )
    started = time.process_time()
    rows = experiment.run()
    cpu_seconds = time.process_time() - started
    speedups = experiment.speedups()
    largest = max(speedups) if speedups else None
    largest_pair = None
    if largest is not None:
        baseline, grouped = [
            pair for pair in experiment.pairs() if pair[0].num_prefixes == largest
        ][0]
        largest_pair = {
            "num_prefixes": largest,
            "speedup": round(speedups[largest], 2),
            "groups": grouped.groups,
            "grouped_flow_mods": grouped.flow_mods,
            "grouped_router_messages": grouped.router_messages,
            "grouped_max_ms": round(grouped.max_ms, 3),
            "perprefix_router_messages": baseline.router_messages,
            "perprefix_max_ms": round(baseline.max_ms, 3),
        }
    return {
        "sizes": sizes,
        "rows": [row._asdict() for row in rows],
        "speedups": {str(size): round(value, 2) for size, value in speedups.items()},
        "largest": largest_pair,
        "acceptance_ok": experiment.acceptance_ok(),
        "cpu_seconds": round(cpu_seconds, 3),
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }


def main() -> int:
    config = json.loads(sys.argv[1]) if len(sys.argv) > 1 else {}
    json.dump(run(config), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
