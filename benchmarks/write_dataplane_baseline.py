#!/usr/bin/env python3
"""Regenerate the committed dataplane perf baseline (BENCH_dataplane.json).

Runs the full-size A/B measurement (legacy flow table uncapped at 10k
entries, 100k prefixes) in a fresh subprocess and writes the JSON report
to the repo root.  Run from the repo root::

    python benchmarks/write_dataplane_baseline.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.test_bench_dataplane import BASELINE_PATH, run_worker  # noqa: E402

FULL_CONFIG = {
    "flowmods": 10000,
    "legacy_flowmod_cap": 10000,
    "events": 200000,
    "prefixes": 100000,
    "repeats": 3,
    "flowmod_repeats": 1,
}


def main() -> int:
    print("Running full-size dataplane A/B (the legacy flow table side "
          "alone takes ~30s)...")
    report = run_worker(FULL_CONFIG)
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    flow = report["flowmods"]
    fifo = report["events"]["fifo"]
    print(f"wrote {BASELINE_PATH}")
    print(f"  flow-mod install speedup: {flow['install_speedup']}x "
          f"(modify {flow['modify_speedup']}x)")
    print(f"  event-loop speedup (fifo): singles {fifo['singles_speedup']}x "
          f"/ batch {fifo['batch_speedup']}x")
    print(f"  lpm lookup speedup: {report['lpm']['lookup_speedup']}x, "
          f"bytes/prefix {report['lpm']['legacy_bytes_per_prefix']} -> "
          f"{report['lpm']['new_bytes_per_prefix']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
