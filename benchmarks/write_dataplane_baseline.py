#!/usr/bin/env python3
"""Regenerate the committed dataplane perf baseline (BENCH_dataplane.json).

Runs the full-size measurement (200k events, 100k prefixes, the flow table
at 7 / 34 / 902 rules) in a fresh subprocess and writes the JSON report to
the repo root.  Run from the repo root::

    python benchmarks/write_dataplane_baseline.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.test_bench_dataplane import (  # noqa: E402
    BASELINE_PATH,
    FULL_CONFIG,
    run_worker,
)


def main() -> int:
    print("Running the full-size dataplane measurement...")
    report = run_worker(FULL_CONFIG)
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    fifo = report["events"]["fifo"]
    print(f"wrote {BASELINE_PATH}")
    for size, flow in sorted(report["flowmods"].items(), key=lambda item: int(item[0])):
        print(f"  flow table at {size} rules: install {flow['install_us_per_op']}"
              f" / modify {flow['modify_us_per_op']}"
              f" / lookup {flow['lookup_us_per_op']} us/op")
    print(f"  event-loop speedup (fifo): singles {fifo['singles_speedup']}x "
          f"/ batch {fifo['batch_speedup']}x")
    print(f"  lpm lookup speedup: {report['lpm']['lookup_speedup']}x, "
          f"bytes/prefix {report['lpm']['legacy_bytes_per_prefix']} -> "
          f"{report['lpm']['new_bytes_per_prefix']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
