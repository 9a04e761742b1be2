"""Schema check for the committed perf trajectory (BENCH_trajectory.jsonl).

The trajectory is append-only machine-read data: CI appends a dated line
per PR (benchmarks/bench_trajectory.py) and the committed file seeds the
history.  A malformed line — unparseable JSON, a missing headline number,
a string where a rate belongs — silently breaks every later
comparison, so this test validates the whole committed file line by line.
It doubles as a regression gate on the *writer*: it also generates a
fresh entry (``--from-baseline``, so no measurement runs) into a temp
file and holds it to the same schema.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.conftest import REPO_ROOT

TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_trajectory.jsonl")

#: Every trajectory entry must carry these, with these types.  ``label``
#: is optional (CI adds one, hand-seeded entries may not) and the
#: remote_repoint_* block is optional as a unit (--skip-remote).
REQUIRED_FIELDS = {
    "date": str,
    "source": str,
    "python": str,
}

#: Exactly one of these names the commit.  Lines are written before the
#: commit that carries them, so the value has been the PR's *parent* since
#: PR 12; the writer says so (``parent_sha``) since PR 21 and the older
#: lines keep the ``sha`` they were committed with.
COMMIT_FIELDS = ("sha", "parent_sha")

#: The dataplane headline: absolute rates of the live classes.  Required
#: on every line that does not carry the retired ratios instead.
DATAPLANE_FIELDS = {
    "events_fifo_per_s": (int, float),
    "events_random_per_s": (int, float),
    "lpm_lookup_per_s": (int, float),
}

#: On old committed lines only: type-checked where present, never
#: required, not written any more.  ``trie_nodes`` ended when ``LpmTable``
#: stopped being a trie (PR 13); every ``*_speedup`` here was a ratio
#: against a frozen copy of old code, and ended with that copy (the flow
#: table's in PR 15, the event engine's and the LPM trie's in PR 18).
RETIRED_FIELDS = {
    "trie_nodes": int,
    "flowmod_install_speedup": (int, float),
    "flowmod_modify_speedup": (int, float),
    "events_fifo_speedup": (int, float),
    "events_random_speedup": (int, float),
    "lpm_lookup_speedup": (int, float),
}

#: Written on every line since PR 19, absent on older ones: ``wc -l`` over
#: ``src/repro/**/*.py``.
SIZE_FIELDS = {
    "src_lines": int,
}

REMOTE_FIELDS = {
    "remote_repoint_speedup": (int, float),
    "remote_repoint_flow_mods": int,
    "remote_repoint_groups": int,
    "remote_repoint_table_size": int,
}

#: Optional within the remote block: entries measured via the int-coded
#: scale worker record the RSS bound; legacy object-path entries don't.
REMOTE_OPTIONAL_FIELDS = {
    "remote_repoint_rss_mb": (int, float),
}

#: End-to-end campaign block (``--e2e-from-report``): optional as a whole,
#: but a workload that appears carries every end-to-end metric, as
#: ``campaign_<workload>_<metric>``.  ``sim_events`` is there for the
#: workloads that run the simulator.
E2E_METRICS = (
    "setup_s", "converge_s", "failover_s", "total_s", "cpu_s",
    "routes_per_s", "peak_rss_mb", "sim_convergence_ms",
)
E2E_WORKLOADS = ("fig4_sc", "fig4_standalone", "churn_failover", "dfz_build")


def _check_campaign_block(entry: dict, context: str) -> None:
    fields = {name for name in entry if name.startswith("campaign_")}
    expected = set()
    for workload in E2E_WORKLOADS:
        block = {f"campaign_{workload}_{metric}" for metric in E2E_METRICS}
        if block & fields:
            assert block <= fields, (
                f"{context}: partial campaign block for {workload}:"
                f" missing {sorted(block - fields)}"
            )
            expected |= block | {f"campaign_{workload}_sim_events"}
    assert fields <= expected, f"{context}: unknown fields {sorted(fields - expected)}"
    for name in fields:
        kind = int if name.endswith("_sim_events") else (int, float)
        assert isinstance(entry[name], kind) and not isinstance(entry[name], bool), (
            f"{context}: {name!r} has type {type(entry[name]).__name__}"
        )
        assert entry[name] > 0, f"{context}: {name!r} must be positive"


def _check_entry(entry: dict, context: str) -> None:
    assert isinstance(entry, dict), f"{context}: not a JSON object"
    optional = set(RETIRED_FIELDS) | set(SIZE_FIELDS)
    if "lpm_lookup_speedup" in entry:
        # An old line: the retired ratios stand in for the dataplane rates.
        optional |= set(DATAPLANE_FIELDS)
    for field, kind in {
        **REQUIRED_FIELDS, **DATAPLANE_FIELDS, **RETIRED_FIELDS, **SIZE_FIELDS
    }.items():
        if field in optional and field not in entry:
            continue
        assert field in entry, f"{context}: missing {field!r}"
        assert isinstance(entry[field], kind) and not isinstance(
            entry[field], bool
        ), f"{context}: {field!r} has type {type(entry[field]).__name__}"
        # Rates, ratios and sizes are positive.
        if field.endswith(("_speedup", "_per_s", "_lines")):
            assert entry[field] > 0, f"{context}: {field!r} must be positive"
    commit = [field for field in COMMIT_FIELDS if field in entry]
    assert len(commit) == 1, f"{context}: want one of {COMMIT_FIELDS}, got {commit}"
    assert isinstance(entry[commit[0]], str), f"{context}: {commit[0]!r} is not a string"
    # A date is YYYY-MM-DD.
    year, month, day = entry["date"].split("-")
    assert len(year) == 4 and len(month) == 2 and len(day) == 2, (
        f"{context}: date {entry['date']!r} is not ISO formatted"
    )
    _check_campaign_block(entry, context)
    remote_present = [field for field in REMOTE_FIELDS if field in entry]
    if remote_present:
        assert set(remote_present) == set(REMOTE_FIELDS), (
            f"{context}: partial remote_repoint block {remote_present}"
        )
        for field, kind in REMOTE_FIELDS.items():
            assert isinstance(entry[field], kind), (
                f"{context}: {field!r} has type {type(entry[field]).__name__}"
            )
        for field, kind in REMOTE_OPTIONAL_FIELDS.items():
            if field in entry:
                assert isinstance(entry[field], kind) and entry[field] > 0, (
                    f"{context}: {field!r} has type"
                    f" {type(entry[field]).__name__}"
                )
    else:
        for field in REMOTE_OPTIONAL_FIELDS:
            assert field not in entry, (
                f"{context}: {field!r} without the remote_repoint block"
            )


def test_committed_trajectory_lines_are_well_formed():
    with open(TRAJECTORY_PATH, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    assert lines, "BENCH_trajectory.jsonl must seed at least one entry"
    for number, line in enumerate(lines, start=1):
        entry = json.loads(line)
        _check_entry(entry, f"line {number}")
        # Lines must be byte-stable re-serialisations (sorted keys), so
        # textual diffs of the trajectory stay one-line-per-entry.
        assert line == json.dumps(entry, sort_keys=True), (
            f"line {number}: not sorted-keys canonical JSON"
        )


def test_writer_emits_schema_conforming_entries(tmp_path):
    output = tmp_path / "trajectory.jsonl"
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "benchmarks", "bench_trajectory.py"),
            "--from-baseline",
            "--skip-remote",
            "--e2e-from-report",
            os.path.join(REPO_ROOT, "benchmarks", "e2e", "baseline.json"),
            "--output",
            str(output),
            "--label",
            "schema-check",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = output.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    _check_entry(entry, "fresh entry")
    assert entry["label"] == "schema-check"
    assert not set(RETIRED_FIELDS) & set(entry)
    assert "src_lines" in entry  # optional on old lines, written on every new one
    assert "parent_sha" in entry  # ``sha`` on old lines only
    # The committed e2e baseline holds all four workloads.
    for workload in E2E_WORKLOADS:
        assert entry[f"campaign_{workload}_converge_s"] > 0
    assert entry["campaign_fig4_sc_sim_events"] > 0
    assert "campaign_dfz_build_sim_events" not in entry


def test_partial_or_malformed_campaign_blocks_are_rejected():
    with open(TRAJECTORY_PATH, "r", encoding="utf-8") as handle:
        good = json.loads(handle.readline())
    block = {f"campaign_fig4_sc_{metric}": 1.0 for metric in E2E_METRICS}
    _check_entry(dict(good, **block), "complete block")
    for broken in (
        {k: v for k, v in block.items() if not k.endswith("converge_s")},
        dict(block, campaign_fig4_sc_total_s="1.0"),
        dict(block, campaign_fig4_sc_sim_events=1.5),
        dict(block, campaign_nosuch_converge_s=1.0),
    ):
        with pytest.raises(AssertionError):
            _check_entry(dict(good, **broken), "broken block")
