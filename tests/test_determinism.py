"""Determinism by experiment: every preset's campaign export is the same
bytes in fresh interpreters that differ in string-hash order and, through
address-space randomisation, in every ``id()``.

The in-process parity tests (pooled against serial, telemetry wired or
not) and the golden pins run in one interpreter, so a set of strings
iterated into a record, or an address that leaks into one, looks the same
to them on every run.  Here ``preset_hashes.py`` runs in three
processes at once, one per ``PYTHONHASHSEED``, and each prints one sha256
per preset.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.scenarios import preset_names

SRC = Path(__file__).resolve().parents[1] / "src"
PRESET_HASHES = Path(__file__).with_name("preset_hashes.py")
HASH_SEEDS = ("0", "1", "12345")


def run_under_hash_seeds(script):
    """``{seed: {key: value}}`` from the ``key value`` lines ``script``
    prints in one fresh ``python -B`` per hash seed, all started at once."""
    processes = {
        seed: subprocess.Popen(
            [sys.executable, "-B", str(script)],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    }
    outputs = {}
    try:
        for seed, process in processes.items():
            stdout, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            outputs[seed] = dict(line.split(" ", 1) for line in stdout.splitlines())
    finally:
        for process in processes.values():
            process.kill()
    return outputs


def diverged(outputs):
    """The keys whose value is not the same in every run (missing counts)."""
    runs = list(outputs.values())
    keys = set().union(*runs)
    return sorted(key for key in keys if len({run.get(key) for run in runs}) > 1)


def test_every_preset_exports_the_same_bytes_under_every_hash_seed():
    outputs = run_under_hash_seeds(PRESET_HASHES)
    assert sorted(outputs[HASH_SEEDS[0]]) == preset_names()
    assert diverged(outputs) == []


#: An export built by iterating a set of strings: its order follows the
#: hash seed.
SET_ORDERED_EXPORT = """
protocols = {"bgp", "bfd", "ospf", "isis", "rip", "ldp", "rsvp", "pim"}
print("protocols", ",".join(list(protocols)))
print("count", len(protocols))
"""


def test_the_harness_reports_an_export_that_follows_the_hash_seed(tmp_path):
    script = tmp_path / "set_ordered_export.py"
    script.write_text(SET_ORDERED_EXPORT, encoding="utf-8")
    assert diverged(run_under_hash_seeds(script)) == ["protocols"]
