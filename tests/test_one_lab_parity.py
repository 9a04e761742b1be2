"""Parity pin for folding every testbed onto ``ScenarioSpec`` + ``ScenarioLab``.

``tests/data/one_lab_parity.json`` was captured by :func:`capture` at the
last commit that still had the separate Figure-4 lab package (its own
config dataclass and ``ScenarioLab`` subclass) and the lab-side second
stage table.  The calls below use only entry points that exist on both
sides of that port, so the fixture is regenerated with::

    PYTHONPATH=src python tests/test_one_lab_parity.py tests/data/one_lab_parity.json

``campaign_sha256_at_1000`` was added at the parent of the train-level
UPDATE processing change (3bdb22e): the 200-prefix tables fit in one
sub-train, so every preset is also pinned at 1,000 prefixes (at least
three sub-trains per table) — as digests, not as a second set of records.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from repro import cli
from repro.experiments import ablations, figure5
from repro.stats import BoxStats
from repro.scenarios.campaign import CampaignRunner
from repro.scenarios.presets import PRESETS, get_preset
from repro.telemetry import STAGES

FIXTURE = Path(__file__).parent / "data" / "one_lab_parity.json"


def _campaign_records():
    specs = [get_preset(name, num_prefixes=200) for name in PRESETS]
    result = CampaignRunner(specs, workers=1).run()
    records = json.loads(result.scenarios_json())
    # The parsed form is what the fixture stores; it re-serialises to the
    # exact bytes the campaign exported.
    assert json.dumps(records, sort_keys=True) == result.scenarios_json()
    return records


def _campaign_digests(num_prefixes):
    """sha256 of each preset's exported record (``trace_events`` and
    ``outage_chains`` included), by preset name."""
    digests = {}
    for name in PRESETS:
        result = CampaignRunner([get_preset(name, num_prefixes=num_prefixes)], workers=1).run()
        digests[name] = hashlib.sha256(result.scenarios_json().encode("utf-8")).hexdigest()
    return digests


def _figure5_rows():
    raw_samples = []

    class SpyStats:
        @staticmethod
        def from_samples(samples):
            raw_samples.append(list(samples))
            return BoxStats.from_samples(samples)

    figure5.BoxStats = SpyStats
    try:
        rows = figure5.Figure5Experiment(
            prefix_counts=[100, 300], repetitions=2, monitored_flows=20
        ).run()
    finally:
        figure5.BoxStats = BoxStats
    return [
        {**row._asdict(), "stats": row.stats._asdict(), "samples": samples}
        for row, samples in zip(rows, raw_samples)
    ]


def _ablation_points():
    sweeps = {
        "compare_fib_designs": ablations.compare_fib_designs,
        "sweep_bfd_interval": ablations.sweep_bfd_interval,
        "sweep_flow_mod_latency": ablations.sweep_flow_mod_latency,
    }
    return {
        name: [point._asdict() for point in sweep(num_prefixes=100)]
        for name, sweep in sweeps.items()
    }


def _cli_failover_stdout():
    outputs = {}
    for mode, flag in (("supercharged", ["--supercharged"]), ("standalone", [])):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["failover", "--prefixes", "40", "--flows", "5", *flag])
        assert code == 0
        outputs[mode] = stdout.getvalue()
    return outputs


def capture():
    return {
        "campaign_records": _campaign_records(),
        "campaign_sha256_at_1000": _campaign_digests(1_000),
        "figure5_rows": _figure5_rows(),
        "ablation_points": _ablation_points(),
        "cli_failover_stdout": _cli_failover_stdout(),
    }


def test_every_testbed_caller_matches_the_two_lab_parent():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    # Through JSON, so tuples/lists and float text compare like the fixture.
    actual = json.loads(json.dumps(capture()))
    for section in expected:
        assert actual[section] == expected[section], section
    assert sorted(actual) == sorted(expected)

    # The invariant that made the lab-side stage table redundant: a
    # record's stage offsets ARE the first outage's ledger offsets.
    with_failure = [r for r in actual["campaign_records"] if r["outage_chains"]]
    assert len(with_failure) == len(PRESETS)
    for record in with_failure:
        first_outage = record["outage_chains"][0]
        for stage in STAGES:
            assert record[f"stage_{stage}_ms"] == first_outage[f"{stage}_ms"], (
                record["name"],
                stage,
            )


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
