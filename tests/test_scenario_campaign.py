"""Tests for grid expansion, the campaign runner and the generator."""

import json

import pytest

from repro.scenarios.campaign import (
    CampaignRunner,
    execute_scenario,
    expand_grid,
    run_campaign,
    run_scenario,
)
from repro.scenarios.generator import random_fan_specs
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import ScenarioSpec, ScenarioSpecError


def _base(**overrides):
    defaults = dict(num_prefixes=25, monitored_flows=3)
    defaults.update(overrides)
    return get_preset("figure4", **defaults)


class TestExpandGrid:
    def test_cartesian_product_size_and_names(self):
        specs = expand_grid(
            _base(), {"num_providers": [2, 3], "num_prefixes": [10, 20]}
        )
        assert len(specs) == 4
        assert specs[0].name == "figure4/num_providers=2+num_prefixes=10"
        assert specs[-1].name == "figure4/num_providers=3+num_prefixes=20"

    def test_seeds_are_derived_per_scenario(self):
        specs = expand_grid(_base(seed=10), {"num_prefixes": [10, 20, 30]})
        assert [spec.seed for spec in specs] == [10, 11, 12]

    def test_failure_key_expands_campaigns(self):
        specs = expand_grid(_base(), {"failure": ["link_down", "none"]})
        assert specs[0].failures[0].kind == "link_down"
        assert specs[1].failures == []

    def test_provider_count_override_resets_per_provider_lists(self):
        specs = expand_grid(_base(), {"num_providers": [3]})
        assert specs[0].provider_names is None
        assert specs[0].provider_local_prefs is None

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ScenarioSpecError):
            expand_grid(_base(), {"warp_factor": [9]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioSpecError):
            expand_grid(_base(), {"num_prefixes": []})


class TestRunScenario:
    def test_record_is_deterministic(self):
        spec = _base(seed=21)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first == second

    def test_record_shape(self):
        record = run_scenario(_base(seed=22))
        assert record["converged"] and record["recovered"]
        assert record["samples"] >= 3
        assert record["max_ms"] >= record["median_ms"] >= 0
        assert record["detection_ms"] is not None
        assert record["failures"] == ["link_down"]

    def test_no_failure_scenario_reports_zeroes(self):
        record = run_scenario(_base(seed=23, failures=[]))
        assert record["converged"]
        assert record["max_ms"] == 0.0
        assert record["events_fired"] == 0


class TestCampaignRunner:
    def test_pool_matches_serial_byte_for_byte(self):
        specs = expand_grid(_base(), {"failure": ["link_down", "none"]})
        serial = CampaignRunner(specs, workers=1).run()
        pooled = CampaignRunner(specs, workers=2).run()
        assert serial.scenarios_json() == pooled.scenarios_json()

    def test_empty_campaign_rejected(self):
        with pytest.raises(ScenarioSpecError):
            CampaignRunner([], workers=1).run()

    def test_report_structure_and_write(self, tmp_path):
        result = run_campaign(_base(), {"num_prefixes": [10, 20]}, workers=1)
        report = result.to_report()
        assert set(report) == {"campaign", "scenarios", "aggregate"}
        assert report["aggregate"]["scenarios"] == 2
        assert report["campaign"]["workers"] == 1
        path = tmp_path / "campaign.json"
        result.write(str(path))
        parsed = json.loads(path.read_text())
        assert parsed["scenarios"] == report["scenarios"]

    def test_table_lists_every_scenario(self):
        result = run_campaign(_base(), {"num_prefixes": [10, 20]}, workers=1)
        table = result.table()
        for row in result.scenarios:
            assert row["name"] in table


class TestGenerator:
    def test_same_seed_same_specs(self):
        first = [spec.to_json() for spec in random_fan_specs(4, seed=33)]
        second = [spec.to_json() for spec in random_fan_specs(4, seed=33)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [spec.to_json() for spec in random_fan_specs(4, seed=33)]
        b = [spec.to_json() for spec in random_fan_specs(4, seed=34)]
        assert a != b

    def test_specs_are_valid_and_prefix_stable(self):
        specs = random_fan_specs(6, seed=35)
        for spec in specs:
            spec.validate()
            assert 2 <= spec.num_providers <= 6
        # Prefix-stability: the first N specs of a longer batch are identical.
        longer = random_fan_specs(8, seed=35)
        assert [s.to_json() for s in longer[:6]] == [s.to_json() for s in specs]

    def test_scenario_seeds_are_decorrelated(self):
        specs = random_fan_specs(3, seed=40)
        assert [spec.seed for spec in specs] == [40, 41, 42]


class TestRemoteFailureCampaigns:
    def test_remote_vs_local_detection_split_and_determinism(self):
        """Acceptance: a remote_withdraw x supercharged/vanilla campaign is
        byte-identical on rerun, records per-sample detection paths, and
        remote faults detect via BGP (no BFD) while local link_down
        detects via BFD."""
        base = _base(seed=51)
        grid = {
            "supercharged": [True, False],
            "failure": ["remote_withdraw", "link_down"],
        }
        specs = expand_grid(base, grid)
        first = CampaignRunner(specs, workers=1).run()
        second = CampaignRunner(specs, workers=1).run()
        assert first.scenarios_json() == second.scenarios_json()
        for row in first.scenarios:
            expected = "bgp" if "remote_withdraw" in row["failures"] else "bfd"
            assert row["detection_path"] == expected, row["name"]
            # Every outage sample carries the same detection attribution.
            assert row["detection_paths"] == {expected: row["samples"]}
            assert row["converged"] and row["recovered"]
            if row["supercharged"]:
                assert row["push_ms"] is not None

    def test_remote_withdraw_pool_matches_serial(self):
        specs = expand_grid(_base(seed=52), {"failure": ["remote_withdraw"]})
        serial = CampaignRunner(specs, workers=1).run()
        pooled = CampaignRunner(specs, workers=2).run()
        assert serial.scenarios_json() == pooled.scenarios_json()

    def test_churn_replay_is_deterministic_and_recorded(self):
        base = _base(seed=53).with_overrides(
            churn_rate_ups=400.0, churn_withdraw_fraction=0.25, failures=[]
        ).validate()
        first = run_scenario(base)
        second = run_scenario(base)
        assert first == second
        assert first["churn_updates_replayed"] > base.num_prefixes
        assert first["converged"] and first["recovered"]

    def test_ris_churn_recovers_with_blackholed_prefixes_in_the_replay(self):
        """The replay must not re-originate prefixes the provider is
        blackholing after the remote_withdraw: the controller would route
        them back to a provider that drops them and ``wait_recovered``
        would burn its whole timeout (it did from ~1k prefixes up)."""
        record, lab = execute_scenario(get_preset("ris-churn", num_prefixes=1000))
        assert record["recovered"]
        assert all(
            lab.monitor.is_reachable(destination)
            for destination in lab.monitored_destinations
        )
        assert record["sim_time_s"] < 15

    def test_churn_grid_axes_expand(self):
        specs = expand_grid(
            _base(seed=54),
            {"churn_rate_ups": [0.0, 250.0], "churn_withdraw_fraction": [0.0, 0.5]},
        )
        assert len(specs) == 4
        assert {spec.churn_rate_ups for spec in specs} == {0.0, 250.0}


class TestRemoteGroupCampaigns:
    def test_remote_groups_sweep_is_byte_reproducible(self):
        """Satellite acceptance: with remote groups on, the planner's
        private SeededRandom fork (never the simulator's shared stream)
        keeps campaign sweeps byte-identical — across reruns AND across
        worker-pool sizes."""
        base = _base(seed=61)
        grid = {
            "remote_groups": [False, True],
            "failure": ["remote_withdraw", "link_down"],
        }
        specs = expand_grid(base, grid)
        serial = CampaignRunner(specs, workers=1).run()
        pooled = CampaignRunner(specs, workers=2).run()
        rerun = CampaignRunner(specs, workers=1).run()
        assert serial.scenarios_json() == pooled.scenarios_json()
        assert serial.scenarios_json() == rerun.scenarios_json()
        for row in serial.scenarios:
            assert row["converged"] and row["recovered"]
            if row["remote_groups"] and "remote_withdraw" in row["failures"]:
                # Grouped full-table withdraw: O(#groups) flow-mods (one
                # group with two providers), zero per-prefix fallbacks.
                assert row["remote_repoints"] >= 1
                assert 0 < row["remote_flow_mods"] <= 2
                assert row["remote_fallback_prefixes"] == 0

    def test_remote_groups_steady_state_is_bit_identical_to_off(self):
        """A/B comparability: with no remote event to absorb, enabling the
        planner must change NOTHING — same groups, same announcements,
        same sim event structure (sim_events is exact), same metrics.
        Only then do on/off sweeps isolate the failover path itself."""
        base = _base(seed=62).with_overrides(failures=[])
        off = run_scenario(base.with_overrides(remote_groups=False).validate())
        on = run_scenario(base.with_overrides(remote_groups=True).validate())
        assert {k: v for k, v in off.items() if k != "remote_groups"} == {
            k: v for k, v in on.items() if k != "remote_groups"
        }

    def test_remote_groups_grid_key_expands(self):
        specs = expand_grid(_base(seed=63), {"remote_groups": [False, True]})
        assert [spec.remote_groups for spec in specs] == [False, True]


class TestReviewRegressions:
    def test_seed_grid_axis_is_honoured(self):
        specs = expand_grid(_base(seed=1), {"seed": [10, 20, 30]})
        assert [spec.seed for spec in specs] == [10, 20, 30]

    def test_detection_follows_failed_provider(self):
        from repro.scenarios.spec import FailureSpec

        spec = _base(
            seed=3,
            failures=[FailureSpec(kind="link_down", at=1.0, target="R3")],
        )
        record = run_scenario(spec)
        assert record["detection_ms"] is not None

    def test_detection_is_attributed_to_the_first_failed_provider(self):
        # Two providers fail in turn: the record's detection is the first
        # failure's, not the second provider's BFD event measured from the
        # first failure's instant.
        from repro.scenarios.spec import FailureSpec

        def record(failures):
            return run_scenario(
                get_preset(
                    "fan",
                    num_providers=3,
                    provider_names=None,
                    provider_local_prefs=None,
                    num_prefixes=200,
                    failures=failures,
                )
            )

        first = FailureSpec(kind="link_down", at=1.0, target="P1")
        second = FailureSpec(kind="link_down", at=3.0, target="P2")
        single = record([first])
        double = record([first, second])
        assert double["recovered"] and double["events_fired"] == 2
        assert double["detection_path"] == "bfd"
        assert double["detection_ms"] == single["detection_ms"]
        assert double["detection_ms"] < 1000.0
