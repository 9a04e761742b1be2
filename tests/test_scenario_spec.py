"""Tests for the declarative scenario specification layer."""

import pickle

import pytest

from repro.scenarios.campaign import CampaignRunner
from repro.scenarios.presets import PRESETS, get_preset
from repro.scenarios.spec import (
    FAILURE_KINDS,
    FailureSpec,
    ScenarioSpec,
    ScenarioSpecError,
    failure_campaign,
)


class TestFailureSpec:
    def test_valid_kinds_accepted(self):
        for kind in FAILURE_KINDS:
            FailureSpec(kind=kind, at=1.0, duration=0.5).validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioSpecError):
            FailureSpec(kind="meteor_strike", at=1.0).validate()

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioSpecError):
            FailureSpec(kind="link_down", at=-0.1).validate()

    def test_bfd_loss_requires_duration(self):
        with pytest.raises(ScenarioSpecError):
            FailureSpec(kind="bfd_loss", at=1.0).validate()

    def test_round_trip(self):
        spec = FailureSpec(kind="link_flap", at=2.0, target="R2", count=4, period=0.1)
        assert FailureSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioSpecError):
            FailureSpec.from_dict({"kind": "link_down", "at": 1.0, "blast_radius": 3})

    def test_end_time_covers_flap_storm(self):
        flap = FailureSpec(kind="link_flap", at=1.0, count=5, period=0.2)
        assert flap.end_time == pytest.approx(2.0)

    def test_remote_kinds_are_registered(self):
        from repro.scenarios.spec import REMOTE_FAILURE_KINDS

        assert set(REMOTE_FAILURE_KINDS) <= set(FAILURE_KINDS)
        FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=0.25).validate()
        FailureSpec(kind="remote_nexthop_shift", at=1.0, seed=3).validate()

    def test_prefix_fraction_bounds(self):
        with pytest.raises(ScenarioSpecError):
            FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=0.0).validate()
        with pytest.raises(ScenarioSpecError):
            FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.5).validate()

    def test_remote_round_trip_keeps_fraction_and_seed(self):
        spec = FailureSpec(
            kind="remote_withdraw", at=2.0, target="P2", prefix_fraction=0.5, seed=7
        )
        assert FailureSpec.from_dict(spec.to_dict()) == spec


class TestScenarioSpec:
    def test_defaults_validate(self):
        ScenarioSpec().validate()

    def test_churn_fields_validate(self):
        ScenarioSpec(churn_rate_ups=500.0, churn_withdraw_fraction=0.3).validate()
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(churn_rate_ups=-1.0).validate()
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(churn_withdraw_fraction=1.2).validate()

    def test_provider_defaults_are_deterministic(self):
        spec = ScenarioSpec(num_providers=4)
        assert [spec.provider_name(i) for i in range(4)] == ["P1", "P2", "P3", "P4"]
        prefs = [spec.provider_local_pref(i) for i in range(4)]
        assert prefs == [200, 100, 99, 98]
        assert prefs == sorted(prefs, reverse=True)

    def test_provider_list_length_must_match(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(num_providers=3, provider_names=["A", "B"]).validate()
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(num_providers=2, provider_local_prefs=[200]).validate()

    def test_duplicate_preferences_rejected(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(num_providers=2, provider_local_prefs=[100, 100]).validate()

    def test_redundant_controllers_need_supercharged(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(supercharged=False, redundant_controllers=True).validate()

    def test_redundant_controllers_need_single_edge(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(redundant_controllers=True, num_edge_routers=2).validate()

    def test_controller_crash_needs_supercharged(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(
                supercharged=False, failures=failure_campaign("controller_crash")
            ).validate()

    def test_provider_count_bounds(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(num_providers=0).validate()
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(num_providers=31).validate()

    def test_dict_round_trip_including_failures(self):
        spec = ScenarioSpec(
            name="rt",
            num_providers=3,
            failures=failure_campaign("link_flap", at=2.0),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec(name="json", failures=failure_campaign("bfd_loss"))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict({"name": "x", "warp_drive": True})

    def test_failure_horizon(self):
        spec = ScenarioSpec(
            failures=[
                FailureSpec(kind="link_down", at=1.0),
                FailureSpec(kind="link_flap", at=2.0, count=3, period=0.5),
            ]
        )
        assert spec.failure_horizon == pytest.approx(3.5)

    def test_with_overrides_returns_new_spec(self):
        spec = ScenarioSpec(name="base")
        other = spec.with_overrides(num_prefixes=7)
        assert other.num_prefixes == 7
        assert spec.num_prefixes == 1000


class TestFailureCampaign:
    def test_none_is_empty(self):
        assert failure_campaign("none") == []

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ScenarioSpecError):
            failure_campaign("sharknado")

    def test_defaults_are_valid(self):
        for kind in FAILURE_KINDS:
            for failure in failure_campaign(kind):
                failure.validate()

    def test_params_forwarded(self):
        (flap,) = failure_campaign("link_flap", at=3.0, count=7)
        assert flap.at == 3.0 and flap.count == 7


def test_provider_names_must_not_shadow_reserved_devices():
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(num_providers=2, provider_names=["R1", "Zed"]).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(num_providers=2, provider_names=["ctrl1", "Zed"]).validate()


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPresetSpec:
    """A spec is a value: each preset survives JSON, overrides and pickling
    unchanged, and how its (empty) campaign was spelled does not matter."""

    def test_json_and_override_round_trips_are_the_identity(self, name):
        spec = get_preset(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.with_overrides() == spec
        assert spec.with_overrides(**spec._asdict()) == spec
        moved = spec.with_overrides(num_prefixes=spec.num_prefixes + 1, failures=())
        assert moved.failures == [] and moved.num_prefixes == spec.num_prefixes + 1
        assert moved.with_overrides(num_prefixes=spec.num_prefixes) == spec.with_overrides(
            failures=[]
        )

    def test_an_empty_campaign_equals_the_default_one(self, name):
        spec = get_preset(name)
        for empty in ([], (), failure_campaign("none")):
            assert spec.with_overrides(failures=empty) == spec.with_overrides(failures=[])
            assert type(spec.with_overrides(failures=empty).failures) is list
        assert ScenarioSpec(name=name, failures=[]) == ScenarioSpec(name=name)
        assert ScenarioSpec().failures is not ScenarioSpec().failures

    def test_pickles_to_an_equal_spec(self, name):
        spec = get_preset(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and type(clone) is ScenarioSpec
        assert type(clone.failures) is list


def test_every_preset_runs_the_same_through_a_two_worker_campaign():
    specs = [get_preset(name, num_prefixes=20, monitored_flows=2) for name in sorted(PRESETS)]
    pooled = CampaignRunner(specs, workers=2).run()
    serial = CampaignRunner(specs, workers=1).run()
    assert pooled.workers == 2
    assert pooled.scenarios_json() == serial.scenarios_json()
    assert [row["name"] for row in pooled.scenarios] == [spec.name for spec in specs]
