"""Integration tests: remote supercharge inside full scenario labs.

Covers the PR's acceptance behaviours — a full-table remote withdraw
absorbed with O(#groups) flow-mods instead of per-prefix re-announcements
— plus the overlap corner (remote withdraw racing a link failure of the
alternate peer) and the experiment/CLI harness.
"""

import pytest

from repro.experiments.remote_supercharge import RemoteSuperchargeExperiment
from repro.scenarios.campaign import run_failover, run_scenario
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import FailureSpec, ScenarioSpec, ScenarioSpecError
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator

N_PREFIXES = 40
FLOWS = 6


def _spec(failures, providers=2, grouped=True, **overrides):
    defaults = dict(
        name="remote-sc-test",
        num_prefixes=N_PREFIXES,
        supercharged=True,
        num_providers=providers,
        monitored_flows=FLOWS,
        seed=1,
        remote_groups=grouped,
        failures=failures,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults).validate()


def _run(spec):
    lab = build_scenario(Simulator(seed=spec.seed), spec)
    assert lab.bring_up()
    result = run_failover(lab)
    return lab, result.recovered, result


class TestGroupedFullTableWithdraw:
    def test_repoints_instead_of_reannouncing(self):
        failures = [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)]
        lab, recovered, result = _run(_spec(failures, grouped=True))
        assert recovered
        controller = lab.controllers[0]
        engine = controller.remote_engine
        assert engine is not None
        # One shared-fate group covers the whole table with two providers;
        # the failover cost one flow-mod and zero router messages.
        assert engine.groups_repointed == controller.group_count() == 1
        assert engine.flow_mods == 1
        assert engine.prefixes_covered == N_PREFIXES
        assert engine.fallback_prefixes == 0

    def test_restoration_at_least_5x_faster_than_per_prefix(self):
        failures = [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)]
        _, recovered_group, grouped = _run(_spec(failures, grouped=True))
        _, recovered_plain, plain = _run(_spec(failures, grouped=False))
        assert recovered_group and recovered_plain
        assert grouped.max_convergence > 0
        assert plain.max_convergence >= 5 * grouped.max_convergence

    def test_three_providers_rekey_to_surviving_ranking(self):
        failures = [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)]
        lab, recovered, _ = _run(_spec(failures, providers=3, grouped=True))
        assert recovered
        controller = lab.controllers[0]
        primary_ip = lab.plan.provider_core_ip(0)
        for group in controller.backup_groups.groups():
            if not group.members:
                continue
            assert group.active != primary_ip
            assert group.key[0] == group.active

    def test_detection_still_attributed_to_bgp(self):
        failures = [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)]
        _, recovered, result = _run(_spec(failures, grouped=True))
        assert recovered
        assert result.detection_path == "bgp"


class TestPartialAndRestore:
    def test_partial_withdraw_falls_back_per_prefix_for_the_slice(self):
        failures = [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=0.4)]
        lab, recovered, _ = _run(_spec(failures, grouped=True))
        assert recovered
        engine = lab.controllers[0].remote_engine
        assert engine.groups_repointed == 0
        assert engine.fallback_prefixes == 16  # 0.4 * 40
        # The surviving majority kept its rule and membership.
        group = lab.controllers[0].backup_groups.groups()[0]
        assert len(group.members) == N_PREFIXES - 16
        assert group.active == lab.plan.provider_core_ip(0)

    def test_restore_repoints_the_group_back(self):
        failures = [
            FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0, duration=1.0)
        ]
        lab, recovered, _ = _run(_spec(failures, grouped=True))
        assert recovered
        controller = lab.controllers[0]
        engine = controller.remote_engine
        assert engine.groups_repointed == 2  # away and back
        group = controller.backup_groups.groups()[0]
        assert group.active == lab.plan.provider_core_ip(0)
        assert len(group.members) == N_PREFIXES

    def test_nexthop_shift_stays_steady_under_local_pref(self):
        # LOCAL_PREF pins the exit in these testbeds, so a longer upstream
        # path never displaces the best route: the planner must treat the
        # shift as steady-state churn (no fallback storm, no outage).
        failures = [
            FailureSpec(kind="remote_nexthop_shift", at=1.0, prefix_fraction=1.0)
        ]
        lab, recovered, result = _run(_spec(failures, grouped=True))
        assert recovered
        engine = lab.controllers[0].remote_engine
        assert engine.fallback_prefixes == 0
        assert result.max_convergence == 0.0


class TestOverlapWithLinkFailures:
    def test_alternate_down_before_withdraw_lands_on_third_provider(self):
        """The ranked alternate's routes are flushed before the withdraw:
        the drained group must land on the next surviving peer."""
        failures = [
            FailureSpec(kind="link_down", at=1.0, target="P2"),
            FailureSpec(kind="remote_withdraw", at=3.0, prefix_fraction=1.0),
        ]
        lab, recovered, _ = _run(_spec(failures, providers=3, grouped=True))
        assert recovered
        third_ip = lab.plan.provider_core_ip(2)
        groups = [g for g in lab.controllers[0].backup_groups.groups() if g.members]
        assert groups and all(g.active == third_ip for g in groups)

    def test_alternate_dies_during_repoint_no_blackholed_vnh(self):
        """Repoint ordering: the withdraw flushes before BFD notices the
        alternate's link died, so the group transiently points at a dead
        peer.  The refreshed key plus the active-next-hop failover index
        must let Listing-2 convergence move it — no VNH stays blackholed."""
        failures = [
            FailureSpec(kind="link_down", at=1.0, target="P2"),
            FailureSpec(kind="remote_withdraw", at=1.01, prefix_fraction=1.0),
        ]
        lab, recovered, result = _run(_spec(failures, providers=3, grouped=True))
        assert recovered
        controller = lab.controllers[0]
        third_ip = lab.plan.provider_core_ip(2)
        groups = [g for g in controller.backup_groups.groups() if g.members]
        assert groups and all(g.active == third_ip for g in groups)
        # Every active next hop must be a live peer.
        for group in groups:
            session = controller.bfd.session(group.active)
            assert session is not None and session.is_up
        # The outage is bounded by BFD detection, far below FIB download.
        assert result.max_convergence < 0.2


class TestLocalFailureCycle:
    def test_link_restore_reclaims_the_primary_provider(self):
        """Local link down + auto-restore with remote groups on: after the
        provider returns, the group must end up pointing back at it (the
        ranking-ordered key keeps the preferred peer reclaimable even when
        the drain-back flush ran while its BFD session was still down)."""
        failures = [FailureSpec(kind="link_down", at=1.0, duration=2.0)]
        lab, recovered, _ = _run(_spec(failures, grouped=True))
        assert recovered
        primary = lab.plan.provider_core_ip(0)
        back = lab.run_until(
            lambda: all(
                group.active == primary
                for group in lab.controllers[0].backup_groups.groups()
                if group.members
            ),
            timeout=60.0,
        )
        assert back


class TestCampaignRecords:
    def test_run_scenario_records_remote_metrics(self):
        spec = _spec(
            [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)],
            grouped=True,
        )
        record = run_scenario(spec)
        assert record["remote_groups"] is True
        assert record["remote_repoints"] == 1
        assert record["remote_flow_mods"] == 1
        assert record["remote_fallback_prefixes"] == 0
        assert record["converged"] and record["recovered"]

    def test_records_zero_metrics_when_disabled(self):
        spec = _spec(
            [FailureSpec(kind="remote_withdraw", at=1.0, prefix_fraction=1.0)],
            grouped=False,
        )
        record = run_scenario(spec)
        assert record["remote_groups"] is False
        assert record["remote_repoints"] == 0
        assert record["remote_flow_mods"] == 0


class TestSpecAndPreset:
    def test_remote_groups_requires_supercharged(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(supercharged=False, remote_groups=True).validate()

    def test_holddown_must_be_positive(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec(remote_groups=True, remote_holddown=0.0).validate()

    def test_spec_round_trips_remote_fields(self):
        spec = _spec(
            [FailureSpec(kind="remote_withdraw", at=1.0)], remote_holddown=0.002
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.remote_groups is True
        assert clone.remote_holddown == 0.002

    def test_remote_supercharge_preset(self):
        spec = get_preset("remote-supercharge", num_prefixes=30)
        assert spec.remote_groups and spec.supercharged
        assert spec.failures[0].kind == "remote_withdraw"


class TestExperimentHarness:
    def test_curve_meets_acceptance_at_small_scale(self):
        experiment = RemoteSuperchargeExperiment(
            prefix_counts=[30, 60], monitored_flows=5, seed=1
        )
        rows = experiment.run()
        assert len(rows) == 4
        for row in rows:
            assert row.recovered
            if row.grouped:
                assert row.flow_mods <= row.groups
                assert row.router_messages == 0
            else:
                assert row.router_messages >= row.num_prefixes
        assert experiment.acceptance_ok()
        report = experiment.report()
        assert "per-prefix" in report and "grouped" in report

    def test_rows_are_deterministic(self):
        first = RemoteSuperchargeExperiment(prefix_counts=[30], monitored_flows=4)
        second = RemoteSuperchargeExperiment(prefix_counts=[30], monitored_flows=4)
        assert first.run() == second.run()
