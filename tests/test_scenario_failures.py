"""Tests for the failure-injection engine."""

import pytest

from repro.cli import main
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, execute_scenario, run_failover
from repro.scenarios.failures import FailureInjector
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import FailureSpec, ScenarioSpecError, failure_campaign
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


def _converged_lab(seed=7, **overrides):
    defaults = dict(num_prefixes=30, monitored_flows=3, failures=[])
    defaults.update(overrides)
    sim = Simulator(seed=seed)
    lab = build_scenario(sim, get_preset("figure4", seed=seed, **defaults))
    lab.start()
    lab.load_feeds()
    assert lab.wait_converged(timeout=600)
    lab.setup_monitoring()
    return lab


def test_link_down_fires_at_scheduled_time():
    lab = _converged_lab()
    injector = FailureInjector(lab)
    t0 = lab.sim.now
    injector.arm([FailureSpec(kind="link_down", at=1.5)])
    assert injector.first_failure_time is None
    lab.sim.run_for(2.0)
    assert injector.first_failure_time == pytest.approx(t0 + 1.5)
    assert lab.detection.current.opened_at == pytest.approx(t0 + 1.5)
    assert not lab.provider_link(0).ports[0].is_up
    assert lab.wait_recovered(timeout=600)


def test_outage_carries_the_provider_it_was_given_not_the_previous_one():
    """Regression: ``note_failure(provider_index=None)`` kept the previous
    episode's provider, so a non-provider link failing after R3 was
    exported as ``outage-2 ... "provider": 1`` — in ``outage_chains`` and in
    the ``lab.episode`` trace event."""
    lab = _converged_lab(num_prefixes=50)
    injector = FailureInjector(lab)
    injector.fire(FailureSpec(kind="link_down", at=0.0, target="R3"))
    lab.sim.run_for(1.0)
    injector.fire(FailureSpec(kind="link_down", at=0.0, target="src-r1"))
    lab.sim.run_for(1.0)
    first, second = lab.detection.outage_summaries()
    assert (first["outage"], first["kind"], first["provider"]) == ("outage-1", "link_down", 1)
    assert (second["outage"], second["kind"], second["provider"]) == ("outage-2", "link_down", None)
    episodes = lab.telemetry.trace.events(name="lab.episode")
    assert [event.fields["provider"] for event in episodes] == [1, -1]
    # The injector's own anchor is still the first failure.
    assert injector.first_failed_provider == 1


def test_link_down_with_duration_auto_restores():
    lab = _converged_lab(seed=8)
    injector = FailureInjector(lab)
    injector.arm([FailureSpec(kind="link_down", at=0.5, duration=1.0)])
    lab.sim.run_for(0.8)
    assert not lab.provider_link(0).ports[0].is_up
    lab.sim.run_for(1.0)
    assert lab.provider_link(0).ports[0].is_up
    # Sessions are restarted: the lab reconverges onto the primary.
    assert lab.run_until(lab._initially_converged, timeout=600)


def test_link_flap_storm_recovers():
    lab = _converged_lab(seed=9)
    injector = FailureInjector(lab)
    injector.arm([FailureSpec(kind="link_flap", at=0.5, count=3, period=0.2)])
    lab.sim.run_for(2.0)
    assert lab.provider_link(0).ports[0].is_up
    # down+up logged per cycle, plus the arming record.
    assert len(injector.log) >= 4
    assert lab.wait_recovered(timeout=600)


def test_bfd_loss_triggers_false_positive_without_outage():
    lab = _converged_lab(seed=10)
    controller = lab.controllers[0]
    seen = len(controller.convergence.events)
    injector = FailureInjector(lab)
    injector.arm([FailureSpec(kind="bfd_loss", at=0.2, duration=0.5)])
    lab.sim.run_for(3.0)
    # The controller declared the primary dead although the link never went down.
    events = controller.convergence.events[seen:]
    assert events and events[0].failed_peer == lab.plan.provider_core_ip(0)
    assert lab.provider_link(0).ports[0].is_up
    # Once the loss clears, BFD re-establishes.
    session = controller.bfd.session(lab.plan.provider_core_ip(0))
    assert session is not None and session.is_up
    # Traffic never stopped flowing: every destination is still reachable.
    assert all(lab.monitor.is_reachable(d) for d in lab.monitored_destinations)


def test_session_reset_bounces_and_reestablishes():
    lab = _converged_lab(seed=11)
    controller = lab.controllers[0]
    primary_ip = lab.plan.provider_core_ip(0)
    assert primary_ip in controller.bgp.established_peers()
    injector = FailureInjector(lab)
    injector.arm([FailureSpec(kind="session_reset", at=0.2, duration=0.5)])
    lab.sim.run_for(0.4)
    assert primary_ip not in controller.bgp.established_peers()
    lab.sim.run_for(5.0)
    assert primary_ip in controller.bgp.established_peers()
    assert lab.run_until(lab._initially_converged, timeout=600)


def test_controller_crash_fails_replica():
    lab = _converged_lab(seed=12, redundant_controllers=True)
    injector = FailureInjector(lab)
    injector.arm([FailureSpec(kind="controller_crash", at=0.2)])
    lab.sim.run_for(0.5)
    assert [c.name for c in lab.cluster.healthy_replicas()] == ["ctrl2"]
    assert lab.cluster.surviving_protection()
    # A crash alone is not a data-plane failure, so it is not a measurement anchor.
    assert injector.first_failure_time is None
    # The surviving replica still converges the data plane on a real failure.
    assert run_failover(lab, PRIMARY_LINK_DOWN, timeout=600).recovered


def test_last_controller_crash_is_not_reported_as_recovered():
    """Regression: ``wait_recovered`` sampled reachability once, before the
    crash had reached the data plane, settled and returned the stale answer
    — ``recovered: true, max_ms: 0.0`` over an empty FIB."""
    spec = get_preset(
        "figure4", num_prefixes=200, monitored_flows=10,
        failures=failure_campaign("controller_crash"),
    )
    record, lab = execute_scenario(spec)
    assert len(lab.edge_routers[0].fib) == 0
    assert not any(lab.monitor.is_reachable(d) for d in lab.monitored_destinations)
    assert record["recovered"] is False
    sweep = ["scenarios", "sweep", "--preset", "figure4", "--prefixes-grid", "200",
             "--flows", "10", "--failures", "controller_crash", "--workers", "1"]
    assert main(sweep) == 1
    # With a surviving replica the same crash disturbs nothing.
    redundant = sweep[:3] + ["redundant-controllers"] + sweep[4:]
    assert main(redundant) == 0


def test_unknown_target_rejected_at_fire_time():
    lab = _converged_lab(seed=13)
    injector = FailureInjector(lab)
    with pytest.raises(ScenarioSpecError):
        injector._resolve_link("R99")


@pytest.fixture(scope="module")
def built_lab():
    """Unknown targets are refused before anything runs: built is enough."""
    return build_scenario(Simulator(seed=13), get_preset("figure4", num_prefixes=10, failures=[]))


#: Every target-taking kind with a target the Figure-4 lab does not have.
UNKNOWN_TARGETS = [
    ("link_down", "R99"),
    ("link_up", "R99"),
    ("link_flap", "R99"),
    ("bfd_loss", "R99"),
    ("session_reset", "R99"),
    ("remote_withdraw", "R99"),
    ("remote_nexthop_shift", "R99"),
    ("controller_crash", "ctrl9"),
]


@pytest.mark.parametrize("kind,target", UNKNOWN_TARGETS)
def test_unknown_target_is_a_spec_error_and_nothing_happens(built_lab, kind, target):
    """Regression: ``session_reset`` and ``controller_crash`` raised a bare
    ``KeyError`` (the crash after logging it), and ``arm`` scheduled all of
    them to blow up mid-run from inside an event."""
    lab = built_lab
    bad = FailureSpec(kind=kind, at=0.2, target=target, duration=0.5)
    injector = FailureInjector(lab)
    with pytest.raises(ScenarioSpecError, match=target):
        injector.fire(bad)
    with pytest.raises(ScenarioSpecError, match=target):
        injector.arm([FailureSpec(kind="link_down", at=0.1), bad])
    # Nothing is armed at all, logged, or noted as a failure.
    lab.sim.run_for(1.0)
    assert injector.log == [] and injector.first_failure_time is None
    assert lab.detection.current is None


def test_arm_runs_spec_campaign_by_default():
    lab = _converged_lab(seed=14)
    lab.spec.failures.append(FailureSpec(kind="link_down", at=0.3))
    injector = FailureInjector(lab)
    handles = injector.arm()
    assert len(handles) == 1
    lab.sim.run_for(0.5)
    assert injector.first_failure_time is not None


def test_drop_filter_counts_dropped_frames():
    lab = _converged_lab(seed=15)
    link = lab.provider_link(0)
    before = link.frames_dropped
    link.set_drop_filter(lambda frame: True)
    lab.sim.run_for(0.2)
    assert link.frames_dropped > before
    link.clear_drop_filter()


def _blackholed(provider, lab):
    """How many of the primary provider's prefixes ``provider`` blackholes."""
    return sum(provider.blackholes_prefix(p) for p in lab.provider_feeds[0].prefixes())


class TestRemoteFailures:
    def test_remote_withdraw_blackholes_and_reroutes(self):
        lab = _converged_lab(seed=16)
        provider = lab.providers[0]
        injector = FailureInjector(lab)
        injector.arm([FailureSpec(kind="remote_withdraw", at=0.5)])
        lab.sim.run_for(0.6)
        # The provider blackholes the withdrawn slice; its link stays up.
        assert _blackholed(provider, lab) == len(lab.provider_feeds[0])
        assert lab.provider_link(0).ports[0].is_up
        assert injector.first_failure_time is not None
        # BGP propagation reconverges everything onto the backup provider.
        assert lab.wait_recovered(timeout=600)
        for destination in lab.monitored_destinations:
            assert lab.edge_routers[0].fib.lookup(destination) is not None

    def test_remote_withdraw_never_trips_bfd(self):
        lab = _converged_lab(seed=17)
        injector = FailureInjector(lab)
        injector.arm([FailureSpec(kind="remote_withdraw", at=0.5)])
        lab.sim.run_for(1.0)
        assert lab.wait_recovered(timeout=600)
        event = lab.detection.first_detection(
            injector.first_failure_time, lab.plan.provider_core_ip(0)
        )
        assert event is not None and event.path == "bgp"
        # The provider's BFD session never left Up.
        session = lab.controllers[0].bfd.session(lab.plan.provider_core_ip(0))
        assert session is not None and session.is_up

    def test_remote_withdraw_duration_restores_the_slice(self):
        lab = _converged_lab(seed=18)
        provider = lab.providers[0]
        injector = FailureInjector(lab)
        injector.arm(
            [FailureSpec(kind="remote_withdraw", at=0.3, duration=1.0,
                         prefix_fraction=0.4)]
        )
        lab.sim.run_for(0.5)
        affected = _blackholed(provider, lab)
        assert 0 < affected < len(lab.provider_feeds[0])
        lab.sim.run_for(1.0)
        assert _blackholed(provider, lab) == 0
        # Re-announced: the lab reconverges onto the primary provider.
        assert lab.run_until(lab._initially_converged, timeout=600)

    def test_prefix_fraction_slice_is_seed_stable(self):
        lab = _converged_lab(seed=19)
        injector = FailureInjector(lab)
        failure = FailureSpec(kind="remote_withdraw", at=0.5, prefix_fraction=0.3)
        first = [r.prefix for r in injector._select_remote_routes(0, failure)]
        second = [r.prefix for r in injector._select_remote_routes(0, failure)]
        assert first == second
        assert len(first) == round(0.3 * len(lab.provider_feeds[0]))
        other = [
            r.prefix
            for r in injector._select_remote_routes(
                0, FailureSpec(kind="remote_withdraw", at=0.5,
                               prefix_fraction=0.3, seed=9)
            )
        ]
        assert first != other

    def test_remote_shift_churns_without_outage(self):
        lab = _converged_lab(seed=20)
        injector = FailureInjector(lab)
        injector.arm([FailureSpec(kind="remote_nexthop_shift", at=0.5)])
        lab.sim.run_for(2.0)
        # Every destination stayed reachable the whole time.
        assert all(
            duration == 0.0 for duration, _label in lab.monitor.convergence_details(0.0).values()
        )
        # …but the shift was still detected via BGP.
        event = lab.detection.first_detection(
            injector.first_failure_time, lab.plan.provider_core_ip(0)
        )
        assert event is not None and event.path == "bgp"

    def test_remote_withdraw_requires_loaded_feeds(self):
        from repro.scenarios.testbed import build_scenario as build

        sim = Simulator(seed=21)
        lab = build(sim, get_preset("figure4", seed=21, num_prefixes=10, failures=[]))
        injector = FailureInjector(lab)
        with pytest.raises(ScenarioSpecError):
            injector.fire(FailureSpec(kind="remote_withdraw", at=0.0))


class TestOverlappingFailures:
    def test_concurrent_bfd_loss_storms_extend_the_outage(self):
        lab = _converged_lab(seed=22)
        link = lab.provider_link(0)
        injector = FailureInjector(lab)
        injector.arm(
            [
                FailureSpec(kind="bfd_loss", at=0.2, duration=0.4),
                FailureSpec(kind="bfd_loss", at=0.4, duration=0.5),
            ]
        )
        # After the first storm's clear (t=0.6) the second storm must still
        # be dropping BFD frames (until t=0.9).
        lab.sim.run_for(0.65)
        before = link.frames_dropped
        lab.sim.run_for(0.2)
        assert link.frames_dropped > before
        # Once both storms clear, the detector re-establishes.
        lab.sim.run_for(3.0)
        session = lab.controllers[0].bfd.session(lab.plan.provider_core_ip(0))
        assert session is not None and session.is_up

    def test_explicit_link_up_disarms_the_auto_restore(self):
        lab = _converged_lab(seed=23)
        injector = FailureInjector(lab)
        injector.arm(
            [
                FailureSpec(kind="link_down", at=0.2, duration=1.0),
                FailureSpec(kind="link_up", at=0.5),
            ]
        )
        lab.sim.run_for(2.0)
        assert lab.provider_link(0).ports[0].is_up
        # Exactly one restore fired: the explicit link_up; the auto-restore
        # found the link already up and did not re-bounce the sessions.
        restores = [r for r in injector.log if "up" in r.description]
        assert len(restores) == 1
        assert lab.run_until(lab._initially_converged, timeout=600)

    def test_link_flap_racing_auto_restore(self):
        lab = _converged_lab(seed=24)
        injector = FailureInjector(lab)
        # The flap's cycles keep toggling the link while the link_down's
        # auto-restore (t=0.2+0.3=0.5) fires mid-storm; the guard must skip
        # the restore whenever a flap cycle already brought the link up.
        injector.arm(
            [
                FailureSpec(kind="link_down", at=0.2, duration=0.3),
                FailureSpec(kind="link_flap", at=0.3, count=3, period=0.4),
            ]
        )
        lab.sim.run_for(3.0)
        assert lab.provider_link(0).ports[0].is_up
        assert lab.run_until(lab._initially_converged, timeout=600)
        assert lab.wait_recovered(timeout=600)

    def test_remote_withdraw_on_provider_with_reset_session(self):
        lab = _converged_lab(seed=25)
        provider = lab.providers[0]
        injector = FailureInjector(lab)
        injector.arm(
            [
                FailureSpec(kind="session_reset", at=0.2, duration=2.0),
                FailureSpec(kind="remote_withdraw", at=0.5, prefix_fraction=0.5),
            ]
        )
        lab.sim.run_for(1.0)
        # The withdraw hit a torn session: no UPDATE could be sent, but the
        # blackhole still applies.
        assert _blackholed(provider, lab) > 0
        # After the session restarts, the withdrawn slice is simply absent
        # from the fresh table transfer and the lab fully reconverges.
        lab.sim.run_for(5.0)
        assert lab.plan.provider_core_ip(0) in [
            ip for ip in lab.controllers[0].bgp.established_peers()
        ]
        assert lab.wait_recovered(timeout=600)
