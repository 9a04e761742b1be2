"""Tests for the scenario testbed compiler (topology builders)."""

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.presets import get_preset, preset_names
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.testbed import AddressPlan, build_scenario
from repro.sim.engine import Simulator


class TestAddressPlan:
    def test_matches_legacy_figure4_plan(self):
        """One edge router + two providers is the paper's Figure-4 plan."""
        plan = AddressPlan(num_providers=2, num_edge_routers=1, num_controllers=2)
        assert plan.edge_core_ip(0) == IPv4Address("10.0.0.1")
        assert plan.edge_core_mac(0) == MacAddress("00:00:00:00:00:01")
        assert plan.provider_core_ip(0) == IPv4Address("10.0.0.2")
        assert plan.provider_core_ip(1) == IPv4Address("10.0.0.3")
        assert plan.provider_core_mac(1) == MacAddress("00:00:00:00:00:03")
        assert plan.sink_subnet(0) == IPv4Prefix("192.168.2.0/30")
        assert plan.sink_ip(1) == IPv4Address("192.168.3.2")
        assert plan.controller_ip(0) == IPv4Address("10.0.0.100")
        assert plan.controller_ip(1) == IPv4Address("10.0.0.101")
        assert plan.edge_switch_port(0) == 1
        assert plan.provider_switch_port(0) == 2
        assert plan.provider_switch_port(1) == 3
        assert plan.controller_switch_port(0) == 4
        assert plan.controller_switch_port(1) == 5
        assert plan.source_subnet(0) == IPv4Prefix("192.168.1.0/24")

    def test_wide_fan_addresses_stay_unique(self):
        plan = AddressPlan(num_providers=30, num_edge_routers=8, num_controllers=8)
        addresses = [plan.edge_core_ip(j) for j in range(8)]
        addresses += [plan.provider_core_ip(i) for i in range(30)]
        addresses += [plan.controller_ip(k) for k in range(8)]
        assert len(set(addresses)) == len(addresses)
        for address in addresses:
            assert plan.CORE_SUBNET.contains(address)
            assert not plan.VNH_POOL.contains(address)
        ports = [plan.edge_switch_port(j) for j in range(8)]
        ports += [plan.provider_switch_port(i) for i in range(30)]
        ports += [plan.controller_switch_port(k) for k in range(8)]
        assert len(set(ports)) == len(ports)


class TestFanTopology:
    @pytest.fixture(scope="class")
    def fan_lab(self):
        sim = Simulator(seed=11)
        spec = get_preset("fan", num_providers=4, num_prefixes=12, monitored_flows=3,
                          failures=[])
        return build_scenario(sim, spec)

    def test_provider_fan_is_wired(self, fan_lab):
        assert len(fan_lab.providers) == 4
        for i in range(4):
            name = fan_lab.spec.provider_name(i).lower()
            assert f"{name}-sw" in fan_lab.links
            assert f"{name}-sink" in fan_lab.links
            assert f"from-{name}" in fan_lab.sink.interfaces

    def test_primary_link_is_first_provider(self, fan_lab):
        assert fan_lab.primary_link is fan_lab.provider_link(0)

    def test_provider_lookup_by_name(self, fan_lab):
        assert fan_lab.provider_index("p3") == 2
        with pytest.raises(KeyError):
            fan_lab.provider_index("nope")

    def test_speaker_lookup_by_ip(self, fan_lab):
        plan = fan_lab.plan
        assert fan_lab.speaker_by_ip(plan.edge_core_ip(0)) is fan_lab.edge_routers[0].bgp
        assert fan_lab.speaker_by_ip(plan.provider_core_ip(2)) is fan_lab.providers[2].bgp
        assert fan_lab.speaker_by_ip(IPv4Address("10.0.0.250")) is None

    def test_controller_peers_cover_all_providers(self, fan_lab):
        controller = fan_lab.controllers[0]
        peer_ips = {spec.ip for spec in controller.config.peers}
        assert peer_ips == {fan_lab.plan.provider_core_ip(i) for i in range(4)}

    def test_every_wired_port_has_an_owner_the_tracer_can_step(self, fan_lab, check_port_owners):
        check_port_owners(
            fan_lab, {"R1", "P1", "P2", "P3", "P4", "sw1", "sink", "source", "ctrl1"}
        )


class TestFanFailover:
    def test_fan_failover_converges_to_second_provider(self):
        sim = Simulator(seed=5)
        spec = get_preset("fan", num_providers=3, num_prefixes=40, monitored_flows=4,
                          failures=[])
        lab = build_scenario(sim, spec)
        lab.start()
        lab.load_feeds()
        assert lab.wait_converged(timeout=600)
        lab.setup_monitoring()
        result = run_failover(lab, PRIMARY_LINK_DOWN)
        assert result.samples
        assert result.max_convergence < 1.0  # supercharged stays sub-second
        assert result.detection_time is not None

    def test_standalone_fan_prefers_primary_then_backup(self):
        sim = Simulator(seed=6)
        spec = ScenarioSpec(
            name="fan-standalone", supercharged=False, num_providers=3,
            num_prefixes=30, monitored_flows=3,
        )
        lab = build_scenario(sim, spec)
        lab.start()
        lab.load_feeds()
        assert lab.wait_converged(timeout=600)
        lab.setup_monitoring()
        sample = lab.provider_feeds[0].routes[0].prefix
        edge = lab.edge_routers[0]
        assert edge.fib.entry(sample).adjacency.next_hop_ip == lab.plan.provider_core_ip(0)
        assert run_failover(lab, PRIMARY_LINK_DOWN, timeout=600).recovered
        # After the primary died, the highest remaining preference wins.
        assert edge.fib.entry(sample).adjacency.next_hop_ip == lab.plan.provider_core_ip(1)


class TestEpisodeBook:
    """The lab owns one book of failure episodes; its telemetry context
    writes into that same book."""

    def test_one_note_failure_opens_one_outage_in_the_labs_book(self):
        spec = get_preset("figure4", num_prefixes=40, monitored_flows=4, seed=5)
        lab = build_scenario(Simulator(seed=spec.seed), spec)
        assert lab.bring_up()
        assert lab.telemetry.causal is lab.detection
        assert lab.detection.outages() == []
        result = run_failover(lab, PRIMARY_LINK_DOWN)
        (outage,) = lab.detection.outages()
        assert (outage.opened_at, outage.kind, outage.provider) == (
            result.failure_time, "link_down", 0,
        )
        # Every read-out comes from that book.
        assert result.detection_path == "bfd"
        assert lab.detection.episode_detection_path() == "bfd"
        assert set(result.detection_paths) == {"bfd"}
        assert lab.stage_offsets()["detect"] == pytest.approx(result.detection_time * 1e3)
        assert lab.stage_offsets() == lab.detection.stage_offsets_ms(outage)


class TestMultiEdge:
    def test_shared_controller_plane_converges(self):
        sim = Simulator(seed=9)
        spec = get_preset(
            "shared-controller-plane", num_edge_routers=2, num_prefixes=25,
            monitored_flows=3, failures=[],
        )
        lab = build_scenario(sim, spec)
        assert len(lab.edge_routers) == 2
        assert len(lab.controllers) == 2  # one per edge router
        lab.start()
        lab.load_feeds()
        assert lab.wait_converged(timeout=600)
        for edge in lab.edge_routers:
            assert len(edge.fib) == 25


class TestPresets:
    def test_every_preset_produces_valid_spec(self):
        for name in preset_names():
            spec = get_preset(name)
            assert isinstance(spec, ScenarioSpec)

    def test_figure4_preset_matches_lab_config(self):
        """The preset IS the paper's lab configuration."""
        spec = get_preset("figure4")
        assert spec.num_providers == 2 and spec.num_edge_routers == 1
        assert spec.provider_names == ["R2", "R3"]
        assert spec.provider_local_prefs == [200, 100]
        assert spec.supercharged
        assert not get_preset("figure4-standalone").supercharged

    def test_preset_overrides_forwarded(self):
        spec = get_preset("figure4", num_prefixes=77, seed=42)
        assert spec.num_prefixes == 77
        assert spec.seed == 42

    def test_unknown_preset_rejected(self):
        from repro.scenarios.spec import ScenarioSpecError

        with pytest.raises(ScenarioSpecError):
            get_preset("figure6")
