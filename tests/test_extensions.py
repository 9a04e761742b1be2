"""Tests for the FIB-cache and load-balancing superchargers."""

import pytest

from repro.extensions.fib_cache import FibCacheSupercharger
from repro.extensions.load_balancing import (
    Flow,
    HashEcmpRouter,
    LoadBalancingSupercharger,
    LoadReport,
)
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes.prefix_gen import PrefixGenerator
from repro.sim.random import SeededRandom

NH_A = IPv4Address("10.0.0.2")
NH_B = IPv4Address("10.0.0.3")
NH_C = IPv4Address("10.0.0.4")


def _routes(count, seed=1):
    prefixes = PrefixGenerator(seed=seed).generate(count)
    random = SeededRandom(seed)
    next_hops = [NH_A, NH_B, NH_C]
    return [(prefix, random.choice(next_hops)) for prefix in prefixes]


class TestFibCache:
    def test_router_entries_bounded_by_covering_prefixes(self):
        cache = FibCacheSupercharger(router_capacity=64, switch_capacity=128, covering_length=10)
        routes = _routes(200)
        cache.place(routes)
        assert cache.router_entries() <= 64
        assert cache.switch_entries() <= 128

    def test_popular_prefixes_prefer_the_switch(self):
        cache = FibCacheSupercharger(router_capacity=64, switch_capacity=10, covering_length=10)
        routes = _routes(100)
        popularity = {routes[0][0]: 100.0, routes[1][0]: 90.0}
        decisions = cache.place(routes, popularity)
        by_prefix = {decision.prefix: decision for decision in decisions}
        # The hottest prefix gets a switch rule unless the covering default
        # already routes it correctly (in which case no rule is needed).
        hot = by_prefix[routes[0][0]]
        fallback = cache.router_fib.exact(IPv4Prefix(routes[0][0].network, 10))
        assert hot.in_switch or fallback == routes[0][1]

    def test_forwarding_correctness_with_unbounded_switch(self):
        cache = FibCacheSupercharger(router_capacity=256, switch_capacity=10_000, covering_length=10)
        routes = _routes(150)
        cache.place(routes)
        for prefix, next_hop in routes:
            destination = IPv4Address(prefix.network.value + 1)
            assert cache.forward(destination) == next_hop
        assert cache.stats.misrouted == 0
        assert cache.stats.correct_fraction == 1.0

    def test_small_switch_degrades_gracefully(self):
        cache = FibCacheSupercharger(router_capacity=256, switch_capacity=5, covering_length=10)
        routes = _routes(150)
        cache.place(routes)
        for prefix, _next_hop in routes:
            cache.forward(IPv4Address(prefix.network.value + 1))
        assert cache.stats.total == 150
        assert 0.0 < cache.stats.correct_fraction <= 1.0
        assert cache.switch_entries() <= 5

    def test_miss_outside_all_coverings_returns_none(self):
        cache = FibCacheSupercharger(router_capacity=16, switch_capacity=16)
        cache.place(_routes(10))
        assert cache.forward(IPv4Address("223.255.255.1")) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FibCacheSupercharger(router_capacity=0, switch_capacity=1)
        with pytest.raises(ValueError):
            FibCacheSupercharger(router_capacity=1, switch_capacity=1, covering_length=30)

    def test_router_capacity_exceeded_raises(self):
        cache = FibCacheSupercharger(router_capacity=2, switch_capacity=10, covering_length=24)
        with pytest.raises(ValueError):
            cache.place(_routes(50))


class TestLoadBalancing:
    def _flows(self, count=60, seed=3, heavy_tail=True):
        random = SeededRandom(seed)
        flows = []
        for index in range(count):
            rate = 100.0 if (heavy_tail and index < 3) else random.uniform(1.0, 10.0)
            flows.append(Flow(
                src=IPv4Address(f"172.16.0.{index % 250 + 1}"),
                dst=IPv4Address(f"8.8.{index % 250}.1"),
                src_port=10_000 + index,
                dst_port=80,
                rate=rate,
            ))
        return flows

    def test_static_hash_is_deterministic(self):
        router = HashEcmpRouter([NH_A, NH_B])
        flow = self._flows(1)[0]
        assert router.pick(flow) == router.pick(flow)

    def test_load_accounts_all_traffic(self):
        router = HashEcmpRouter([NH_A, NH_B])
        flows = self._flows()
        load = router.load(flows)
        assert sum(load.values()) == pytest.approx(sum(flow.rate for flow in flows))

    def test_rebalancing_reduces_imbalance(self):
        router = HashEcmpRouter([NH_A, NH_B], salt=7)
        supercharger = LoadBalancingSupercharger(router, max_overrides=32)
        report = supercharger.rebalance(self._flows())
        assert report.imbalance_after <= report.imbalance_before
        assert sum(report.load_after.values()) == pytest.approx(
            sum(report.load_before.values())
        )

    def test_override_budget_respected(self):
        router = HashEcmpRouter([NH_A, NH_B], salt=7)
        supercharger = LoadBalancingSupercharger(router, max_overrides=2)
        report = supercharger.rebalance(self._flows())
        assert len(report.overrides) <= 2

    def test_balanced_input_needs_no_overrides(self):
        router = HashEcmpRouter([NH_A])
        supercharger = LoadBalancingSupercharger(router)
        report = supercharger.rebalance(self._flows(count=10, heavy_tail=False))
        assert report.overrides == {}
        assert report.imbalance_after == 1.0

    def test_imbalance_of_empty_load_is_one(self):
        assert LoadReport.imbalance({}) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HashEcmpRouter([])
        with pytest.raises(ValueError):
            LoadBalancingSupercharger(HashEcmpRouter([NH_A]), max_overrides=-1)
