"""Tests for the serial FIB update engine — the source of slow convergence."""

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.router.fib import Adjacency, FlatFib
from repro.router.fib_updater import FibUpdater, FibUpdaterConfig, FibWriteRequest

ADJ = Adjacency(mac=MacAddress(2), interface="core", next_hop_ip=IPv4Address("10.0.0.2"))


def _prefix(index):
    return IPv4Prefix(f"{10 + (index // 250)}.{index % 250}.0.0/24")


def test_first_entry_latency_applies(sim):
    fib = FlatFib()
    updater = FibUpdater(sim, fib, FibUpdaterConfig(first_entry_latency=0.5, per_entry_latency=0.01))
    applied = []
    updater.on_entry_applied(lambda prefix, adjacency, when: applied.append(when))
    updater.enqueue(_prefix(0), ADJ)
    sim.run()
    assert applied == [pytest.approx(0.5)]


def test_entries_applied_serially(sim):
    config = FibUpdaterConfig(first_entry_latency=0.5, per_entry_latency=0.1)
    updater = FibUpdater(sim, FlatFib(), config)
    applied = []
    updater.on_entry_applied(lambda prefix, adjacency, when: applied.append(when))
    for index in range(4):
        updater.enqueue(_prefix(index), ADJ)
    sim.run()
    assert applied == [pytest.approx(0.5 + 0.1 * i) for i in range(4)]


def test_batch_duration_matches_analytic_model(sim):
    config = FibUpdaterConfig(first_entry_latency=0.375, per_entry_latency=0.000281)
    updater = FibUpdater(sim, FlatFib(), config)
    count = 1000
    for index in range(count):
        updater.enqueue(_prefix(index), ADJ)
    sim.run()
    assert sim.now == pytest.approx(config.batch_duration(count))


def test_linear_growth_in_queue_size(sim):
    config = FibUpdaterConfig(first_entry_latency=0.0001, per_entry_latency=0.001)
    durations = {}
    for count in (100, 200):
        from repro.sim.engine import Simulator

        local_sim = Simulator()
        updater = FibUpdater(local_sim, FlatFib(), config)
        for index in range(count):
            updater.enqueue(_prefix(index), ADJ)
        durations[count] = local_sim.run()
    assert durations[200] == pytest.approx(2 * durations[100], rel=0.02)


def test_writes_and_deletes_applied_to_fib(sim):
    fib = FlatFib()
    updater = FibUpdater(sim, fib, FibUpdaterConfig(first_entry_latency=0.01, per_entry_latency=0.01))
    prefix = _prefix(0)
    updater.enqueue(prefix, ADJ)
    updater.enqueue(prefix, None)
    sim.run()
    assert fib.entry(prefix) is None
    assert updater.writes_applied == 1
    assert updater.deletes_applied == 1


def test_queue_depth_and_busy_flag(sim):
    updater = FibUpdater(sim, FlatFib(), FibUpdaterConfig(first_entry_latency=1.0, per_entry_latency=1.0))
    for index in range(3):
        updater.enqueue(_prefix(index), ADJ)
    assert updater.is_busy
    assert updater.queue_depth == 3
    sim.run()
    assert not updater.is_busy
    assert updater.queue_depth == 0


def test_idle_callback_fires_when_drained(sim):
    updater = FibUpdater(sim, FlatFib(), FibUpdaterConfig(first_entry_latency=0.1, per_entry_latency=0.1))
    idles = []
    updater.on_idle(lambda: idles.append(sim.now))
    updater.enqueue(_prefix(0), ADJ)
    updater.enqueue(_prefix(1), ADJ)
    sim.run()
    assert len(idles) == 1


def test_new_batch_after_idle_pays_first_entry_latency_again(sim):
    config = FibUpdaterConfig(first_entry_latency=0.5, per_entry_latency=0.1)
    updater = FibUpdater(sim, FlatFib(), config)
    applied = []
    updater.on_entry_applied(lambda prefix, adjacency, when: applied.append(when))
    updater.enqueue(_prefix(0), ADJ)
    sim.run()
    updater.enqueue(_prefix(1), ADJ)
    sim.run()
    assert applied[1] - applied[0] == pytest.approx(0.5)


def test_flush_immediately_bypasses_latency(sim):
    fib = FlatFib()
    updater = FibUpdater(sim, fib, FibUpdaterConfig(first_entry_latency=10.0, per_entry_latency=1.0))
    for index in range(5):
        updater.enqueue(_prefix(index), ADJ)
    updater.flush_immediately()
    assert len(fib) == 5
    assert sim.now == 0.0


def test_enqueue_many_preserves_order(sim):
    updater = FibUpdater(sim, FlatFib(), FibUpdaterConfig(first_entry_latency=0.1, per_entry_latency=0.1))
    applied = []
    updater.on_entry_applied(lambda prefix, adjacency, when: applied.append(prefix))
    requests = [FibWriteRequest(_prefix(index), ADJ) for index in range(5)]
    updater.enqueue_many(requests)
    sim.run()
    assert applied == [request.prefix for request in requests]


def test_last_applied_tracks_times(sim):
    fib = FlatFib()
    updater = FibUpdater(sim, fib, FibUpdaterConfig(first_entry_latency=0.2, per_entry_latency=0.1))
    prefix = _prefix(0)
    updater.enqueue(prefix, ADJ)
    sim.run()
    assert fib.entry(prefix).updated_at == pytest.approx(0.2)
