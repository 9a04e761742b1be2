"""``Simulator.advance`` and ``Simulator.postpone`` against the plain heap.

Both primitives promise exactly the behaviour of what they replace: a
FIB download that advances the clock in place applies the same entries at
the same instants, in the same order relative to every other event, with
the same ``events_executed`` and the same profile as one that schedules
every entry; a postponed timer fires where cancel + schedule would have
put it.  The reference is :class:`HeapOnly`, a simulator that never
advances in place.  No assert here reads a host clock.
"""

import random

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.router.fib import Adjacency, FlatFib
from repro.router.fib_updater import FibUpdater, FibUpdaterConfig, FibWriteRequest
from repro.sim.engine import SimulationError, Simulator
from repro.telemetry.profile import SimProfiler

ADJ = Adjacency(mac=MacAddress(2), interface="core", next_hop_ip=IPv4Address("10.0.0.2"))
#: Binary-exact latencies, so entry k lands on exactly 0.5 + 0.25 k and
#: other events can be placed on an entry's instant.
CONFIG = FibUpdaterConfig(first_entry_latency=0.5, per_entry_latency=0.25)
#: Writes enqueued at t=0 by every drain scenario.
ENTRIES = 12


class HeapOnly(Simulator):
    """Reference: every FIB entry is a scheduled heap event."""

    def advance(self, delay, name=""):
        return False


class Counting(Simulator):
    """The simulator under test, counting the entries it ran in place."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.in_place = 0

    def advance(self, delay, name=""):
        moved = super().advance(delay, name)
        self.in_place += moved
        return moved


def _prefix(index):
    return IPv4Prefix(f"10.{index // 250}.{index % 250}.0/24")


def _drain(sim_class, script):
    """Run ``script(sim, updater, log)`` on a fresh simulator of
    ``sim_class``; return everything the two runs must agree on."""
    sim = sim_class()
    profiler = SimProfiler()
    sim.set_observer(profiler.observe)
    updater = FibUpdater(sim, FlatFib(), CONFIG, name="r1:fib")
    log = []
    updater.on_entry_applied(lambda prefix, adjacency, when: log.append((str(prefix), when)))
    updater.on_idle(lambda: log.append(("idle", sim.now)))
    script(sim, updater, log)
    return {
        "log": log,
        "now": sim.now,
        "events": sim.events_executed,
        "profile": profiler.to_dict(),
        "writes": updater.writes_applied,
        "busy": updater.is_busy,
    }, sim


def _same_as_heap(script):
    fast, sim = _drain(Counting, script)
    reference, _ = _drain(HeapOnly, script)
    assert fast == reference
    return fast, sim


def _enqueue_all(updater, entries, first=0):
    updater.enqueue_many([FibWriteRequest(_prefix(first + i), ADJ) for i in range(entries)])


def _marker(sim, log, label):
    return lambda: log.append((label, sim.now))


def test_a_lone_drain_runs_every_entry_after_the_first_in_place():
    def script(sim, updater, log):
        _enqueue_all(updater, ENTRIES)
        sim.run()

    result, sim = _same_as_heap(script)
    assert sim.in_place == 11
    assert result["events"] == 12 and result["writes"] == 12
    assert result["log"][-2:] == [(str(_prefix(11)), 0.5 + 11 * 0.25), ("idle", 3.25)]
    assert result["profile"]["handlers"]["r1:fib:entry"]["count"] == 11


@pytest.mark.parametrize("when", [1.0, 1.1, 3.25])
def test_an_event_queued_before_the_drain_wins_an_equal_instant(when):
    def script(sim, updater, log):
        sim.schedule_at(when, _marker(sim, log, "early"), name="early")
        _enqueue_all(updater, ENTRIES)
        sim.run()

    result, sim = _same_as_heap(script)
    at = [label for label, moment in result["log"] if moment == when]
    assert at[0] == "early"
    assert sim.in_place < 11


def test_an_event_queued_during_the_drain_wins_an_equal_instant():
    def script(sim, updater, log):
        def on_entry(prefix, adjacency, when):
            if prefix == _prefix(0):
                # Lands on entry 2's instant, queued before entry 2 is.
                sim.schedule(0.5, _marker(sim, log, "mid"), name="mid")
                sim.schedule(0.5, lambda: _enqueue_all(updater, 3, first=100), name="more")

        updater.on_entry_applied(on_entry)
        _enqueue_all(updater, ENTRIES)
        sim.run()

    result, _ = _same_as_heap(script)
    labels = [label for label, _ in result["log"]]
    assert labels.index("mid") == labels.index(str(_prefix(2))) - 1
    assert result["writes"] == 15


def test_run_until_stops_mid_drain_and_resumes():
    def script(sim, updater, log):
        _enqueue_all(updater, ENTRIES)
        log.append(("stopped", sim.run(until=1.1)))
        log.append(("events", sim.events_executed))
        sim.run(until=2.0)
        sim.run()

    result, _ = _same_as_heap(script)
    assert ("stopped", 1.1) in result["log"] and ("events", 3) in result["log"]


def test_a_max_events_budget_runs_every_entry_from_the_heap():
    def script(sim, updater, log):
        _enqueue_all(updater, ENTRIES)
        while updater.is_busy:
            sim.run(max_events=5)
            log.append(("chunk", sim.now, sim.events_executed))

    result, sim = _same_as_heap(script)
    assert sim.in_place == 0
    chunks = [entry[1:] for entry in result["log"] if entry[0] == "chunk"]
    assert chunks == [(1.5, 5), (2.75, 10), (3.25, 12)]


def test_flush_immediately_mid_drain():
    def script(sim, updater, log):
        _enqueue_all(updater, ENTRIES)
        sim.schedule(1.1, updater.flush_immediately, name="flush")
        sim.schedule(2.0, lambda: _enqueue_all(updater, 2, first=200), name="later")
        sim.run()

    result, _ = _same_as_heap(script)
    assert [moment for label, moment in result["log"] if label == "idle"] == [1.1, 2.75]
    assert result["writes"] == 14 and not result["busy"]


def test_a_listener_that_calls_soon_runs_before_the_next_entry():
    def script(sim, updater, log):
        updater.on_entry_applied(
            lambda prefix, adjacency, when: sim.call_soon(_marker(sim, log, "soon"), name="soon")
        )
        _enqueue_all(updater, ENTRIES)
        sim.run()

    result, sim = _same_as_heap(script)
    assert sim.in_place == 0
    assert result["profile"]["handlers"]["soon"]["count"] == 12


def test_advance_outside_run_or_beyond_until_changes_nothing():
    sim = Simulator()
    assert not sim.advance(1.0, "x") and sim.now == 0.0 and sim.events_executed == 0
    seen = []

    def tail():
        seen.append(sim.advance(0.5, "in"))
        seen.append(sim.advance(float("nan"), "nan"))
        seen.append(sim.advance(-1.0, "neg"))

    sim.schedule(0.5, tail)
    assert sim.run(until=0.75) == 0.75
    assert seen == [False, False, False] and sim.events_executed == 1
    sim.schedule(0.0, tail)
    sim.run()
    assert seen[3:] == [True, False, False]
    assert sim.now == 1.25 and sim.events_executed == 3


# ----------------------------------------------------------------------
# postpone
# ----------------------------------------------------------------------
DELAYS = (0.0, 0.25, 0.5, 1.0)


def _postpone(sim, event, delay):
    return sim.postpone(event, delay)


def _cancel_and_schedule(sim, event, delay):
    event.cancel()
    return sim.schedule(delay, event.callback, event.name)


def _timer_program(restart):
    """Three watchdogs restarted at random ticks onto a small set of
    delays, so ties, earlier moves and expired timers all occur."""
    sim = Simulator()
    rng = random.Random(7)
    fired = []
    timers = {}

    def expiry(index):
        return lambda: fired.append((f"t{index}", sim.now))

    for index in range(3):
        timers[index] = sim.schedule(rng.choice(DELAYS), expiry(index), name=f"t{index}")

    def tick(k):
        fired.append(("tick", sim.now))
        index = rng.randrange(3)
        timers[index] = restart(sim, timers[index], rng.choice(DELAYS))
        if k < 300:
            sim.schedule(rng.choice(DELAYS), lambda: tick(k + 1), name="tick")

    sim.schedule(0.0, lambda: tick(0), name="tick")
    sim.run()
    return fired, sim.events_executed


def test_postpone_orders_same_instant_ties_as_cancel_and_schedule():
    assert _timer_program(_postpone) == _timer_program(_cancel_and_schedule)


def test_a_postponed_tie_goes_behind_events_already_at_its_new_instant():
    sim = Simulator()
    order = []
    timer = sim.schedule(1.0, lambda: order.append("timer"), name="timer")
    sim.schedule(2.0, lambda: order.append("before"))
    assert sim.postpone(timer, 2.0) is timer and timer.time == 2.0
    sim.schedule(2.0, lambda: order.append("after"))
    sim.run()
    assert order == ["before", "timer", "after"]


def test_cancel_still_works_after_a_postpone():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, lambda: fired.append(sim.now))
    timer = sim.postpone(timer, 3.0)
    assert timer.cancel() and not timer.cancel()
    sim.run()
    assert fired == [] and sim.events_executed == 0


def test_moving_earlier_is_refused_and_scheduled_afresh():
    sim = Simulator()
    fired = []
    timer = sim.schedule(2.0, lambda: fired.append(sim.now), name="timer")
    moved = sim.postpone(timer, 1.0)
    assert moved is not timer and timer.cancelled
    assert (moved.time, moved.name, moved.callback) == (1.0, "timer", timer.callback)
    sim.run()
    assert fired == [1.0] and sim.events_executed == 1


def test_a_run_or_cancelled_event_is_scheduled_afresh():
    sim = Simulator()
    fired = []
    timer = sim.schedule(0.5, lambda: fired.append(sim.now))
    sim.run()
    again = sim.postpone(timer, 1.0)
    assert again is not timer and not again.executed
    again.cancel()
    third = sim.postpone(again, 0.25)
    assert third is not again and again.cancelled
    sim.run()
    assert fired == [0.5, 0.75]


def test_postpone_rejects_what_schedule_rejects():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    for delay in (-1.0, float("inf"), float("nan")):
        with pytest.raises(SimulationError):
            sim.postpone(timer, delay)


def test_a_stale_entry_is_refiled_without_counting_as_an_executed_event():
    sim = Simulator()
    seen = []
    sim.set_observer(lambda name, when: seen.append((name, when)))
    timer = sim.schedule(1.0, lambda: None, name="timer")
    sim.postpone(timer, 3.0)
    sim.schedule(2.0, lambda: None, name="other")
    assert sim.run(until=1.5) == 1.5
    assert sim.events_executed == 0 and seen == [] and not timer.executed
    sim.run()
    assert seen == [("other", 2.0), ("timer", 3.0)] and sim.events_executed == 2
