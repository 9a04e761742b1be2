"""``Simulator.schedule_series`` against the batch it replaces.

A series keeps one event pending, but it reserves its block of sequence
numbers when armed, so every event runs at the ``(time, sequence)`` key a
``schedule_batch`` of the whole replay would have given it.  The reference
is :class:`BatchArmed`, a simulator that arms every item up front; both
must run the same ``(time, name)`` sequence, with the same results.  No
assert here reads a host clock.
"""

import gc
from functools import partial

import pytest

from repro.scenarios.campaign import run_failover
from repro.scenarios.presets import get_preset
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import SimulationError, Simulator

#: Binary-exact, so other events can be placed on a replay instant.
INTERVAL = 0.25


class Recording(Simulator):
    """Logs every executed event and, while ``measuring``, the heap peak."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.log = []
        self.measuring = False
        self.heap_peak = 0
        self.set_observer(None)

    def set_observer(self, observer):
        log = self.log

        def observe(name, when):
            log.append((when, name))
            if self.measuring:
                self.heap_peak = max(self.heap_peak, len(self._heap))
            if observer is not None:
                observer(name, when)

        super().set_observer(observe)


class BatchArmed(Recording):
    """Reference: the whole series is armed by one ``schedule_batch``."""

    def schedule_series(self, interval, items, callback, name=""):
        self.schedule_batch(
            ((index + 1) * interval, partial(callback, item), name)
            for index, item in enumerate(items)
        )


def _ris_churn(sim_class):
    spec = get_preset("ris-churn", num_prefixes=200, monitored_flows=4)
    sim = sim_class(seed=spec.seed)
    lab = build_scenario(sim, spec)
    assert lab.bring_up()
    sim.measuring = True
    result = run_failover(lab)
    return {
        "log": sim.log,
        "now": sim.now,
        "events": sim.events_executed,
        "profile": lab.profiler.to_dict(),
        "churn_updates": result.churn_updates,
        "recovered": result.recovered,
        "convergence": {str(d): t for d, t in result.convergence_times.items()},
    }, sim.heap_peak


def test_a_ris_churn_run_replays_the_same_event_sequence_as_the_batch():
    lazy, lazy_peak = _ris_churn(Recording)
    batch, batch_peak = _ris_churn(BatchArmed)
    assert lazy == batch
    replayed = sum(name == "churn:replay" for _, name in lazy["log"])
    assert replayed == lazy["churn_updates"] > 200
    # The failover phase's heap holds what can interleave, not the replay.
    assert lazy_peak <= 64 < batch_peak


def _program(sim_class, script):
    """Run ``script(sim, log)`` on a fresh simulator; return the executed
    ``(time, name)`` sequence, the callbacks' own log and the clock."""
    sim = sim_class()
    log = []
    script(sim, log)
    return {"events": sim.log, "log": log, "now": sim.now, "count": sim.events_executed}


def _same_as_batch(script):
    lazy = _program(Recording, script)
    assert lazy == _program(BatchArmed, script)
    return lazy


def _replay(sim, log, items="abcdef"):
    sim.schedule_series(INTERVAL, list(items), lambda item: log.append((item, sim.now)), "replay")


def test_an_event_at_exactly_a_replay_instant_keeps_its_place():
    def script(sim, log):
        # Queued before the series: wins the tie with replay item 2.
        sim.schedule(3 * INTERVAL, lambda: log.append(("before", sim.now)), "before")
        _replay(sim, log)
        # Queued after arming: loses the tie with replay item 1.
        sim.schedule(2 * INTERVAL, lambda: log.append(("after", sim.now)), "after")
        # Queued by a replay callback's neighbour mid-series, on a later instant.
        sim.schedule(
            INTERVAL,
            lambda: sim.schedule(4 * INTERVAL, lambda: log.append(("during", sim.now)), "during"),
            "arm-during",
        )
        sim.run()

    result = _same_as_batch(script)
    assert [entry for entry, _ in result["log"]] == [
        "a", "b", "after", "before", "c", "d", "e", "during", "f",
    ]


def test_run_until_and_max_events_stop_mid_series_and_resume():
    def script(sim, log):
        _replay(sim, log, "abcdefgh")
        sim.schedule(5 * INTERVAL, lambda: log.append(("tie", sim.now)), "tie")
        sim.run(until=2.5 * INTERVAL)
        log.append(("stopped", sim.now))
        sim.run(max_events=3)
        log.append(("stopped", sim.now))
        sim.run()

    result = _same_as_batch(script)
    assert result["count"] == 9


def test_two_interleaved_series_and_a_series_armed_by_an_event():
    def script(sim, log):
        _replay(sim, log, "abcd")
        sim.schedule(
            INTERVAL, lambda: sim.schedule_series(
                INTERVAL / 2, [1, 2, 3, 4], lambda item: log.append((item, sim.now)), "inner"
            ), "arm-inner",
        )
        sim.run()

    _same_as_batch(script)


def test_one_event_of_the_series_is_pending_at_a_time():
    sim = Simulator()
    depths = []
    sim.schedule_series(INTERVAL, range(50), lambda item: depths.append(len(sim._heap)))
    assert len(sim._heap) == 1
    sim.run()
    assert depths == [1] * 49 + [0]


def test_a_finished_series_leaves_nothing_for_the_collector():
    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        sink = []
        sim.schedule_series(INTERVAL, list(range(20)), sink.append, "replay")
        sim.run()
        del sim
        assert sink == list(range(20))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_empty_series_arms_nothing():
    sim = Simulator()
    sim.schedule_series(INTERVAL, [], lambda item: None)
    first = sim.schedule(0.0, lambda: None)
    assert first.sequence == 0 and sim.run() == 0.0 and sim.events_executed == 1


@pytest.mark.parametrize("interval", [-0.1, float("inf"), float("nan")])
def test_an_invalid_interval_is_rejected(interval):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_series(interval, [1, 2], lambda item: None)
    assert sim.run() == 0.0 and sim.events_executed == 0
