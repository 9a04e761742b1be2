"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo(sim):
    order = []
    for label in range(5):
        sim.schedule(1.0, lambda value=label: order.append(value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_infinite_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


def test_schedule_at_in_the_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_execution(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    assert handle.cancel() is True
    sim.run()
    assert fired == []
    assert handle.cancelled
    assert sim.events_executed == 0


def test_cancel_twice_returns_false(sim):
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False


def test_cancel_after_execution_is_a_noop(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    assert handle.executed is True
    # Cancelling an already-fired event must not pretend it was cancelled.
    assert handle.cancel() is False
    assert handle.cancelled is False
    assert sim.events_executed == 1


def test_schedule_at_current_time_is_allowed(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    fired = []
    handle = sim.schedule_at(sim.now, lambda: fired.append(sim.now))
    assert handle.time == 1.0
    sim.run()
    assert fired == [1.0]


def test_schedule_at_past_timestamp_rejected_mid_run(sim):
    # Scheduling into the past from *inside* a callback must fail too.
    failures = []

    def tries_to_rewind():
        try:
            sim.schedule_at(sim.now - 0.5, lambda: None)
        except SimulationError as error:
            failures.append(error)

    sim.schedule(2.0, tries_to_rewind)
    sim.run()
    assert len(failures) == 1


def test_equal_timestamp_fifo_survives_cancellations(sim):
    order = []
    handles = [
        sim.schedule(1.0, lambda value=i: order.append(value)) for i in range(6)
    ]
    handles[1].cancel()
    handles[4].cancel()
    sim.run()
    assert order == [0, 2, 3, 5]


def test_equal_timestamp_fifo_across_nested_scheduling(sim):
    order = []

    def outer(tag):
        order.append(tag)
        # Same-timestamp events scheduled during execution run after the
        # already-queued ones, in scheduling order.
        sim.schedule(0.0, lambda: order.append(f"{tag}-child"))

    sim.schedule(1.0, lambda: outer("a"))
    sim.schedule(1.0, lambda: outer("b"))
    sim.run()
    assert order == ["a", "b", "a-child", "b-child"]


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(5.0, lambda: fired.append("late"))
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_for_advances_relative_duration(sim):
    sim.schedule(1.0, lambda: None)
    sim.run_for(0.25)
    assert sim.now == 0.25
    sim.run_for(1.0)
    assert sim.now == 1.25


def test_run_for_negative_duration_rejected(sim):
    with pytest.raises(SimulationError):
        sim.run_for(-1.0)


def test_max_events_limits_execution(sim):
    fired = []
    for index in range(10):
        sim.schedule(index * 0.1, lambda value=index: fired.append(value))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_exhausted_event_budget_does_not_jump_the_clock_past_pending_events(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.run(until=10.0, max_events=1) == 1.0
    assert sim.events_executed == 1


def test_event_budget_then_resume_executes_every_event_in_order(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1.0))
    sim.schedule(2.0, lambda: fired.append(2.0))
    sim.run_for(10.0, max_events=1)
    assert sim.run(until=10.0) == 10.0
    assert fired == [1.0, 2.0]


def test_horizon_or_empty_queue_still_advances_to_until_under_a_budget(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    assert sim.run(until=10.0, max_events=5) == 10.0  # stopped on the horizon
    assert sim.run(until=30.0, max_events=5) == 30.0  # stopped on an empty queue


def test_events_scheduled_during_execution_run(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0.5, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 1.5


def test_call_soon_runs_at_current_time(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    fired = []
    sim.call_soon(lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]


def test_reentrant_run_rejected(sim):
    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(0.1, inner)
    sim.run()


def test_handle_exposes_time_and_name(sim):
    handle = sim.schedule(2.5, lambda: None, name="probe")
    assert handle.time == 2.5
    assert handle.name == "probe"


class _CampaignShape:
    """Schedules through all four entry points and records what should run.

    Mirrors what campaigns do to the queue: a hold timer parked far ahead,
    then sub-second events that all land before it, many at equal
    timestamps, some cancelled while queued.
    """

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.live = set()  # tags scheduled, not cancelled, not yet run
        self.handles = {}
        self._tag = 0

    def _callback(self, tag):
        def fire():
            self.fired.append((self.sim.now, tag))
            self.live.remove(tag)

        return fire

    def _note(self, handle):
        self.live.add(self._tag)
        self.handles[self._tag] = handle
        self._tag += 1

    def burst(self, count):
        sim = self.sim
        for i in range(count):
            delay = (i % 7) * 0.01
            kind = i % 4
            if kind == 0:
                self._note(sim.schedule(delay, self._callback(self._tag)))
            elif kind == 1:
                self._note(sim.schedule_at(sim.now + delay, self._callback(self._tag)))
            elif kind == 2:
                self._note(sim.call_soon(self._callback(self._tag)))
            else:
                first = self._tag
                items = [(delay, self._callback(first + j)) for j in range(3)]
                for handle in sim.schedule_batch(items):
                    self._note(handle)
            if i % 5 == 0:
                self.cancel(self._tag - 1 - (i % 3))

    def cancel(self, tag):
        if tag in self.live:
            assert self.handles[tag].cancel() is True
            self.live.remove(tag)
        else:
            assert self.handles[tag].cancel() is False


def test_campaign_shape_runs_in_exact_time_then_sequence_order(sim):
    shape = _CampaignShape(sim)
    shape._note(sim.schedule(90.0, shape._callback(0), name="hold"))
    shape.burst(2000)
    # A second burst from inside a callback, at an instant that already has
    # equal-timestamp events queued behind it.
    sim.schedule_at(0.03, lambda: shape.burst(500))

    sim.run(max_events=100)
    assert sim.events_executed == 100
    sim.run(until=1.0)
    assert shape.fired == sorted(shape.fired)
    assert len(shape.fired) == len(set(shape.fired))
    assert shape.live == {0}  # everything but the hold timer ran
    assert sim.now == 1.0

    sim.run()
    assert shape.fired[-1] == (90.0, 0)
    assert not shape.live
    # Cancelled events never ran and are not counted: what ran is every
    # live callback plus the one burst-from-a-callback event.
    assert sim.events_executed == len(shape.fired) + 1
