"""Tests for periodic processes."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import PeriodicProcess, ProcessState


def test_periodic_ticks_at_interval(sim):
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start()
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_initial_delay_overrides_first_tick(sim):
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start(initial_delay=0.0)
    sim.run(until=2.5)
    assert ticks == [0.0, 1.0, 2.0]


def test_stop_prevents_further_ticks(sim):
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
    process.start()
    sim.run(until=2.5)
    process.stop()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert process.state is ProcessState.STOPPED


def test_callback_can_stop_its_own_process(sim):
    ticks = []

    def tick():
        ticks.append(sim.now)
        process.stop()

    process = PeriodicProcess(sim, 1.0, tick)
    process.start()
    sim.run(until=10.0)
    assert ticks == [1.0]


def test_double_start_rejected(sim):
    process = PeriodicProcess(sim, 1.0, lambda: None)
    process.start()
    with pytest.raises(SimulationError):
        process.start()


def test_invalid_interval_rejected(sim):
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 0.0, lambda: None)


def test_invalid_jitter_rejected(sim):
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 1.0, lambda: None, jitter=1.5)


def test_jitter_keeps_ticks_near_interval(sim):
    ticks = []
    process = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now), jitter=0.2)
    process.start()
    sim.run(until=20.0)
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert all(0.8 - 1e-9 <= gap <= 1.2 + 1e-9 for gap in gaps)
    assert len(ticks) >= 15


def test_state_transitions(sim):
    process = PeriodicProcess(sim, 1.0, lambda: None)
    assert process.state is ProcessState.CREATED
    process.start()
    assert process.state is ProcessState.RUNNING
    process.stop()
    assert process.state is ProcessState.STOPPED
