"""The cyclic collector is paused where it finds nothing.

Two halves.  The *licence*: a whole scenario — build, feeds, convergence,
failures, recovery — run with the collector off leaves no more
unreachable objects behind at 800 prefixes than at 200 (none today), on
every preset and every failure kind, so a collection during those phases
can only re-walk live routes.  The *contract*: ``Simulator.run`` and
``collector_paused`` switch automatic collection off and leave the
collector exactly as they found it, whatever way they are left.
"""

import gc

import pytest

from repro.scenarios import testbed
from repro.scenarios.campaign import execute_scenario
from repro.scenarios.presets import PRESETS, get_preset
from repro.scenarios.spec import FAILURE_KINDS, failure_campaign
from repro.sim.engine import SimulationError, Simulator, collector_paused

SIZES = (200, 800)

#: Every preset, plus a Figure-4 lab for each failure kind no preset fires.
SPECS = {name: (name, {}) for name in PRESETS}
SPECS.update(
    {
        "bfd-loss": ("figure4", {"failures": failure_campaign("bfd_loss")}),
        "session-reset": ("figure4", {"failures": failure_campaign("session_reset")}),
        "link-down-up": (
            "figure4",
            {
                "failures": failure_campaign("link_down", at=1.0)
                + failure_campaign("link_up", at=3.0)
            },
        ),
    }
)


def make_spec(name, num_prefixes):
    preset, overrides = SPECS[name]
    return get_preset(preset, num_prefixes=num_prefixes, **overrides)


@pytest.fixture(autouse=True)
def collector_left_as_found():
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    yield
    assert gc.get_threshold() == threshold and gc.get_freeze_count() == 0
    (gc.enable if was_enabled else gc.disable)()


def unreachable_after(spec):
    """Objects only the cyclic collector could free after a full scenario
    run with the collector off (the finished lab is still referenced)."""
    gc.collect()
    gc.disable()
    try:
        record, lab = execute_scenario(spec)
        assert record["converged"] and record["recovered"], spec.name
        assert not gc.isenabled(), "a repro call switched the collector back on"
        return gc.collect()
    finally:
        gc.enable()


def assert_garbage_does_not_grow_with_the_table(name):
    small, large = (unreachable_after(make_spec(name, size)) for size in SIZES)
    assert small == large, f"{name}: {small} unreachable at {SIZES[0]}, {large} at {SIZES[1]}"


def test_every_failure_kind_is_reached():
    fired = {f.kind for name in SPECS for f in make_spec(name, SIZES[0]).failures}
    assert fired == set(FAILURE_KINDS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_scenario_leaves_nothing_for_the_collector(name):
    assert_garbage_does_not_grow_with_the_table(name)


def test_the_property_catches_one_cycle_per_event(monkeypatch):
    """Seeded mutation: every event callback leaves one self-referencing
    object behind, so garbage follows the event count, which follows the
    table."""
    push = Simulator._push

    def leaky_push(self, when, callback, name):
        def leaky():
            callback()
            cell = []
            cell.append(cell)

        return push(self, when, leaky, name)

    monkeypatch.setattr(Simulator, "_push", leaky_push)
    with pytest.raises(AssertionError, match="unreachable"):
        assert_garbage_does_not_grow_with_the_table("figure4")


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
def test_collection_is_off_inside_an_event_and_back_on_after_the_run(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    sim.run()
    assert seen == [False] and gc.isenabled()


def test_collection_is_back_on_after_a_callback_raises(sim):
    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()
    assert gc.isenabled()


def test_collection_is_back_on_after_a_simulation_error(sim):
    sim.schedule(1.0, sim.run)  # re-entrant run(): refused from inside the loop
    with pytest.raises(SimulationError):
        sim.run()
    assert gc.isenabled()
    sim.run()  # and the refusal left the simulator usable
    assert gc.isenabled()


def test_a_caller_that_disabled_collection_keeps_it_disabled(sim):
    gc.disable()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert not gc.isenabled()
    with collector_paused():
        pass
    assert not gc.isenabled()


def test_a_run_nested_in_a_build_restores_once_at_the_outermost_exit(sim):
    sim.schedule(1.0, lambda: None)
    with collector_paused():
        with collector_paused():
            sim.run()
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_build_is_swept_once_on_the_way_out_unless_the_caller_had_collection_off():
    def sweeps():
        return [generation["collections"] for generation in gc.get_stats()]

    before = sweeps()
    with collector_paused():
        with collector_paused():
            pass
        assert sweeps() == before
    # one collect(1): the young generations, never the oldest
    assert sweeps() == [before[0], before[1] + 1, before[2]]
    gc.disable()
    before = sweeps()
    with collector_paused():
        pass
    assert sweeps() == before


def test_a_build_that_raises_still_restores_collection():
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("build failed")
    assert gc.isenabled()


def test_collection_is_off_inside_the_table_builds_of_a_lab(monkeypatch):
    seen = {}

    def spy(name):
        real = getattr(testbed, name)

        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(testbed, name, wrapper)

    spy("synthetic_full_table")
    spy("churn_stream")
    record, _lab = execute_scenario(get_preset("ris-churn", num_prefixes=50))
    assert record["recovered"]
    assert seen == {"synthetic_full_table": {False}, "churn_stream": {False}}
    assert gc.isenabled()
