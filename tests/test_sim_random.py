"""Tests for the deterministic random source."""

from repro.sim.random import SeededRandom


def test_same_seed_same_stream():
    a = SeededRandom(5)
    b = SeededRandom(5)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = SeededRandom(1)
    b = SeededRandom(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_fork_is_deterministic_and_independent():
    parent_a = SeededRandom(9)
    parent_b = SeededRandom(9)
    # Consume the parents by different amounts before forking.
    parent_a.random()
    for _ in range(5):
        parent_b.random()
    child_a = parent_a.fork("bfd")
    child_b = parent_b.fork("bfd")
    assert [child_a.random() for _ in range(5)] == [child_b.random() for _ in range(5)]


def test_fork_label_changes_stream():
    parent = SeededRandom(9)
    assert parent.fork("x").random() != parent.fork("y").random()


def test_uniform_within_bounds():
    random = SeededRandom(3)
    values = [random.uniform(2.0, 4.0) for _ in range(100)]
    assert all(2.0 <= value <= 4.0 for value in values)


def test_randint_within_bounds():
    random = SeededRandom(3)
    values = [random.randint(1, 6) for _ in range(100)]
    assert set(values) <= set(range(1, 7))


def test_sample_draws_distinct_items():
    random = SeededRandom(4)
    items = list(range(20))
    sample = random.sample(items, 5)
    assert len(sample) == 5
    assert len(set(sample)) == 5
