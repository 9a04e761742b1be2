"""Tests for Figure 5 harness helpers that the sweep itself does not cover."""

import pytest

from repro.experiments.figure5 import (
    PAPER_NON_SUPERCHARGED_MAX_S,
    PAPER_SUPERCHARGED_MAX_S,
    _paper_reference,
    active_prefix_counts,
)


def test_paper_reference_table_matches_figure5_annotations():
    assert PAPER_NON_SUPERCHARGED_MAX_S[1_000] == pytest.approx(0.9)
    assert PAPER_NON_SUPERCHARGED_MAX_S[500_000] == pytest.approx(140.9)
    assert PAPER_SUPERCHARGED_MAX_S == pytest.approx(0.150)


def test_paper_reference_exact_points():
    assert _paper_reference(10_000) == "3.4"
    assert _paper_reference(500_000) == "140.9"


def test_paper_reference_interpolates_off_grid_points():
    text = _paper_reference(20_000)
    assert text.startswith("~")
    value = float(text.lstrip("~"))
    # 20k sits between the 10k (3.4s) and 50k (13.8s) paper measurements.
    assert 3.4 < value < 13.8


def test_active_prefix_counts_ignores_other_env_values(monkeypatch):
    monkeypatch.setenv("REPRO_FULL_SCALE", "0")
    counts = active_prefix_counts()
    assert max(counts) == 10_000
    for spelling in ("yes", "on"):
        monkeypatch.setenv("REPRO_FULL_SCALE", spelling)
        assert max(active_prefix_counts()) == 500_000
