"""Unit tests for the wall-clock vs. cost-model drift rows."""

import pytest

from repro.obs.drift import DRIFT_THRESHOLD, MIN_WALL_S, drift_rows


def _sums(*records):
    """``(kind, wall_dt, sim_dt)`` records summed per kind, in order of
    each kind's first record — what the tracer folds at ``finish``."""
    sums = {}
    for kind, wall, sim in records:
        n, w, s = sums.get(kind, (0, 0.0, 0.0))
        sums[kind] = n + 1, w + wall, s + sim
    return sums


def _by_kind(sums):
    return {r["kind"]: r for r in drift_rows(sums)}


class TestReport:
    def test_balanced_kinds_not_flagged(self):
        # Both kinds have the same wall/sim ratio -> rel == 1 everywhere.
        rows = _by_kind(_sums(*[("a", 0.01, 1e-5), ("b", 0.02, 2e-5)] * 10))
        assert rows["a"]["rel"] == pytest.approx(1.0)
        assert rows["b"]["rel"] == pytest.approx(1.0)
        assert not any(r["flagged"] for r in rows.values())

    def test_diverging_kind_flagged(self):
        # Two well-priced kinds dominate; a third burns 100x more wall per
        # simulated second than the run-wide ratio predicts.
        rows = _by_kind(_sums(*[("a", 0.01, 1e-4), ("b", 0.01, 1e-4)] * 100,
                              *[("slow", 0.1, 1e-5)] * 10))
        assert rows["slow"]["rel"] > DRIFT_THRESHOLD
        assert {k for k, r in rows.items() if r["flagged"]} == {"slow"}

    def test_tiny_wall_aggregates_never_flagged(self):
        # Extreme ratio but only microseconds of wall time: timer noise.
        rows = drift_rows(_sums(("fast", 1e-6, 1e-5), ("noisy", 1e-4, 1e-9)))
        assert all(r["wall_s"] < MIN_WALL_S for r in rows)
        assert not any(r["flagged"] for r in rows)

    def test_rel_is_normalized_by_overall_ratio(self):
        rows = _by_kind(_sums(("a", 0.4, 1e-5), ("b", 0.1, 1e-5)))
        overall = 0.5 / 2e-5
        assert rows["a"]["rel"] == pytest.approx(rows["a"]["ratio"] / overall)

    def test_totals(self):
        rows = _by_kind(_sums(("a", 1.0, 0.25), ("b", 2.0, 0.75), ("a", 0.5, 0.0)))
        assert (rows["a"]["records"], rows["a"]["wall_s"], rows["a"]["sim_s"]) == (
            2, 1.5, 0.25)
        assert rows["b"]["ratio"] == pytest.approx(2.0 / 0.75)

    def test_empty_report(self):
        assert drift_rows({}) == []

    def test_unpriced_kind_has_no_ratio(self):
        # A kind the model prices at zero (a 1-rank machine's exchanges)
        # has no ratio: None, never inf, and never flagged.
        rows = _by_kind(_sums(("a", 0.01, 1e-5), ("free", 0.5, 0.0)))
        assert rows["free"]["ratio"] is None and rows["free"]["rel"] is None
        assert not rows["free"]["flagged"]
        assert rows["a"]["rel"] == pytest.approx(1.0 / 51.0)
