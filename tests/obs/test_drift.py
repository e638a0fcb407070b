"""The wall/simulated ratio of each record kind, read off the counters.

:meth:`~repro.obs.tracer.Tracer.finish` folds its record events into
``sssp_{records,wall_seconds,sim_seconds}_total{kind}`` — all a reader
needs to price each kind's wall time against the cost model. These tests
feed a tracer record events with known clocks and read the counters back,
and hold a real solve's counters to the solve's own clocks.
"""

import math

import pytest

from repro.core.solver import solve_sssp
from repro.obs.tracer import TraceConfig, Tracer
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig

SERIES = ("sssp_records_total", "sssp_wall_seconds_total",
          "sssp_sim_seconds_total")


def _tracer(*records) -> Tracer:
    """A finished tracer whose record events are ``(kind, wall_dt,
    sim_dt)``, in order."""
    tracer = Tracer(MachineConfig(num_ranks=2, threads_per_rank=2),
                    TraceConfig())
    for kind, wall, sim in records:
        tracer.events.append(
            {"type": "record", "kind": kind, "wall_dt": wall, "sim_dt": sim})
    tracer.finish()
    return tracer


def _per_kind(tracer) -> dict[str, tuple[float, float, float]]:
    """``{kind: (records, wall_s, sim_s)}`` read off the registry."""
    cut = tracer.registry.read(*SERIES)
    return {dict(key)["kind"]: tuple(cut[name][key] for name in SERIES)
            for key in cut[SERIES[0]]}


def _ratio(row) -> float:
    _, wall, sim = row
    return wall / sim


class TestReport:
    def test_balanced_kinds_not_flagged(self):
        # the same wall per simulated second: equal ratios off the counters
        rows = _per_kind(_tracer(*[("a", 0.01, 1e-5), ("b", 0.02, 2e-5)] * 10))
        assert _ratio(rows["a"]) == pytest.approx(_ratio(rows["b"]))

    def test_diverging_kind_flagged(self):
        # a kind 100x dearer in wall time than its price stands out
        rows = _per_kind(_tracer(*[("a", 0.01, 1e-4), ("b", 0.01, 1e-4)] * 100,
                                 *[("slow", 0.1, 1e-5)] * 10))
        assert _ratio(rows["slow"]) == pytest.approx(100 * _ratio(rows["a"]))
        assert _ratio(rows["a"]) == pytest.approx(_ratio(rows["b"]))

    def test_tiny_wall_aggregates_never_flagged(self):
        # microsecond sums survive: each counter is the in-order float sum
        walls = [1e-6, 3e-7, 2.5e-6, 1e-9]
        rows = _per_kind(_tracer(*[("fast", w, 1e-5) for w in walls]))
        total = 0.0
        for w in walls:
            total += w
        assert rows["fast"][1] == total

    def test_rel_is_normalized_by_overall_ratio(self, rmat1_small):
        # the run-wide base of every ratio: the kinds' sums are the solve's
        machine = MachineConfig(num_ranks=4, threads_per_rank=4)
        res = solve_sssp(rmat1_small, 3, algorithm="opt", delta=25,
                         machine=machine, trace=TraceConfig())
        rows = _per_kind(res.trace)
        assert sum(r[0] for r in rows.values()) == len(res.metrics.records)
        sim = sum(r[2] for r in rows.values())
        assert sim == pytest.approx(res.trace.sim_t, rel=1e-12)
        assert sim == pytest.approx(
            evaluate_cost(res.metrics, machine).total_time, rel=1e-12)
        assert 0 < sum(r[1] for r in rows.values()) <= res.trace.wall_total

    def test_totals(self):
        rows = _per_kind(_tracer(("a", 1.0, 0.25), ("b", 2.0, 0.75),
                                 ("a", 0.5, 0.0)))
        assert rows == {"a": (2.0, 1.5, 0.25), "b": (1.0, 2.0, 0.75)}

    def test_empty_report(self):
        tracer = _tracer()
        assert tracer.registry.read(*SERIES) == {name: {} for name in SERIES}
        assert "sssp_records_total" not in tracer.registry.prometheus_text()

    def test_unpriced_kind_has_no_ratio(self, rmat1_small):
        # one rank prices every exchange at zero: the kind is counted, its
        # simulated seconds are 0 (no ratio), and every value is finite
        res = solve_sssp(rmat1_small, 3, algorithm="opt", delta=25,
                         machine=MachineConfig(num_ranks=1, threads_per_rank=2),
                         trace=TraceConfig())
        rows = _per_kind(res.trace)
        records, wall, sim = rows["exchange"]
        assert records > 0 and wall > 0 and sim == 0.0
        assert all(r[2] > 0 for kind, r in rows.items() if kind != "exchange")
        assert all(math.isfinite(v) for r in rows.values() for v in r)
