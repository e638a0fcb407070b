"""Same seed, same inputs: roots, arrival schedule, update batches, and
every number that is a function of the inputs alone."""

import numpy as np
import pytest

from benchmarks.stack.loadgen import poisson_due_times, sample_roots, zipf_indices
from benchmarks.stack.run import run_workload
from benchmarks.stack.spec import TIMING_DEPENDENT_COUNTS, Run, load_contract


def test_seeded_inputs_repeat_and_differ_across_seeds_and_labels():
    from repro.dynamic.updates import random_update_batch
    from repro.graph import rmat_graph

    def inputs(seed):
        run = Run("serve_churn", seed=seed, seconds=12.0)
        graph = rmat_graph(10, seed=run.int_seed("graph"))
        roots = sample_roots(graph, 32, run.rng("roots"))
        due = poisson_due_times(run.rng("traffic"), 24.0, 40)
        ranks = zipf_indices(run.rng("traffic"), 32, 1.1, 40)
        batch = random_update_batch(graph, run.rng("updates"), churn_fraction=0.01)
        return roots, due, ranks, (
            batch.insert_tails, batch.insert_heads, batch.insert_weights,
            batch.delete_tails, batch.delete_heads,
            batch.reweight_tails, batch.reweight_heads, batch.reweight_weights,
        )

    a, b, c = inputs(7), inputs(7), inputs(8)
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)
    for x, y in zip(a[3], b[3]):
        assert np.array_equal(x, y)
    assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])
    run = Run("x", seed=7, seconds=12.0)
    assert run.int_seed("graph") != run.int_seed("roots")


@pytest.mark.parametrize("name", ["cold_grid", "serve_churn"])
def test_same_seed_gives_identical_counts_and_simulated_rates(name):
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    first = run_workload(name, seed=5, trace=True, scale="smoke")["result"]["metrics"]
    second = run_workload(name, seed=5, trace=True, scale="smoke")["result"]["metrics"]
    exact = [k for k, u in units.items()
             if u == "count" and k not in TIMING_DEPENDENT_COUNTS]
    exact += ["runtime.sim_time_s", "serve.cache_hit_share"]
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    a = run_workload(name, seed=5, scale="smoke")["result"]
    b = run_workload(name, seed=5, scale="smoke")["result"]
    assert a["metrics"]["sim_gteps"] == b["metrics"]["sim_gteps"]
    assert a["attempted"] == b["attempted"]
    other = run_workload(name, seed=6, scale="smoke")["result"]
    assert other["metrics"]["sim_gteps"] != a["metrics"]["sim_gteps"]
