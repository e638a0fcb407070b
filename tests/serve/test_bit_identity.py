"""Bit-identity property: served answers equal independent solves.

The serving layer's headline guarantee (ISSUE/DESIGN §11): whatever path
an answer takes through the service — cache hit, fresh solve inside a
batch, or coalesced with another request — the distance array and the
parent tree derived from it are *bit-identical* to an independent
:func:`~repro.core.solver.solve_sssp` call with the same coordinates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paths import build_parent_tree
from repro.core.solver import solve_sssp
from repro.graph.builder import from_undirected_edges
from repro.serve.broker import QueryBroker
from repro.serve.workload import WorkloadSpec, root_sequence


@st.composite
def graph_and_stream(draw, max_n=32, max_m=96, max_w=40):
    """A random small graph plus a query stream with hot duplicates."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    weights = rng.integers(1, max_w + 1, m).astype(np.int64)
    graph = from_undirected_edges(tails, heads, weights, n)
    candidates = np.nonzero(graph.degrees > 0)[0]
    if candidates.size == 0:
        candidates = np.array([0])
    k = draw(st.integers(min_value=1, max_value=min(4, candidates.size)))
    hot = [int(candidates[i]) for i in
           draw(st.permutations(range(candidates.size)))[:k]]
    length = draw(st.integers(min_value=1, max_value=10))
    stream = [hot[draw(st.integers(0, k - 1))] for _ in range(length)]
    return graph, stream


def assert_bit_identical(graph, result, reference) -> None:
    assert np.array_equal(result.distances, reference.distances)
    assert result.distances.dtype == reference.distances.dtype
    served_parent = build_parent_tree(graph, result.distances, result.root)
    ref_parent = build_parent_tree(graph, reference.distances, result.root)
    assert np.array_equal(served_parent, ref_parent)


class TestBitIdentityProperty:
    @settings(max_examples=15, deadline=None)
    @given(gs=graph_and_stream(), delta=st.sampled_from([1, 7, 25]))
    def test_served_stream_matches_independent_solves(self, gs, delta):
        graph, stream = gs
        broker = QueryBroker(
            graph, algorithm="opt", delta=delta,
            num_ranks=2, threads_per_rank=2,
            num_workers=0, max_batch_size=8,
        )
        try:
            # batched phase: the whole stream in as few batches as possible
            futures = broker.submit_many(stream)
            while broker.process_once(block=False):
                pass
            reference = {
                root: solve_sssp(graph, root, algorithm="opt", delta=delta,
                                 num_ranks=2, threads_per_rank=2)
                for root in set(stream)
            }
            seen_sources = set()
            for future in futures:
                res = future.result()
                seen_sources.add(res.source)
                assert_bit_identical(graph, res, reference[res.root])
            # warm phase: every unique root again — all cache hits
            for root in set(stream):
                res = broker.query(root)
                assert res.cached
                assert_bit_identical(graph, res, reference[root])
            assert "solve" in seen_sources
        finally:
            broker.shutdown()


class TestBitIdentityPresets:
    @pytest.mark.parametrize("algorithm", ["delta", "prune", "opt", "lb-opt"])
    def test_zipf_stream_across_presets(self, rmat1_small, algorithm):
        broker = QueryBroker(
            rmat1_small, algorithm=algorithm, delta=25,
            num_ranks=4, threads_per_rank=2,
            num_workers=0, max_batch_size=8,
        )
        try:
            spec = WorkloadSpec(
                num_requests=12, zipf_s=1.3, root_universe=4, seed=11
            )
            stream = [int(r) for r in root_sequence(rmat1_small, spec)]
            results = broker.query_many(stream)
            reference = {
                root: solve_sssp(rmat1_small, root, algorithm=algorithm,
                                 delta=25, num_ranks=4, threads_per_rank=2)
                for root in set(stream)
            }
            sources = {r.source for r in results}
            for res in results:
                assert_bit_identical(rmat1_small, res, reference[res.root])
            # the stream is hot enough to exercise the cache path too
            assert "solve" in sources and "cache" in sources
        finally:
            broker.shutdown()
