"""Property-based tests (hypothesis) for the core invariants.

The headline invariant — every distributed variant returns exactly the
sequential Dijkstra distances — is exercised over randomly drawn graphs,
weights, bucket widths, machine shapes and optimisation flags.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DELTA_INFINITY, SolverConfig
from repro.core.load_balance import _occurrence_index, split_heavy_vertices
from repro.core.reference import dijkstra_reference
from repro.core.relax import apply_relaxations
from repro.core.solver import solve_sssp
from repro.graph.builder import compact_edges, from_undirected_edges
from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.work import thread_work
from repro.util.ranges import concat_ranges
from tests.core.oracles import bucket_index


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_n=32, max_m=96, max_w=40, min_w=1):
    """A random small undirected weighted graph plus a valid root."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    weights = rng.integers(min_w, max_w + 1, m).astype(np.int64)
    graph = from_undirected_edges(tails, heads, weights, n)
    deg = graph.degrees
    with_edges = np.nonzero(deg > 0)[0]
    if with_edges.size == 0:
        root = 0
    else:
        root = int(with_edges[draw(st.integers(0, int(with_edges.size) - 1))])
    return graph, root


solver_flags = st.fixed_dictionaries(
    {
        "use_ios": st.booleans(),
        "use_pruning": st.booleans(),
        "use_hybrid": st.booleans(),
        "intra_lb": st.booleans(),
        "tau": st.sampled_from([0.0, 0.4, 0.9]),
        "pushpull_mode": st.sampled_from(["auto", "push", "pull"]),
        "pushpull_estimator": st.sampled_from(["expectation", "exact"]),
    }
)


class TestSolverMatchesDijkstra:
    @settings(max_examples=60, deadline=None)
    @given(
        gr=random_graphs(),
        delta=st.sampled_from([1, 2, 7, 25, DELTA_INFINITY]),
        flags=solver_flags,
        ranks=st.sampled_from([1, 2, 3, 5]),
    )
    def test_every_variant_is_exact(self, gr, delta, flags, ranks):
        graph, root = gr
        cfg = SolverConfig(delta=delta, **flags)
        res = solve_sssp(
            graph, root, algorithm="prop", config=cfg,
            num_ranks=ranks, threads_per_rank=2,
        )
        ref = dijkstra_reference(graph, root)
        assert np.array_equal(res.distances, ref)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(2, 24),
        m=st.integers(1, 60),
        delta=st.sampled_from([1, 7, 25, DELTA_INFINITY]),
        flags=solver_flags,
    )
    def test_directed_variants_are_exact(self, seed, n, m, delta, flags):
        from repro.graph.builder import from_edges

        rng = np.random.default_rng(seed)
        graph = from_edges(
            rng.integers(0, n, m),
            rng.integers(0, n, m),
            rng.integers(1, 30, m).astype(np.int64),
            n,
        )
        deg = graph.degrees
        candidates = np.nonzero(deg > 0)[0]
        root = int(candidates[0]) if candidates.size else 0
        cfg = SolverConfig(delta=delta, **flags)
        if cfg.intra_lb:
            cfg = cfg.evolve(intra_lb=True)
        res = solve_sssp(graph, root, algorithm="dir-prop", config=cfg,
                         num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, dijkstra_reference(graph, root))

    @settings(max_examples=25, deadline=None)
    @given(gr=random_graphs(min_w=0))
    def test_zero_weight_edges_supported(self, gr):
        graph, root = gr
        res = solve_sssp(graph, root, algorithm="delta", delta=5,
                         num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, dijkstra_reference(graph, root))

    @settings(max_examples=25, deadline=None)
    @given(gr=random_graphs(), threshold=st.integers(1, 10))
    def test_vertex_splitting_preserves_distances(self, gr, threshold):
        graph, root = gr
        split = split_heavy_vertices(graph, threshold, seed=1)
        ref = dijkstra_reference(graph, root)
        d_new = dijkstra_reference(
            split.graph, int(split.new_id_of_original[root])
        )
        assert np.array_equal(split.distances_for_original(d_new), ref)

    @settings(max_examples=20, deadline=None)
    @given(gr=random_graphs(), seed=st.integers(0, 100))
    def test_relaxation_counters_independent_of_machine_shape(self, gr, seed):
        # Work done is an algorithm property; the machine shape only changes
        # where the work lands, never how much of it there is.
        graph, root = gr
        a = solve_sssp(graph, root, algorithm="delta", delta=7,
                       num_ranks=1, threads_per_rank=1)
        b = solve_sssp(graph, root, algorithm="delta", delta=7,
                       num_ranks=4, threads_per_rank=4)
        assert a.metrics.total_relaxations == b.metrics.total_relaxations
        assert a.metrics.total_phases == b.metrics.total_phases


class TestDataStructureInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(0, 200),
        p=st.integers(1, 17),
    )
    def test_partition_tiles_vertex_space(self, n, p):
        part = BlockPartition(n, p)
        b = part.boundaries
        assert b[0] == 0 and b[-1] == n
        assert np.all(np.diff(b) >= 0)
        sizes = [part.rank_size(r) for r in range(p)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 200), p=st.integers(1, 17), seed=st.integers(0, 99))
    def test_owner_is_inverse_of_blocks(self, n, p, seed):
        part = BlockPartition(n, p)
        rng = np.random.default_rng(seed)
        v = rng.integers(0, n, 50)
        owners = np.asarray(part.owner(v))
        b = part.boundaries
        assert np.all(v >= b[owners])
        assert np.all(v < b[owners + 1])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 30))
    def test_concat_ranges_matches_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, 40, k)
        ends = starts + rng.integers(0, 8, k)
        idx, owners = concat_ranges(starts, ends)
        ref = [x for s, e in zip(starts, ends) for x in range(s, e)]
        assert list(idx) == ref
        assert np.all((idx >= starts[owners]) & (idx < ends[owners]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 60), k=st.integers(0, 120))
    def test_apply_relaxations_is_grouped_min(self, seed, n, k):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 100, n).astype(np.int64)
        dst = rng.integers(0, n, k)
        nd = rng.integers(0, 100, k).astype(np.int64)
        expected = d.copy()
        for v, x in zip(dst, nd):
            expected[v] = min(expected[v], x)
        actual = d.copy()
        changed = apply_relaxations(actual, dst, nd)
        assert np.array_equal(actual, expected)
        assert np.array_equal(np.nonzero(actual < d)[0], changed)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(0, 80))
    def test_compact_edges_keeps_min_weight(self, seed, m):
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 10, m)
        h = rng.integers(0, 10, m)
        w = rng.integers(1, 50, m).astype(np.int64)
        ct, ch, cw = compact_edges(t, h, w)
        # no self loops, unique pairs, min weights
        assert np.all(ct != ch)
        pairs = set(zip(ct.tolist(), ch.tolist()))
        assert len(pairs) == ct.size
        ref = {}
        for a, b, x in zip(t.tolist(), h.tolist(), w.tolist()):
            if a == b:
                continue
            ref[(a, b)] = min(ref.get((a, b), 10**9), x)
        assert {(a, b): int(x) for a, b, x in zip(ct, ch, cw)} == ref

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), k=st.integers(0, 60))
    def test_occurrence_index_property(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 8, k)
        occ = _occurrence_index(values)
        counts: dict[int, int] = {}
        for i, v in enumerate(values.tolist()):
            assert occ[i] == counts.get(v, 0)
            counts[v] = counts.get(v, 0) + 1

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        ranks=st.integers(1, 6),
        threads=st.integers(1, 6),
        threshold=st.floats(0.5, 100),
    )
    def test_thread_work_conserves_totals(self, seed, ranks, threads, threshold):
        rng = np.random.default_rng(seed)
        n = 48
        part = BlockPartition(n, ranks)
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=threads)
        v = rng.integers(0, n, 30)
        u = rng.uniform(0, 20, 30)
        plain = thread_work(v, u, part, machine)
        balanced = thread_work(v, u, part, machine, threshold)
        # Work is conserved exactly; note that balancing may raise the max on
        # a thread that was already busy with light work (the spread share
        # lands on every thread of the rank), so only totals are invariant.
        assert plain.sum() == pytest.approx(u.sum())
        assert balanced.sum() == pytest.approx(u.sum())
        # Per-rank totals are preserved too: spreading is rank-internal.
        t = machine.threads_per_rank
        assert plain.reshape(ranks, t).sum(axis=1) == pytest.approx(
            balanced.reshape(ranks, t).sum(axis=1)
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), delta=st.integers(1, 50))
    def test_bucket_index_floor_property(self, seed, delta):
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 1000, 40).astype(np.int64)
        idx = bucket_index(d, delta)
        assert np.all(idx * delta <= d)
        assert np.all(d < (idx + 1) * delta)
