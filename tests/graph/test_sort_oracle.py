"""Graph construction's in-place packed sorts against the argsort-and-gather
bodies they replaced (:mod:`tests.graph.oracles`): equal arrays, equal
dtypes, and inputs left as they were, on duplicate arcs, self-loops, zero
weights, weights past the packed key's 62 bits (the ``lexsort``
fallbacks), one vertex, no arcs and directed graphs."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.graph.builder import compact_edges, from_edges
from tests.graph.oracles import (
    compact_edges_oracle,
    reverse_oracle,
    sorted_by_weight_oracle,
)

#: weight bands: few distinct values (ties, zeros), byte weights, 40-bit
#: weights, and weights wide enough that no packed key fits 62 bits
BANDS = ((0, 2), (0, 255), (2**40, 2**40 + 3), (0, 2**62))


@st.composite
def arc_lists(draw):
    """``(n, tails, heads, weights)``: hypothesis picks the shape and the
    weight band, a seeded generator fills the arrays."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(0, 160))
    lo, hi = draw(st.sampled_from(BANDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tails, heads = rng.integers(0, n, size=(2, m))
    return n, tails, heads, rng.integers(lo, hi, size=m, endpoint=True)


def _arrays(arcs):
    n, tails, heads, weights = arcs
    return n, *(np.array(a, dtype=np.int64) for a in (tails, heads, weights))


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _csr(graph):
    return graph.indptr, graph.adj, graph.weights


EMPTY = (1, [], [], [])
ONE_VERTEX = (1, [0, 0], [0, 0], [5, 3])
WIDE = (40, [3, 3, 1, 39, 3], [7, 7, 2, 0, 7], [2**62, 2**41, 0, 5, 2**41])


class TestCompactEdges:
    @settings(max_examples=300, deadline=None)
    @given(arcs=arc_lists(), drop_self_loops=st.booleans())
    @example(arcs=EMPTY, drop_self_loops=True)
    @example(arcs=EMPTY, drop_self_loops=False)
    @example(arcs=ONE_VERTEX, drop_self_loops=False)
    @example(arcs=WIDE, drop_self_loops=True)
    def test_equals_the_argsort_body(self, arcs, drop_self_loops):
        _, *inputs = _arrays(arcs)
        before = [a.copy() for a in inputs]
        got = compact_edges(*inputs, drop_self_loops=drop_self_loops)
        _assert_same(inputs, before)
        want = compact_edges_oracle(*inputs, drop_self_loops=drop_self_loops)
        _assert_same(got, want)


class TestGraphSorts:
    @settings(max_examples=300, deadline=None)
    @given(arcs=arc_lists(), undirected=st.booleans())
    @example(arcs=EMPTY, undirected=False)
    @example(arcs=ONE_VERTEX, undirected=True)
    @example(arcs=WIDE, undirected=False)
    def test_sorted_by_weight_equals_the_argsort_body(self, arcs, undirected):
        """Parallel arcs and self-loops kept: equal weights in one row are
        where a sort that is not stable would show."""
        n, tails, heads, weights = _arrays(arcs)
        graph = from_edges(tails, heads, weights, n, undirected=undirected, dedup=False)
        before = [a.copy() for a in _csr(graph)]
        got, want = graph.sorted_by_weight(), sorted_by_weight_oracle(graph)
        _assert_same(_csr(graph), before)
        _assert_same(_csr(got), _csr(want))
        assert got.undirected == undirected and got._sorted_by_weight

    @settings(max_examples=300, deadline=None)
    @given(arcs=arc_lists())
    @example(arcs=EMPTY)
    @example(arcs=ONE_VERTEX)
    def test_reverse_equals_the_argsort_body(self, arcs):
        n, tails, heads, weights = _arrays(arcs)
        graph = from_edges(tails, heads, weights, n, dedup=False)
        before = [a.copy() for a in _csr(graph)]
        got, want = graph.reverse(), reverse_oracle(graph)
        _assert_same(_csr(graph), before)
        _assert_same(_csr(got), _csr(want))
        assert not got.undirected
