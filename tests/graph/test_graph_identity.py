"""What the benchmark builds, pinned: the structural digest of every graph
family's construction, of its weight-sorted form and of a directed graph's
reverse, at scale 10. A change to construction (the keep-minimum dedupe,
the tie order of a sort, the R-MAT label scramble) moves a digest here
before it moves a benchmark input."""

import pytest

from repro.core.load_balance import split_heavy_vertices
from repro.dynamic.versioner import structural_digest
from repro.graph import from_edges, grid_graph, rmat_graph
from repro.graph.rmat import RMAT1, RMAT2, rmat_edges
from repro.graph.social import synthetic_social_graph
from repro.graph.weights import uniform_weights


def _directed():
    tails, heads = rmat_edges(10, params=RMAT2, seed=3)
    return from_edges(tails, heads, uniform_weights(tails.size, seed=4), 1 << 10)


BUILDS = {
    "rmat1": lambda: rmat_graph(10, params=RMAT1, seed=1),
    "rmat2": lambda: rmat_graph(10, params=RMAT2, seed=1),
    "grid": lambda: grid_graph(24, 24, seed=1),
    "social": lambda: synthetic_social_graph("livejournal", scale=10, seed=1),
}

#: (built, weight-sorted) digests of each build
EXPECTED = {
    "rmat1": (
        "6b97b8e7253fb60b32ac95d2399772a90a190ae4ecd098ba22bb8297806d4529",
        "ab1c15a60f8171873b4b242c5f2e9447d2a9e9076e630e457b85dc50c3a15b67",
    ),
    "rmat2": (
        "2000440efba75194fdc3840d40d22814589559fe8035f7cb9aeb5140ab7e1fe1",
        "11596029394903ec7863c09d1357dfd745ba95a73d810f5ae8054a91505287fa",
    ),
    "grid": (
        "1d53a5b8b2593f73b7438716e0d6b5b5b92e4995864acc4f62904717fd1d020c",
        "3f2e46efc7d2afa1ea265ce3bf718f2d0a0c178003da662dce219fcb80f92938",
    ),
    "social": (
        "ee2c0e098514c0f01c211cf7b9f45b708ad8f997413a9804c37bce2b19eca377",
        "48460d2520fa6dd7753b7620122090d6de89263037371bfbe7437dd4cdeb7020",
    ),
}
DIRECTED = "a5d4c8d0603c765903a51abbcb4a15243ae51efcbffd5b917c92a152f216a50b"
DIRECTED_REVERSE = "8b7bc1db98d7e48a0db26e9338d097c1f46957bc6ccfb5c2afc5dbf036ee0c5e"
#: ``split_heavy_vertices`` of the RMAT-1 graph, threshold 64, seed 2
RMAT1_SPLIT = "9b0991c36e95207a29e47ed22b998c2b66428a500a81f2c370909ce0371755d2"


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_build_and_weight_sort(name):
    graph = BUILDS[name]()
    built, weight_sorted = EXPECTED[name]
    assert structural_digest(graph) == built
    assert structural_digest(graph.sorted_by_weight()) == weight_sorted


def test_directed_build_and_reverse():
    graph = _directed()
    assert structural_digest(graph) == DIRECTED
    assert structural_digest(graph.reverse()) == DIRECTED_REVERSE


def test_vertex_split():
    split = split_heavy_vertices(BUILDS["rmat1"](), 64, seed=2)
    assert structural_digest(split.graph) == RMAT1_SPLIT
